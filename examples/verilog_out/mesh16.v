//----------------------------------------------------------------------
// Generated by repro.TranslationTool
// Top module: MeshNetworkStructural_c188bc3b
//----------------------------------------------------------------------

module NormalQueue_4d0c60cc
(
  input  wire clk,
  input  wire reset,
  input  wire [47:0] enq__msg,
  input  wire enq__val,
  input  wire deq__rdy,
  output reg  enq__rdy,
  output reg  [47:0] deq__msg,
  output reg  deq__val
);
  reg  enq_ptr;
  reg  deq_ptr;
  reg  [1:0] count;
  reg [47:0] entries_arr [0:1];

  // comb_logic
  always @(*) begin
    enq__rdy = (count != 2);
    deq__val = (count != 0);
    deq__msg = entries_arr[deq_ptr];
  end

  integer do_enq;
  integer do_deq;
  // seq_logic
  always @(posedge clk) begin
    if (reset != 0) begin
      enq_ptr <= 0;
      deq_ptr <= 0;
      count <= 0;
    end else begin
      do_enq = ((enq__val != 0) && (enq__rdy != 0));
      do_deq = ((deq__val != 0) && (deq__rdy != 0));
      if (do_enq != 0) begin
        entries_arr[enq_ptr] <= enq__msg;
        if ((enq_ptr == (2 - 1)) != 0) begin
          enq_ptr <= 0;
        end else begin
          enq_ptr <= (enq_ptr + 1);
        end
      end
      if (do_deq != 0) begin
        if ((deq_ptr == (2 - 1)) != 0) begin
          deq_ptr <= 0;
        end else begin
          deq_ptr <= (deq_ptr + 1);
        end
      end
      if (((do_enq != 0) && ((!do_deq) != 0)) != 0) begin
        count <= (count + 1);
      end else begin
        if (((do_deq != 0) && ((!do_enq) != 0)) != 0) begin
          count <= (count - 1);
        end
      end
    end
  end
endmodule

module RouterRTL_4ca0efc7
(
  input  wire clk,
  input  wire reset,
  input  wire [47:0] in__0__msg,
  input  wire in__0__val,
  input  wire [47:0] in__1__msg,
  input  wire in__1__val,
  input  wire [47:0] in__2__msg,
  input  wire in__2__val,
  input  wire [47:0] in__3__msg,
  input  wire in__3__val,
  input  wire [47:0] in__4__msg,
  input  wire in__4__val,
  input  wire out_0__rdy,
  input  wire out_1__rdy,
  input  wire out_2__rdy,
  input  wire out_3__rdy,
  input  wire out_4__rdy,
  output wire in__0__rdy,
  output wire in__1__rdy,
  output wire in__2__rdy,
  output wire in__3__rdy,
  output wire in__4__rdy,
  output reg  [47:0] out_0__msg,
  output reg  out_0__val,
  output reg  [47:0] out_1__msg,
  output reg  out_1__val,
  output reg  [47:0] out_2__msg,
  output reg  out_2__val,
  output reg  [47:0] out_3__msg,
  output reg  out_3__val,
  output reg  [47:0] out_4__msg,
  output reg  out_4__val
);
  parameter switch_logic_k5 = 0;
  parameter switch_logic_k8 = 0;
  wire [47:0] queues_0__deq__msg;
  wire [47:0] queues_1__deq__msg;
  wire [47:0] queues_2__deq__msg;
  wire [47:0] queues_3__deq__msg;
  wire [47:0] queues_4__deq__msg;
  wire queues_0__deq__val;
  wire queues_1__deq__val;
  wire queues_2__deq__val;
  wire queues_3__deq__val;
  wire queues_4__deq__val;
  wire queues_0__deq__rdy;
  wire queues_1__deq__rdy;
  wire queues_2__deq__rdy;
  wire queues_3__deq__rdy;
  wire queues_4__deq__rdy;
  reg [2:0] grant_arr [0:4];
  reg grant_val_arr [0:4];
  reg [2:0] priority_arr [0:4];
  reg hold_val_arr [0:4];
  reg [2:0] hold_grant_arr [0:4];
  reg [31:0] flit_count_arr [0:4];
  reg [31:0] stall_count_arr [0:4];

  NormalQueue_4d0c60cc queues_0
  (
    .clk(clk),
    .reset(reset),
    .enq__msg(in__0__msg),
    .enq__val(in__0__val),
    .enq__rdy(in__0__rdy),
    .deq__msg(),
    .deq__val(),
    .deq__rdy()
  );

  NormalQueue_4d0c60cc queues_1
  (
    .clk(clk),
    .reset(reset),
    .enq__msg(in__1__msg),
    .enq__val(in__1__val),
    .enq__rdy(in__1__rdy),
    .deq__msg(),
    .deq__val(),
    .deq__rdy()
  );

  NormalQueue_4d0c60cc queues_2
  (
    .clk(clk),
    .reset(reset),
    .enq__msg(in__2__msg),
    .enq__val(in__2__val),
    .enq__rdy(in__2__rdy),
    .deq__msg(),
    .deq__val(),
    .deq__rdy()
  );

  NormalQueue_4d0c60cc queues_3
  (
    .clk(clk),
    .reset(reset),
    .enq__msg(in__3__msg),
    .enq__val(in__3__val),
    .enq__rdy(in__3__rdy),
    .deq__msg(),
    .deq__val(),
    .deq__rdy()
  );

  NormalQueue_4d0c60cc queues_4
  (
    .clk(clk),
    .reset(reset),
    .enq__msg(in__4__msg),
    .enq__val(in__4__val),
    .enq__rdy(in__4__rdy),
    .deq__msg(),
    .deq__val(),
    .deq__rdy()
  );

  reg [47:0] shadow_0 [0:4];
  always @(*) begin
    shadow_0[0] = queues_0__deq__msg;
    shadow_0[1] = queues_1__deq__msg;
    shadow_0[2] = queues_2__deq__msg;
    shadow_0[3] = queues_3__deq__msg;
    shadow_0[4] = queues_4__deq__msg;
  end
  reg shadow_1 [0:4];
  always @(*) begin
    shadow_1[0] = queues_0__deq__val;
    shadow_1[1] = queues_1__deq__val;
    shadow_1[2] = queues_2__deq__val;
    shadow_1[3] = queues_3__deq__val;
    shadow_1[4] = queues_4__deq__val;
  end
  reg shadow_2 [0:4];
  assign out_0__val = shadow_2[0];
  assign out_1__val = shadow_2[1];
  assign out_2__val = shadow_2[2];
  assign out_3__val = shadow_2[3];
  assign out_4__val = shadow_2[4];
  reg [47:0] shadow_3 [0:4];
  assign out_0__msg = shadow_3[0];
  assign out_1__msg = shadow_3[1];
  assign out_2__msg = shadow_3[2];
  assign out_3__msg = shadow_3[3];
  assign out_4__msg = shadow_3[4];
  reg shadow_4 [0:4];
  assign queues_0__deq__rdy = shadow_4[0];
  assign queues_1__deq__rdy = shadow_4[1];
  assign queues_2__deq__rdy = shadow_4[2];
  assign queues_3__deq__rdy = shadow_4[3];
  assign queues_4__deq__rdy = shadow_4[4];
  reg shadow_5 [0:4];
  always @(*) begin
    shadow_5[0] = out_0__rdy;
    shadow_5[1] = out_1__rdy;
    shadow_5[2] = out_2__rdy;
    shadow_5[3] = out_3__rdy;
    shadow_5[4] = out_4__rdy;
  end
  integer msgs [0:4];
  integer vals [0:4];
  integer routes [0:4];
  integer i;
  integer msg;
  integer dest;
  integer dest_x;
  integer dest_y;
  integer claimed [0:4];
  integer choices [0:4];
  integer o;
  integer choice;
  integer base;
  integer k;
  integer switch_logic__k0;
  integer switch_logic__k1;
  // switch_logic
  always @(*) begin
    msgs[0] = 0;
    msgs[1] = 0;
    msgs[2] = 0;
    msgs[3] = 0;
    msgs[4] = 0;
    vals[0] = 0;
    vals[1] = 0;
    vals[2] = 0;
    vals[3] = 0;
    vals[4] = 0;
    routes[0] = 0;
    routes[1] = 0;
    routes[2] = 0;
    routes[3] = 0;
    routes[4] = 0;
    for (switch_logic__k0 = 0; switch_logic__k0 < 5; switch_logic__k0 = switch_logic__k0 + 1) begin
      i = switch_logic__k0;
      msg = shadow_0[i];
      msgs[i] = msg;
      vals[i] = shadow_1[i];
      dest = ((msg >> 44) & ((1 << (48 - 44)) - 1));
      dest_x = (dest % 4);
      dest_y = (dest / 4);
      if ((dest_x > switch_logic_k5) != 0) begin
        routes[i] = 2;
      end else begin
        if ((dest_x < switch_logic_k5) != 0) begin
          routes[i] = 4;
        end else begin
          if ((dest_y > switch_logic_k8) != 0) begin
            routes[i] = 3;
          end else begin
            if ((dest_y < switch_logic_k8) != 0) begin
              routes[i] = 1;
            end else begin
              routes[i] = 0;
            end
          end
        end
      end
    end
    claimed[0] = 0;
    claimed[1] = 0;
    claimed[2] = 0;
    claimed[3] = 0;
    claimed[4] = 0;
    choices[0] = (-1);
    choices[1] = (-1);
    choices[2] = (-1);
    choices[3] = (-1);
    choices[4] = (-1);
    for (switch_logic__k0 = 0; switch_logic__k0 < 5; switch_logic__k0 = switch_logic__k0 + 1) begin
      o = switch_logic__k0;
      if (hold_val_arr[o] != 0) begin
        i = hold_grant_arr[o];
        if ((((claimed[i] == 0) != 0) && (vals[i] != 0) && ((routes[i] == o) != 0)) != 0) begin
          choices[o] = i;
          claimed[i] = 1;
        end
      end
    end
    for (switch_logic__k0 = 0; switch_logic__k0 < 5; switch_logic__k0 = switch_logic__k0 + 1) begin
      o = switch_logic__k0;
      choice = choices[o];
      if ((choice < 0) != 0) begin
        base = priority_arr[o];
        for (switch_logic__k1 = 0; switch_logic__k1 < 5; switch_logic__k1 = switch_logic__k1 + 1) begin
          k = switch_logic__k1;
          i = ((base + k) % 5);
          if ((((choice < 0) != 0) && ((claimed[i] == 0) != 0) && (vals[i] != 0) && ((routes[i] == o) != 0)) != 0) begin
            choice = i;
          end
        end
        if ((choice >= 0) != 0) begin
          claimed[choice] = 1;
        end
      end
      if ((choice >= 0) != 0) begin
        grant_arr[o] = choice;
        grant_val_arr[o] = 1;
        shadow_2[o] = 1;
        shadow_3[o] = msgs[choice];
      end else begin
        grant_arr[o] = 0;
        grant_val_arr[o] = 0;
        shadow_2[o] = 0;
        shadow_3[o] = 0;
      end
    end
    for (switch_logic__k0 = 0; switch_logic__k0 < 5; switch_logic__k0 = switch_logic__k0 + 1) begin
      i = switch_logic__k0;
      shadow_4[i] = 0;
    end
    for (switch_logic__k0 = 0; switch_logic__k0 < 5; switch_logic__k0 = switch_logic__k0 + 1) begin
      o = switch_logic__k0;
      if (grant_val_arr[o] != 0) begin
        shadow_4[grant_arr[o]] = shadow_5[o];
      end
    end
  end

  reg shadow_6 [0:4];
  always @(*) begin
    shadow_6[0] = out_0__rdy;
    shadow_6[1] = out_1__rdy;
    shadow_6[2] = out_2__rdy;
    shadow_6[3] = out_3__rdy;
    shadow_6[4] = out_4__rdy;
  end
  integer o;
  integer telemetry_logic__k0;
  // telemetry_logic
  always @(posedge clk) begin
    if (reset != 0) begin
      for (telemetry_logic__k0 = 0; telemetry_logic__k0 < 5; telemetry_logic__k0 = telemetry_logic__k0 + 1) begin
        o = telemetry_logic__k0;
        flit_count_arr[o] <= 0;
        stall_count_arr[o] <= 0;
      end
    end else begin
      for (telemetry_logic__k0 = 0; telemetry_logic__k0 < 5; telemetry_logic__k0 = telemetry_logic__k0 + 1) begin
        o = telemetry_logic__k0;
        if (((grant_val_arr[o] != 0) && (shadow_6[o] != 0)) != 0) begin
          flit_count_arr[o] <= (flit_count_arr[o] + 1);
        end
        if (((grant_val_arr[o] != 0) && ((!shadow_6[o]) != 0)) != 0) begin
          stall_count_arr[o] <= (stall_count_arr[o] + 1);
        end
      end
    end
  end

  reg shadow_7 [0:4];
  always @(*) begin
    shadow_7[0] = out_0__rdy;
    shadow_7[1] = out_1__rdy;
    shadow_7[2] = out_2__rdy;
    shadow_7[3] = out_3__rdy;
    shadow_7[4] = out_4__rdy;
  end
  integer o;
  integer priority_logic__k0;
  // priority_logic
  always @(posedge clk) begin
    if (reset != 0) begin
      for (priority_logic__k0 = 0; priority_logic__k0 < 5; priority_logic__k0 = priority_logic__k0 + 1) begin
        o = priority_logic__k0;
        priority_arr[o] <= 0;
        hold_val_arr[o] <= 0;
        hold_grant_arr[o] <= 0;
      end
    end else begin
      for (priority_logic__k0 = 0; priority_logic__k0 < 5; priority_logic__k0 = priority_logic__k0 + 1) begin
        o = priority_logic__k0;
        if (((grant_val_arr[o] != 0) && (shadow_7[o] != 0)) != 0) begin
          priority_arr[o] <= ((grant_arr[o] + 1) % 5);
        end
        if (((grant_val_arr[o] != 0) && ((!shadow_7[o]) != 0)) != 0) begin
          hold_val_arr[o] <= 1;
          hold_grant_arr[o] <= grant_arr[o];
        end else begin
          hold_val_arr[o] <= 0;
        end
      end
    end
  end
endmodule

module MeshNetworkStructural_c188bc3b
(
  input  wire clk,
  input  wire reset,
  input  wire [47:0] in__0__msg,
  input  wire in__0__val,
  input  wire [47:0] in__1__msg,
  input  wire in__1__val,
  input  wire [47:0] in__2__msg,
  input  wire in__2__val,
  input  wire [47:0] in__3__msg,
  input  wire in__3__val,
  input  wire [47:0] in__4__msg,
  input  wire in__4__val,
  input  wire [47:0] in__5__msg,
  input  wire in__5__val,
  input  wire [47:0] in__6__msg,
  input  wire in__6__val,
  input  wire [47:0] in__7__msg,
  input  wire in__7__val,
  input  wire [47:0] in__8__msg,
  input  wire in__8__val,
  input  wire [47:0] in__9__msg,
  input  wire in__9__val,
  input  wire [47:0] in__10__msg,
  input  wire in__10__val,
  input  wire [47:0] in__11__msg,
  input  wire in__11__val,
  input  wire [47:0] in__12__msg,
  input  wire in__12__val,
  input  wire [47:0] in__13__msg,
  input  wire in__13__val,
  input  wire [47:0] in__14__msg,
  input  wire in__14__val,
  input  wire [47:0] in__15__msg,
  input  wire in__15__val,
  input  wire out_0__rdy,
  input  wire out_1__rdy,
  input  wire out_2__rdy,
  input  wire out_3__rdy,
  input  wire out_4__rdy,
  input  wire out_5__rdy,
  input  wire out_6__rdy,
  input  wire out_7__rdy,
  input  wire out_8__rdy,
  input  wire out_9__rdy,
  input  wire out_10__rdy,
  input  wire out_11__rdy,
  input  wire out_12__rdy,
  input  wire out_13__rdy,
  input  wire out_14__rdy,
  input  wire out_15__rdy,
  output wire in__0__rdy,
  output wire in__1__rdy,
  output wire in__2__rdy,
  output wire in__3__rdy,
  output wire in__4__rdy,
  output wire in__5__rdy,
  output wire in__6__rdy,
  output wire in__7__rdy,
  output wire in__8__rdy,
  output wire in__9__rdy,
  output wire in__10__rdy,
  output wire in__11__rdy,
  output wire in__12__rdy,
  output wire in__13__rdy,
  output wire in__14__rdy,
  output wire in__15__rdy,
  output wire [47:0] out_0__msg,
  output wire out_0__val,
  output wire [47:0] out_1__msg,
  output wire out_1__val,
  output wire [47:0] out_2__msg,
  output wire out_2__val,
  output wire [47:0] out_3__msg,
  output wire out_3__val,
  output wire [47:0] out_4__msg,
  output wire out_4__val,
  output wire [47:0] out_5__msg,
  output wire out_5__val,
  output wire [47:0] out_6__msg,
  output wire out_6__val,
  output wire [47:0] out_7__msg,
  output wire out_7__val,
  output wire [47:0] out_8__msg,
  output wire out_8__val,
  output wire [47:0] out_9__msg,
  output wire out_9__val,
  output wire [47:0] out_10__msg,
  output wire out_10__val,
  output wire [47:0] out_11__msg,
  output wire out_11__val,
  output wire [47:0] out_12__msg,
  output wire out_12__val,
  output wire [47:0] out_13__msg,
  output wire out_13__val,
  output wire [47:0] out_14__msg,
  output wire out_14__val,
  output wire [47:0] out_15__msg,
  output wire out_15__val
);
  wire [47:0] net_1;
  wire net_2;
  wire net_3;
  wire [47:0] net_4;
  wire net_5;
  wire net_6;
  wire [47:0] net_7;
  wire net_8;
  wire net_9;
  wire [47:0] net_10;
  wire net_11;
  wire net_12;
  wire [47:0] net_13;
  wire net_14;
  wire net_15;
  wire [47:0] net_16;
  wire net_17;
  wire net_18;
  wire [47:0] net_19;
  wire net_20;
  wire net_21;
  wire [47:0] net_22;
  wire net_23;
  wire net_24;
  wire [47:0] net_25;
  wire net_26;
  wire net_27;
  wire [47:0] net_28;
  wire net_29;
  wire net_30;
  wire [47:0] net_31;
  wire net_32;
  wire net_33;
  wire [47:0] net_34;
  wire net_35;
  wire net_36;
  wire [47:0] net_37;
  wire net_38;
  wire net_39;
  wire [47:0] net_40;
  wire net_41;
  wire net_42;
  wire [47:0] net_43;
  wire net_44;
  wire net_45;
  wire [47:0] net_46;
  wire net_47;
  wire net_48;
  wire [47:0] net_49;
  wire net_50;
  wire net_51;
  wire [47:0] net_52;
  wire net_53;
  wire net_54;
  wire [47:0] net_55;
  wire net_56;
  wire net_57;
  wire [47:0] net_58;
  wire net_59;
  wire net_60;
  wire [47:0] net_61;
  wire net_62;
  wire net_63;
  wire [47:0] net_64;
  wire net_65;
  wire net_66;
  wire [47:0] net_67;
  wire net_68;
  wire net_69;
  wire [47:0] net_70;
  wire net_71;
  wire net_72;
  wire [47:0] net_73;
  wire net_74;
  wire net_75;
  wire [47:0] net_76;
  wire net_77;
  wire net_78;
  wire [47:0] net_79;
  wire net_80;
  wire net_81;
  wire [47:0] net_82;
  wire net_83;
  wire net_84;
  wire [47:0] net_85;
  wire net_86;
  wire net_87;
  wire [47:0] net_88;
  wire net_89;
  wire net_90;
  wire [47:0] net_91;
  wire net_92;
  wire net_93;
  wire [47:0] net_94;
  wire net_95;
  wire net_96;
  wire [47:0] net_97;
  wire net_98;
  wire net_99;
  wire [47:0] net_100;
  wire net_101;
  wire net_102;
  wire [47:0] net_103;
  wire net_104;
  wire net_105;
  wire [47:0] net_106;
  wire net_107;
  wire net_108;
  wire [47:0] net_109;
  wire net_110;
  wire net_111;
  wire [47:0] net_112;
  wire net_113;
  wire net_114;
  wire [47:0] net_115;
  wire net_116;
  wire net_117;
  wire [47:0] net_118;
  wire net_119;
  wire net_120;
  wire [47:0] net_121;
  wire net_122;
  wire net_123;
  wire [47:0] net_124;
  wire net_125;
  wire net_126;
  wire [47:0] net_127;
  wire net_128;
  wire net_129;
  wire [47:0] net_130;
  wire net_131;
  wire net_132;
  wire [47:0] net_133;
  wire net_134;
  wire net_135;
  wire [47:0] net_136;
  wire net_137;
  wire net_138;
  wire [47:0] net_139;
  wire net_140;
  wire net_141;
  wire [47:0] net_142;
  wire net_143;
  wire net_144;

  RouterRTL_4ca0efc7 #(.switch_logic_k5(0), .switch_logic_k8(0)) routers_0
  (
    .clk(clk),
    .reset(reset),
    .in__0__msg(in__0__msg),
    .in__0__val(in__0__val),
    .in__0__rdy(in__0__rdy),
    .in__1__msg(),
    .in__1__val(),
    .in__1__rdy(),
    .in__2__msg(net_4),
    .in__2__val(net_5),
    .in__2__rdy(net_6),
    .in__3__msg(net_10),
    .in__3__val(net_11),
    .in__3__rdy(net_12),
    .in__4__msg(),
    .in__4__val(),
    .in__4__rdy(),
    .out_0__msg(out_0__msg),
    .out_0__val(out_0__val),
    .out_0__rdy(out_0__rdy),
    .out_1__msg(),
    .out_1__val(),
    .out_1__rdy(),
    .out_2__msg(net_1),
    .out_2__val(net_2),
    .out_2__rdy(net_3),
    .out_3__msg(net_7),
    .out_3__val(net_8),
    .out_3__rdy(net_9),
    .out_4__msg(),
    .out_4__val(),
    .out_4__rdy()
  );

  RouterRTL_4ca0efc7 #(.switch_logic_k5(1), .switch_logic_k8(0)) routers_1
  (
    .clk(clk),
    .reset(reset),
    .in__0__msg(in__1__msg),
    .in__0__val(in__1__val),
    .in__0__rdy(in__1__rdy),
    .in__1__msg(),
    .in__1__val(),
    .in__1__rdy(),
    .in__2__msg(net_16),
    .in__2__val(net_17),
    .in__2__rdy(net_18),
    .in__3__msg(net_22),
    .in__3__val(net_23),
    .in__3__rdy(net_24),
    .in__4__msg(net_1),
    .in__4__val(net_2),
    .in__4__rdy(net_3),
    .out_0__msg(out_1__msg),
    .out_0__val(out_1__val),
    .out_0__rdy(out_1__rdy),
    .out_1__msg(),
    .out_1__val(),
    .out_1__rdy(),
    .out_2__msg(net_13),
    .out_2__val(net_14),
    .out_2__rdy(net_15),
    .out_3__msg(net_19),
    .out_3__val(net_20),
    .out_3__rdy(net_21),
    .out_4__msg(net_4),
    .out_4__val(net_5),
    .out_4__rdy(net_6)
  );

  RouterRTL_4ca0efc7 #(.switch_logic_k5(2), .switch_logic_k8(0)) routers_2
  (
    .clk(clk),
    .reset(reset),
    .in__0__msg(in__2__msg),
    .in__0__val(in__2__val),
    .in__0__rdy(in__2__rdy),
    .in__1__msg(),
    .in__1__val(),
    .in__1__rdy(),
    .in__2__msg(net_28),
    .in__2__val(net_29),
    .in__2__rdy(net_30),
    .in__3__msg(net_34),
    .in__3__val(net_35),
    .in__3__rdy(net_36),
    .in__4__msg(net_13),
    .in__4__val(net_14),
    .in__4__rdy(net_15),
    .out_0__msg(out_2__msg),
    .out_0__val(out_2__val),
    .out_0__rdy(out_2__rdy),
    .out_1__msg(),
    .out_1__val(),
    .out_1__rdy(),
    .out_2__msg(net_25),
    .out_2__val(net_26),
    .out_2__rdy(net_27),
    .out_3__msg(net_31),
    .out_3__val(net_32),
    .out_3__rdy(net_33),
    .out_4__msg(net_16),
    .out_4__val(net_17),
    .out_4__rdy(net_18)
  );

  RouterRTL_4ca0efc7 #(.switch_logic_k5(3), .switch_logic_k8(0)) routers_3
  (
    .clk(clk),
    .reset(reset),
    .in__0__msg(in__3__msg),
    .in__0__val(in__3__val),
    .in__0__rdy(in__3__rdy),
    .in__1__msg(),
    .in__1__val(),
    .in__1__rdy(),
    .in__2__msg(),
    .in__2__val(),
    .in__2__rdy(),
    .in__3__msg(net_40),
    .in__3__val(net_41),
    .in__3__rdy(net_42),
    .in__4__msg(net_25),
    .in__4__val(net_26),
    .in__4__rdy(net_27),
    .out_0__msg(out_3__msg),
    .out_0__val(out_3__val),
    .out_0__rdy(out_3__rdy),
    .out_1__msg(),
    .out_1__val(),
    .out_1__rdy(),
    .out_2__msg(),
    .out_2__val(),
    .out_2__rdy(),
    .out_3__msg(net_37),
    .out_3__val(net_38),
    .out_3__rdy(net_39),
    .out_4__msg(net_28),
    .out_4__val(net_29),
    .out_4__rdy(net_30)
  );

  RouterRTL_4ca0efc7 #(.switch_logic_k5(0), .switch_logic_k8(1)) routers_4
  (
    .clk(clk),
    .reset(reset),
    .in__0__msg(in__4__msg),
    .in__0__val(in__4__val),
    .in__0__rdy(in__4__rdy),
    .in__1__msg(net_7),
    .in__1__val(net_8),
    .in__1__rdy(net_9),
    .in__2__msg(net_46),
    .in__2__val(net_47),
    .in__2__rdy(net_48),
    .in__3__msg(net_52),
    .in__3__val(net_53),
    .in__3__rdy(net_54),
    .in__4__msg(),
    .in__4__val(),
    .in__4__rdy(),
    .out_0__msg(out_4__msg),
    .out_0__val(out_4__val),
    .out_0__rdy(out_4__rdy),
    .out_1__msg(net_10),
    .out_1__val(net_11),
    .out_1__rdy(net_12),
    .out_2__msg(net_43),
    .out_2__val(net_44),
    .out_2__rdy(net_45),
    .out_3__msg(net_49),
    .out_3__val(net_50),
    .out_3__rdy(net_51),
    .out_4__msg(),
    .out_4__val(),
    .out_4__rdy()
  );

  RouterRTL_4ca0efc7 #(.switch_logic_k5(1), .switch_logic_k8(1)) routers_5
  (
    .clk(clk),
    .reset(reset),
    .in__0__msg(in__5__msg),
    .in__0__val(in__5__val),
    .in__0__rdy(in__5__rdy),
    .in__1__msg(net_19),
    .in__1__val(net_20),
    .in__1__rdy(net_21),
    .in__2__msg(net_58),
    .in__2__val(net_59),
    .in__2__rdy(net_60),
    .in__3__msg(net_64),
    .in__3__val(net_65),
    .in__3__rdy(net_66),
    .in__4__msg(net_43),
    .in__4__val(net_44),
    .in__4__rdy(net_45),
    .out_0__msg(out_5__msg),
    .out_0__val(out_5__val),
    .out_0__rdy(out_5__rdy),
    .out_1__msg(net_22),
    .out_1__val(net_23),
    .out_1__rdy(net_24),
    .out_2__msg(net_55),
    .out_2__val(net_56),
    .out_2__rdy(net_57),
    .out_3__msg(net_61),
    .out_3__val(net_62),
    .out_3__rdy(net_63),
    .out_4__msg(net_46),
    .out_4__val(net_47),
    .out_4__rdy(net_48)
  );

  RouterRTL_4ca0efc7 #(.switch_logic_k5(2), .switch_logic_k8(1)) routers_6
  (
    .clk(clk),
    .reset(reset),
    .in__0__msg(in__6__msg),
    .in__0__val(in__6__val),
    .in__0__rdy(in__6__rdy),
    .in__1__msg(net_31),
    .in__1__val(net_32),
    .in__1__rdy(net_33),
    .in__2__msg(net_70),
    .in__2__val(net_71),
    .in__2__rdy(net_72),
    .in__3__msg(net_76),
    .in__3__val(net_77),
    .in__3__rdy(net_78),
    .in__4__msg(net_55),
    .in__4__val(net_56),
    .in__4__rdy(net_57),
    .out_0__msg(out_6__msg),
    .out_0__val(out_6__val),
    .out_0__rdy(out_6__rdy),
    .out_1__msg(net_34),
    .out_1__val(net_35),
    .out_1__rdy(net_36),
    .out_2__msg(net_67),
    .out_2__val(net_68),
    .out_2__rdy(net_69),
    .out_3__msg(net_73),
    .out_3__val(net_74),
    .out_3__rdy(net_75),
    .out_4__msg(net_58),
    .out_4__val(net_59),
    .out_4__rdy(net_60)
  );

  RouterRTL_4ca0efc7 #(.switch_logic_k5(3), .switch_logic_k8(1)) routers_7
  (
    .clk(clk),
    .reset(reset),
    .in__0__msg(in__7__msg),
    .in__0__val(in__7__val),
    .in__0__rdy(in__7__rdy),
    .in__1__msg(net_37),
    .in__1__val(net_38),
    .in__1__rdy(net_39),
    .in__2__msg(),
    .in__2__val(),
    .in__2__rdy(),
    .in__3__msg(net_82),
    .in__3__val(net_83),
    .in__3__rdy(net_84),
    .in__4__msg(net_67),
    .in__4__val(net_68),
    .in__4__rdy(net_69),
    .out_0__msg(out_7__msg),
    .out_0__val(out_7__val),
    .out_0__rdy(out_7__rdy),
    .out_1__msg(net_40),
    .out_1__val(net_41),
    .out_1__rdy(net_42),
    .out_2__msg(),
    .out_2__val(),
    .out_2__rdy(),
    .out_3__msg(net_79),
    .out_3__val(net_80),
    .out_3__rdy(net_81),
    .out_4__msg(net_70),
    .out_4__val(net_71),
    .out_4__rdy(net_72)
  );

  RouterRTL_4ca0efc7 #(.switch_logic_k5(0), .switch_logic_k8(2)) routers_8
  (
    .clk(clk),
    .reset(reset),
    .in__0__msg(in__8__msg),
    .in__0__val(in__8__val),
    .in__0__rdy(in__8__rdy),
    .in__1__msg(net_49),
    .in__1__val(net_50),
    .in__1__rdy(net_51),
    .in__2__msg(net_88),
    .in__2__val(net_89),
    .in__2__rdy(net_90),
    .in__3__msg(net_94),
    .in__3__val(net_95),
    .in__3__rdy(net_96),
    .in__4__msg(),
    .in__4__val(),
    .in__4__rdy(),
    .out_0__msg(out_8__msg),
    .out_0__val(out_8__val),
    .out_0__rdy(out_8__rdy),
    .out_1__msg(net_52),
    .out_1__val(net_53),
    .out_1__rdy(net_54),
    .out_2__msg(net_85),
    .out_2__val(net_86),
    .out_2__rdy(net_87),
    .out_3__msg(net_91),
    .out_3__val(net_92),
    .out_3__rdy(net_93),
    .out_4__msg(),
    .out_4__val(),
    .out_4__rdy()
  );

  RouterRTL_4ca0efc7 #(.switch_logic_k5(1), .switch_logic_k8(2)) routers_9
  (
    .clk(clk),
    .reset(reset),
    .in__0__msg(in__9__msg),
    .in__0__val(in__9__val),
    .in__0__rdy(in__9__rdy),
    .in__1__msg(net_61),
    .in__1__val(net_62),
    .in__1__rdy(net_63),
    .in__2__msg(net_100),
    .in__2__val(net_101),
    .in__2__rdy(net_102),
    .in__3__msg(net_106),
    .in__3__val(net_107),
    .in__3__rdy(net_108),
    .in__4__msg(net_85),
    .in__4__val(net_86),
    .in__4__rdy(net_87),
    .out_0__msg(out_9__msg),
    .out_0__val(out_9__val),
    .out_0__rdy(out_9__rdy),
    .out_1__msg(net_64),
    .out_1__val(net_65),
    .out_1__rdy(net_66),
    .out_2__msg(net_97),
    .out_2__val(net_98),
    .out_2__rdy(net_99),
    .out_3__msg(net_103),
    .out_3__val(net_104),
    .out_3__rdy(net_105),
    .out_4__msg(net_88),
    .out_4__val(net_89),
    .out_4__rdy(net_90)
  );

  RouterRTL_4ca0efc7 #(.switch_logic_k5(2), .switch_logic_k8(2)) routers_10
  (
    .clk(clk),
    .reset(reset),
    .in__0__msg(in__10__msg),
    .in__0__val(in__10__val),
    .in__0__rdy(in__10__rdy),
    .in__1__msg(net_73),
    .in__1__val(net_74),
    .in__1__rdy(net_75),
    .in__2__msg(net_112),
    .in__2__val(net_113),
    .in__2__rdy(net_114),
    .in__3__msg(net_118),
    .in__3__val(net_119),
    .in__3__rdy(net_120),
    .in__4__msg(net_97),
    .in__4__val(net_98),
    .in__4__rdy(net_99),
    .out_0__msg(out_10__msg),
    .out_0__val(out_10__val),
    .out_0__rdy(out_10__rdy),
    .out_1__msg(net_76),
    .out_1__val(net_77),
    .out_1__rdy(net_78),
    .out_2__msg(net_109),
    .out_2__val(net_110),
    .out_2__rdy(net_111),
    .out_3__msg(net_115),
    .out_3__val(net_116),
    .out_3__rdy(net_117),
    .out_4__msg(net_100),
    .out_4__val(net_101),
    .out_4__rdy(net_102)
  );

  RouterRTL_4ca0efc7 #(.switch_logic_k5(3), .switch_logic_k8(2)) routers_11
  (
    .clk(clk),
    .reset(reset),
    .in__0__msg(in__11__msg),
    .in__0__val(in__11__val),
    .in__0__rdy(in__11__rdy),
    .in__1__msg(net_79),
    .in__1__val(net_80),
    .in__1__rdy(net_81),
    .in__2__msg(),
    .in__2__val(),
    .in__2__rdy(),
    .in__3__msg(net_124),
    .in__3__val(net_125),
    .in__3__rdy(net_126),
    .in__4__msg(net_109),
    .in__4__val(net_110),
    .in__4__rdy(net_111),
    .out_0__msg(out_11__msg),
    .out_0__val(out_11__val),
    .out_0__rdy(out_11__rdy),
    .out_1__msg(net_82),
    .out_1__val(net_83),
    .out_1__rdy(net_84),
    .out_2__msg(),
    .out_2__val(),
    .out_2__rdy(),
    .out_3__msg(net_121),
    .out_3__val(net_122),
    .out_3__rdy(net_123),
    .out_4__msg(net_112),
    .out_4__val(net_113),
    .out_4__rdy(net_114)
  );

  RouterRTL_4ca0efc7 #(.switch_logic_k5(0), .switch_logic_k8(3)) routers_12
  (
    .clk(clk),
    .reset(reset),
    .in__0__msg(in__12__msg),
    .in__0__val(in__12__val),
    .in__0__rdy(in__12__rdy),
    .in__1__msg(net_91),
    .in__1__val(net_92),
    .in__1__rdy(net_93),
    .in__2__msg(net_130),
    .in__2__val(net_131),
    .in__2__rdy(net_132),
    .in__3__msg(),
    .in__3__val(),
    .in__3__rdy(),
    .in__4__msg(),
    .in__4__val(),
    .in__4__rdy(),
    .out_0__msg(out_12__msg),
    .out_0__val(out_12__val),
    .out_0__rdy(out_12__rdy),
    .out_1__msg(net_94),
    .out_1__val(net_95),
    .out_1__rdy(net_96),
    .out_2__msg(net_127),
    .out_2__val(net_128),
    .out_2__rdy(net_129),
    .out_3__msg(),
    .out_3__val(),
    .out_3__rdy(),
    .out_4__msg(),
    .out_4__val(),
    .out_4__rdy()
  );

  RouterRTL_4ca0efc7 #(.switch_logic_k5(1), .switch_logic_k8(3)) routers_13
  (
    .clk(clk),
    .reset(reset),
    .in__0__msg(in__13__msg),
    .in__0__val(in__13__val),
    .in__0__rdy(in__13__rdy),
    .in__1__msg(net_103),
    .in__1__val(net_104),
    .in__1__rdy(net_105),
    .in__2__msg(net_136),
    .in__2__val(net_137),
    .in__2__rdy(net_138),
    .in__3__msg(),
    .in__3__val(),
    .in__3__rdy(),
    .in__4__msg(net_127),
    .in__4__val(net_128),
    .in__4__rdy(net_129),
    .out_0__msg(out_13__msg),
    .out_0__val(out_13__val),
    .out_0__rdy(out_13__rdy),
    .out_1__msg(net_106),
    .out_1__val(net_107),
    .out_1__rdy(net_108),
    .out_2__msg(net_133),
    .out_2__val(net_134),
    .out_2__rdy(net_135),
    .out_3__msg(),
    .out_3__val(),
    .out_3__rdy(),
    .out_4__msg(net_130),
    .out_4__val(net_131),
    .out_4__rdy(net_132)
  );

  RouterRTL_4ca0efc7 #(.switch_logic_k5(2), .switch_logic_k8(3)) routers_14
  (
    .clk(clk),
    .reset(reset),
    .in__0__msg(in__14__msg),
    .in__0__val(in__14__val),
    .in__0__rdy(in__14__rdy),
    .in__1__msg(net_115),
    .in__1__val(net_116),
    .in__1__rdy(net_117),
    .in__2__msg(net_142),
    .in__2__val(net_143),
    .in__2__rdy(net_144),
    .in__3__msg(),
    .in__3__val(),
    .in__3__rdy(),
    .in__4__msg(net_133),
    .in__4__val(net_134),
    .in__4__rdy(net_135),
    .out_0__msg(out_14__msg),
    .out_0__val(out_14__val),
    .out_0__rdy(out_14__rdy),
    .out_1__msg(net_118),
    .out_1__val(net_119),
    .out_1__rdy(net_120),
    .out_2__msg(net_139),
    .out_2__val(net_140),
    .out_2__rdy(net_141),
    .out_3__msg(),
    .out_3__val(),
    .out_3__rdy(),
    .out_4__msg(net_136),
    .out_4__val(net_137),
    .out_4__rdy(net_138)
  );

  RouterRTL_4ca0efc7 #(.switch_logic_k5(3), .switch_logic_k8(3)) routers_15
  (
    .clk(clk),
    .reset(reset),
    .in__0__msg(in__15__msg),
    .in__0__val(in__15__val),
    .in__0__rdy(in__15__rdy),
    .in__1__msg(net_121),
    .in__1__val(net_122),
    .in__1__rdy(net_123),
    .in__2__msg(),
    .in__2__val(),
    .in__2__rdy(),
    .in__3__msg(),
    .in__3__val(),
    .in__3__rdy(),
    .in__4__msg(net_139),
    .in__4__val(net_140),
    .in__4__rdy(net_141),
    .out_0__msg(out_15__msg),
    .out_0__val(out_15__val),
    .out_0__rdy(out_15__rdy),
    .out_1__msg(net_124),
    .out_1__val(net_125),
    .out_1__rdy(net_126),
    .out_2__msg(),
    .out_2__val(),
    .out_2__rdy(),
    .out_3__msg(),
    .out_3__val(),
    .out_3__rdy(),
    .out_4__msg(net_142),
    .out_4__val(net_143),
    .out_4__rdy(net_144)
  );
endmodule