//----------------------------------------------------------------------
// Generated by repro.TranslationTool
// Top module: RouterRTL_19245209
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

module RouterRTL_19245209
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
      if ((dest_x > 1) != 0) begin
        routes[i] = 2;
      end else begin
        if ((dest_x < 1) != 0) begin
          routes[i] = 4;
        end else begin
          if ((dest_y > 1) != 0) begin
            routes[i] = 3;
          end else begin
            if ((dest_y < 1) != 0) begin
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