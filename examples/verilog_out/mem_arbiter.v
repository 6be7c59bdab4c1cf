//----------------------------------------------------------------------
// Generated by repro.TranslationTool
// Top module: MemArbiter_fd221363
//----------------------------------------------------------------------

module MemArbiter_fd221363
(
  input  wire clk,
  input  wire reset,
  input  wire [64:0] clients_0__req__msg,
  input  wire clients_0__req__val,
  input  wire clients_0__resp__rdy,
  input  wire [64:0] clients_1__req__msg,
  input  wire clients_1__req__val,
  input  wire clients_1__resp__rdy,
  input  wire mem_ifc__req__rdy,
  input  wire [32:0] mem_ifc__resp__msg,
  input  wire mem_ifc__resp__val,
  output reg  clients_0__req__rdy,
  output reg  [32:0] clients_0__resp__msg,
  output reg  clients_0__resp__val,
  output reg  clients_1__req__rdy,
  output reg  [32:0] clients_1__resp__msg,
  output reg  clients_1__resp__val,
  output reg  [64:0] mem_ifc__req__msg,
  output reg  mem_ifc__req__val,
  output reg  mem_ifc__resp__rdy
);
  reg  owner;
  reg  [3:0] count;
  reg  last_grant;

  reg shadow_0 [0:1];
  assign clients_0__req__rdy = shadow_0[0];
  assign clients_1__req__rdy = shadow_0[1];
  reg shadow_1 [0:1];
  assign clients_0__resp__val = shadow_1[0];
  assign clients_1__resp__val = shadow_1[1];
  reg shadow_2 [0:1];
  always @(*) begin
    shadow_2[0] = clients_0__req__val;
    shadow_2[1] = clients_1__req__val;
  end
  reg [32:0] shadow_3 [0:1];
  assign clients_0__resp__msg = shadow_3[0];
  assign clients_1__resp__msg = shadow_3[1];
  reg [64:0] shadow_4 [0:1];
  always @(*) begin
    shadow_4[0] = clients_0__req__msg;
    shadow_4[1] = clients_1__req__msg;
  end
  reg shadow_5 [0:1];
  always @(*) begin
    shadow_5[0] = clients_0__resp__rdy;
    shadow_5[1] = clients_1__resp__rdy;
  end
  integer i;
  integer busy;
  integer grant;
  integer can_issue;
  integer arb_comb__k0;
  // arb_comb
  always @(*) begin
    if (reset != 0) begin
      mem_ifc__req__val = 0;
      mem_ifc__resp__rdy = 0;
      for (arb_comb__k0 = 0; arb_comb__k0 < 2; arb_comb__k0 = arb_comb__k0 + 1) begin
        i = arb_comb__k0;
        shadow_0[i] = 0;
        shadow_1[i] = 0;
      end
    end else begin
      busy = (count != 0);
      if (busy != 0) begin
        grant = owner;
      end else begin
        if (shadow_2[(last_grant ^ 1)] != 0) begin
          grant = (last_grant ^ 1);
        end else begin
          grant = last_grant;
        end
      end
      can_issue = (count < 3);
      for (arb_comb__k0 = 0; arb_comb__k0 < 2; arb_comb__k0 = arb_comb__k0 + 1) begin
        i = arb_comb__k0;
        if ((i == grant) != 0) begin
          shadow_0[i] = ((mem_ifc__req__rdy != 0) && (can_issue != 0));
          shadow_1[i] = mem_ifc__resp__val;
        end else begin
          shadow_0[i] = 0;
          shadow_1[i] = 0;
        end
        shadow_3[i] = mem_ifc__resp__msg;
      end
      mem_ifc__req__val = ((shadow_2[grant] != 0) && (can_issue != 0));
      mem_ifc__req__msg = shadow_4[grant];
      mem_ifc__resp__rdy = shadow_5[grant];
    end
  end

  reg shadow_6 [0:1];
  always @(*) begin
    shadow_6[0] = clients_0__req__val;
    shadow_6[1] = clients_1__req__val;
  end
  integer busy;
  integer grant;
  integer req_fire;
  integer resp_fire;
  integer delta;
  // arb_seq
  always @(posedge clk) begin
    if (reset != 0) begin
      owner <= 0;
      count <= 0;
      last_grant <= 0;
    end else begin
      busy = (count != 0);
      if (busy != 0) begin
        grant = owner;
      end else begin
        if (shadow_6[(last_grant ^ 1)] != 0) begin
          grant = (last_grant ^ 1);
        end else begin
          grant = last_grant;
        end
      end
      req_fire = ((mem_ifc__req__val != 0) && (mem_ifc__req__rdy != 0));
      resp_fire = ((mem_ifc__resp__val != 0) && (mem_ifc__resp__rdy != 0));
      delta = (((req_fire) ? 1 : 0) - ((resp_fire) ? 1 : 0));
      count <= (count + delta);
      if (req_fire != 0) begin
        owner <= grant;
        last_grant <= grant;
      end
    end
  end
endmodule