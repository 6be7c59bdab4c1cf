//----------------------------------------------------------------------
// Generated by repro.TranslationTool
// Top module: DotProductRTL_e22974f8
//----------------------------------------------------------------------

module IntPipelinedMultiplier_851ebdae
(
  input  wire clk,
  input  wire reset,
  input  wire [31:0] op_a,
  input  wire [31:0] op_b,
  output reg  [31:0] product
);
  reg [31:0] stage_arr [0:3];

  // comb_logic
  always @(*) begin
    product = stage_arr[3];
  end

  integer i;
  integer seq_logic__k0;
  // seq_logic
  always @(posedge clk) begin
    stage_arr[0] <= (op_a * op_b);
    for (seq_logic__k0 = 1; seq_logic__k0 < 4; seq_logic__k0 = seq_logic__k0 + 1) begin
      i = seq_logic__k0;
      stage_arr[i] <= stage_arr[(i - 1)];
    end
  end
endmodule

module DotProductDpath_d8249f41
(
  input  wire clk,
  input  wire reset,
  input  wire [34:0] cpu_ifc__req__msg,
  input  wire cpu_ifc__req__val,
  input  wire cpu_ifc__resp__rdy,
  input  wire mem_ifc__req__rdy,
  input  wire [32:0] mem_ifc__resp__msg,
  input  wire mem_ifc__resp__val,
  input  wire [4:0] cs,
  output wire cpu_ifc__req__rdy,
  output reg  [31:0] cpu_ifc__resp__msg,
  output wire cpu_ifc__resp__val,
  output reg  [64:0] mem_ifc__req__msg,
  output wire mem_ifc__req__val,
  output wire mem_ifc__resp__rdy,
  output reg  [3:0] ss
);
  reg  [31:0] size;
  reg  [31:0] src0_addr_M;
  reg  [31:0] src1_addr_M;
  reg  [31:0] sent;
  reg  [31:0] got;
  reg  go_r;
  reg  [31:0] src0_data_R;
  reg  [31:0] src1_data_R;
  wire [31:0] result_X;
  reg  [31:0] accum_A;
  reg  [31:0] accum_out;
  reg  [31:0] acc_count;

  IntPipelinedMultiplier_851ebdae mul
  (
    .clk(clk),
    .reset(reset),
    .op_a(src0_data_R),
    .op_b(src1_data_R),
    .product(result_X)
  );

  integer base_addr_M;
  // stage_comb_M
  always @(*) begin
    if ((sent & 1) != 0) begin
      base_addr_M = src1_addr_M;
    end else begin
      base_addr_M = src0_addr_M;
    end
    mem_ifc__req__msg[64] = 0;
    mem_ifc__req__msg[63:32] = ((base_addr_M + ((sent >> 1) << 2)) & 4294967295);
    mem_ifc__req__msg[31:0] = 0;
    ss[2] = (sent == (size << 1));
    ss[1] = (got & 1);
    ss[3] = go_r;
  end

  // stage_comb_A
  always @(*) begin
    accum_out = ((result_X + accum_A) & 4294967295);
    cpu_ifc__resp__msg[31:0] = accum_A;
    ss[0] = (acc_count == size);
  end

  integer go_next;
  integer ctrl_msg;
  integer cpu_data;
  // stage_seq_M
  always @(posedge clk) begin
    go_next = 0;
    if (cs[4] != 0) begin
      ctrl_msg = cpu_ifc__req__msg[34:32];
      cpu_data = cpu_ifc__req__msg[31:0];
      if ((ctrl_msg == 1) != 0) begin
        size <= cpu_data;
      end else begin
        if ((ctrl_msg == 2) != 0) begin
          src0_addr_M <= cpu_data;
        end else begin
          if ((ctrl_msg == 3) != 0) begin
            src1_addr_M <= cpu_data;
          end else begin
            if ((ctrl_msg == 0) != 0) begin
              go_next = 1;
            end
          end
        end
      end
    end
    go_r <= go_next;
    if (cs[3] != 0) begin
      sent <= 0;
      got <= 0;
    end else begin
      if (cs[2] != 0) begin
        sent <= (sent + 1);
      end
      if (cs[1] != 0) begin
        got <= (got + 1);
      end
    end
  end

  // stage_seq_R
  always @(posedge clk) begin
    if (cs[1] != 0) begin
      if ((got & 1) != 0) begin
        src1_data_R <= mem_ifc__resp__msg[31:0];
      end else begin
        src0_data_R <= mem_ifc__resp__msg[31:0];
      end
    end
  end

  // stage_seq_A
  always @(posedge clk) begin
    if (((reset != 0) || (cs[3] != 0)) != 0) begin
      accum_A <= 0;
      acc_count <= 0;
    end else begin
      if (cs[0] != 0) begin
        accum_A <= accum_out;
        acc_count <= (acc_count + 1);
      end
    end
  end
endmodule

module DotProductCtrl_0e97678c
(
  input  wire clk,
  input  wire reset,
  input  wire [34:0] cpu_ifc__req__msg,
  input  wire cpu_ifc__req__val,
  input  wire cpu_ifc__resp__rdy,
  input  wire mem_ifc__req__rdy,
  input  wire [32:0] mem_ifc__resp__msg,
  input  wire mem_ifc__resp__val,
  input  wire [3:0] ss,
  output reg  cpu_ifc__req__rdy,
  output wire [31:0] cpu_ifc__resp__msg,
  output reg  cpu_ifc__resp__val,
  output wire [64:0] mem_ifc__req__msg,
  output reg  mem_ifc__req__val,
  output reg  mem_ifc__resp__rdy,
  output reg  [4:0] cs
);
  reg  [1:0] state;
  reg  [4:0] valid;

  integer state;
  integer idle;
  integer run;
  // ctrl_comb
  always @(*) begin
    state = state;
    if (reset != 0) begin
      state = (-1);
    end
    idle = (state == 0);
    run = (state == 1);
    cpu_ifc__req__rdy = idle;
    cpu_ifc__resp__val = (state == 2);
    mem_ifc__req__val = ((run != 0) && ((!ss[2]) != 0));
    mem_ifc__resp__rdy = run;
    cs[4] = ((idle != 0) && (cpu_ifc__req__val != 0));
    cs[3] = idle;
    cs[2] = ((mem_ifc__req__val != 0) && (mem_ifc__req__rdy != 0));
    cs[1] = ((mem_ifc__resp__val != 0) && (mem_ifc__resp__rdy != 0));
    cs[0] = ((valid >> 4) & 1);
  end

  integer pair_in;
  // ctrl_seq
  always @(posedge clk) begin
    if (reset != 0) begin
      state <= 0;
      valid <= 0;
    end else begin
      if ((state == 0) != 0) begin
        valid <= 0;
        if (ss[3] != 0) begin
          state <= 1;
        end
      end else begin
        if ((state == 1) != 0) begin
          pair_in = ((cs[1] != 0) && (ss[1] != 0));
          valid <= ((valid << 1) | ((pair_in) ? 1 : 0));
          if (ss[0] != 0) begin
            state <= 2;
          end
        end else begin
          if ((state == 2) != 0) begin
            if (((cpu_ifc__resp__val != 0) && (cpu_ifc__resp__rdy != 0)) != 0) begin
              state <= 0;
            end
          end
        end
      end
    end
  end
endmodule

module DotProductRTL_e22974f8
(
  input  wire clk,
  input  wire reset,
  input  wire [34:0] cpu_ifc__req__msg,
  input  wire cpu_ifc__req__val,
  input  wire cpu_ifc__resp__rdy,
  input  wire mem_ifc__req__rdy,
  input  wire [32:0] mem_ifc__resp__msg,
  input  wire mem_ifc__resp__val,
  output wire cpu_ifc__req__rdy,
  output wire [31:0] cpu_ifc__resp__msg,
  output wire cpu_ifc__resp__val,
  output wire [64:0] mem_ifc__req__msg,
  output wire mem_ifc__req__val,
  output wire mem_ifc__resp__rdy
);
  reg  [31:0] op_count;
  reg  [31:0] mem_read_count;
  wire [4:0] net_1;
  wire [3:0] net_2;

  DotProductDpath_d8249f41 dpath
  (
    .clk(clk),
    .reset(reset),
    .cpu_ifc__req__msg(cpu_ifc__req__msg),
    .cpu_ifc__req__val(cpu_ifc__req__val),
    .cpu_ifc__req__rdy(cpu_ifc__req__rdy),
    .cpu_ifc__resp__msg(cpu_ifc__resp__msg),
    .cpu_ifc__resp__val(cpu_ifc__resp__val),
    .cpu_ifc__resp__rdy(cpu_ifc__resp__rdy),
    .mem_ifc__req__msg(mem_ifc__req__msg),
    .mem_ifc__req__val(mem_ifc__req__val),
    .mem_ifc__req__rdy(mem_ifc__req__rdy),
    .mem_ifc__resp__msg(mem_ifc__resp__msg),
    .mem_ifc__resp__val(mem_ifc__resp__val),
    .mem_ifc__resp__rdy(mem_ifc__resp__rdy),
    .cs(net_1),
    .ss(net_2)
  );

  DotProductCtrl_0e97678c ctrl
  (
    .clk(clk),
    .reset(reset),
    .cpu_ifc__req__msg(cpu_ifc__req__msg),
    .cpu_ifc__req__val(cpu_ifc__req__val),
    .cpu_ifc__req__rdy(cpu_ifc__req__rdy),
    .cpu_ifc__resp__msg(cpu_ifc__resp__msg),
    .cpu_ifc__resp__val(cpu_ifc__resp__val),
    .cpu_ifc__resp__rdy(cpu_ifc__resp__rdy),
    .mem_ifc__req__msg(mem_ifc__req__msg),
    .mem_ifc__req__val(mem_ifc__req__val),
    .mem_ifc__req__rdy(mem_ifc__req__rdy),
    .mem_ifc__resp__msg(mem_ifc__resp__msg),
    .mem_ifc__resp__val(mem_ifc__resp__val),
    .mem_ifc__resp__rdy(mem_ifc__resp__rdy),
    .cs(net_1),
    .ss(net_2)
  );

  // telemetry_logic
  always @(posedge clk) begin
    if (reset != 0) begin
      op_count <= 0;
      mem_read_count <= 0;
    end else begin
      if (((cpu_ifc__resp__val != 0) && (cpu_ifc__resp__rdy != 0)) != 0) begin
        op_count <= (op_count + 1);
      end
      if (((mem_ifc__req__val != 0) && (mem_ifc__req__rdy != 0)) != 0) begin
        mem_read_count <= (mem_read_count + 1);
      end
    end
  end
endmodule