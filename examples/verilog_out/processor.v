//----------------------------------------------------------------------
// Generated by repro.TranslationTool
// Top module: ProcRTL_fc971021
//----------------------------------------------------------------------

module ProcRTL_fc971021
(
  input  wire clk,
  input  wire reset,
  input  wire imem_ifc__req__rdy,
  input  wire [32:0] imem_ifc__resp__msg,
  input  wire imem_ifc__resp__val,
  input  wire dmem_ifc__req__rdy,
  input  wire [32:0] dmem_ifc__resp__msg,
  input  wire dmem_ifc__resp__val,
  input  wire xcel_ifc__req__rdy,
  input  wire [31:0] xcel_ifc__resp__msg,
  input  wire xcel_ifc__resp__val,
  output reg  [64:0] imem_ifc__req__msg,
  output reg  imem_ifc__req__val,
  output reg  imem_ifc__resp__rdy,
  output reg  [64:0] dmem_ifc__req__msg,
  output reg  dmem_ifc__req__val,
  output reg  dmem_ifc__resp__rdy,
  output reg  [34:0] xcel_ifc__req__msg,
  output reg  xcel_ifc__req__val,
  output reg  xcel_ifc__resp__rdy,
  output reg  done
);
  reg  [31:0] pc;
  reg  [31:0] ir;
  reg  [2:0] state;
  reg  mem_type;
  reg  [31:0] mem_addr;
  reg  [31:0] mem_wdata;
  reg  [2:0] xcel_ctrl;
  reg  [31:0] xcel_data;
  reg  [4:0] wb_reg;
  reg  xcel_wait_resp;
  reg  [31:0] instret;
  reg [31:0] rf_arr [0:31];

  integer state;
  // comb_logic
  always @(*) begin
    state = state;
    if (reset != 0) begin
      state = (-1);
    end
    done = (state == 7);
    imem_ifc__req__val = (state == 0);
    imem_ifc__req__msg[64] = 0;
    imem_ifc__req__msg[63:32] = pc;
    imem_ifc__req__msg[31:0] = 0;
    imem_ifc__resp__rdy = (state == 1);
    dmem_ifc__req__val = (state == 3);
    dmem_ifc__req__msg[64] = mem_type;
    dmem_ifc__req__msg[63:32] = mem_addr;
    dmem_ifc__req__msg[31:0] = mem_wdata;
    dmem_ifc__resp__rdy = (state == 4);
    xcel_ifc__req__val = (state == 5);
    xcel_ifc__req__msg[34:32] = xcel_ctrl;
    xcel_ifc__req__msg[31:0] = xcel_data;
    xcel_ifc__resp__rdy = (state == 6);
  end

  integer i;
  integer ir;
  integer opcode;
  integer rd;
  integer rs1;
  integer rs2;
  integer imm;
  integer imm26;
  integer a;
  integer b;
  integer pc;
  integer next_pc;
  integer next_state;
  integer sa;
  integer sb;
  integer rt;
  integer srt;
  integer wb_val;
  integer seq_logic__k0;
  // seq_logic
  always @(posedge clk) begin
    if (reset != 0) begin
      state <= 0;
      pc <= 0;
      instret <= 0;
      for (seq_logic__k0 = 0; seq_logic__k0 < 32; seq_logic__k0 = seq_logic__k0 + 1) begin
        i = seq_logic__k0;
        rf_arr[i] <= 0;
      end
    end else begin
      if ((state == 0) != 0) begin
        if (imem_ifc__req__rdy != 0) begin
          state <= 1;
        end
      end else begin
        if ((state == 1) != 0) begin
          if (imem_ifc__resp__val != 0) begin
            ir <= imem_ifc__resp__msg[31:0];
            state <= 2;
          end
        end else begin
          if ((state == 2) != 0) begin
            instret <= (instret + 1);
            ir = ir;
            opcode = ((ir >> 26) & 63);
            rd = ((ir >> 21) & 31);
            rs1 = ((ir >> 16) & 31);
            rs2 = ((ir >> 11) & 31);
            imm = (ir & 65535);
            if ((imm >= 32768) != 0) begin
              imm = (imm - 65536);
            end
            imm26 = (ir & 67108863);
            a = rf_arr[rs1];
            b = rf_arr[rs2];
            pc = pc;
            next_pc = ((pc + 4) & 4294967295);
            next_state = 0;
            sa = (((a >= 2147483648)) ? (a - 4294967296) : a);
            sb = (((b >= 2147483648)) ? (b - 4294967296) : b);
            rt = rf_arr[rd];
            srt = (((rt >= 2147483648)) ? (rt - 4294967296) : rt);
            wb_val = (-1);
            if ((opcode == 0) != 0) begin
              wb_val = ((a + b) & 4294967295);
            end else begin
              if ((opcode == 1) != 0) begin
                wb_val = ((a - b) & 4294967295);
              end else begin
                if ((opcode == 2) != 0) begin
                  wb_val = (a & b);
                end else begin
                  if ((opcode == 3) != 0) begin
                    wb_val = (a | b);
                  end else begin
                    if ((opcode == 4) != 0) begin
                      wb_val = (a ^ b);
                    end else begin
                      if ((opcode == 5) != 0) begin
                        wb_val = (((sa < sb)) ? 1 : 0);
                      end else begin
                        if ((opcode == 6) != 0) begin
                          wb_val = (((a < b)) ? 1 : 0);
                        end else begin
                          if ((opcode == 7) != 0) begin
                            wb_val = ((a << (b & 31)) & 4294967295);
                          end else begin
                            if ((opcode == 8) != 0) begin
                              wb_val = (a >> (b & 31));
                            end else begin
                              if ((opcode == 9) != 0) begin
                                wb_val = ((sa >> (b & 31)) & 4294967295);
                              end else begin
                                if ((opcode == 10) != 0) begin
                                  wb_val = ((a * b) & 4294967295);
                                end else begin
                                  if ((opcode == 16) != 0) begin
                                    wb_val = ((a + imm) & 4294967295);
                                  end else begin
                                    if ((opcode == 17) != 0) begin
                                      wb_val = (a & (imm & 65535));
                                    end else begin
                                      if ((opcode == 18) != 0) begin
                                        wb_val = (a | (imm & 65535));
                                      end else begin
                                        if ((opcode == 19) != 0) begin
                                          wb_val = (a ^ (imm & 65535));
                                        end else begin
                                          if ((opcode == 20) != 0) begin
                                            wb_val = (((sa < imm)) ? 1 : 0);
                                          end else begin
                                            if ((opcode == 21) != 0) begin
                                              wb_val = ((a << (imm & 31)) & 4294967295);
                                            end else begin
                                              if ((opcode == 22) != 0) begin
                                                wb_val = (a >> (imm & 31));
                                              end else begin
                                                if ((opcode == 23) != 0) begin
                                                  wb_val = ((imm << 16) & 4294967295);
                                                end else begin
                                                  if ((opcode == 32) != 0) begin
                                                    mem_type <= 0;
                                                    mem_addr <= ((a + imm) & 4294967295);
                                                    wb_reg <= rd;
                                                    next_state = 3;
                                                  end else begin
                                                    if ((opcode == 33) != 0) begin
                                                      mem_type <= 1;
                                                      mem_addr <= ((a + imm) & 4294967295);
                                                      mem_wdata <= rt;
                                                      next_state = 3;
                                                    end else begin
                                                      if ((opcode == 48) != 0) begin
                                                        if ((a == rt) != 0) begin
                                                          next_pc = (((pc + 4) + (imm * 4)) & 4294967295);
                                                        end
                                                      end else begin
                                                        if ((opcode == 49) != 0) begin
                                                          if ((a != rt) != 0) begin
                                                            next_pc = (((pc + 4) + (imm * 4)) & 4294967295);
                                                          end
                                                        end else begin
                                                          if ((opcode == 50) != 0) begin
                                                            if ((sa < srt) != 0) begin
                                                              next_pc = (((pc + 4) + (imm * 4)) & 4294967295);
                                                            end
                                                          end else begin
                                                            if ((opcode == 51) != 0) begin
                                                              if ((sa >= srt) != 0) begin
                                                                next_pc = (((pc + 4) + (imm * 4)) & 4294967295);
                                                              end
                                                            end else begin
                                                              if ((opcode == 52) != 0) begin
                                                                next_pc = ((imm26 * 4) & 4294967295);
                                                              end else begin
                                                                if ((opcode == 53) != 0) begin
                                                                  rf_arr[31] <= ((pc + 4) & 4294967295);
                                                                  next_pc = ((imm26 * 4) & 4294967295);
                                                                end else begin
                                                                  if ((opcode == 54) != 0) begin
                                                                    next_pc = a;
                                                                  end else begin
                                                                    if ((opcode == 56) != 0) begin
                                                                      xcel_ctrl <= (imm & 7);
                                                                      xcel_data <= a;
                                                                      wb_reg <= rd;
                                                                      xcel_wait_resp <= ((((imm & 7) == 0)) ? 1 : 0);
                                                                      next_state = 5;
                                                                    end else begin
                                                                      if ((opcode == 63) != 0) begin
                                                                        next_state = 7;
                                                                      end
                                                                    end
                                                                  end
                                                                end
                                                              end
                                                            end
                                                          end
                                                        end
                                                      end
                                                    end
                                                  end
                                                end
                                              end
                                            end
                                          end
                                        end
                                      end
                                    end
                                  end
                                end
                              end
                            end
                          end
                        end
                      end
                    end
                  end
                end
              end
            end
            if ((((wb_val >= 0) != 0) && ((rd != 0) != 0)) != 0) begin
              rf_arr[rd] <= wb_val;
            end
            pc <= next_pc;
            state <= next_state;
          end else begin
            if ((state == 3) != 0) begin
              if (dmem_ifc__req__rdy != 0) begin
                state <= 4;
              end
            end else begin
              if ((state == 4) != 0) begin
                if (dmem_ifc__resp__val != 0) begin
                  if ((((mem_type == 0) != 0) && ((wb_reg != 0) != 0)) != 0) begin
                    rf_arr[wb_reg] <= dmem_ifc__resp__msg[31:0];
                  end
                  state <= 0;
                end
              end else begin
                if ((state == 5) != 0) begin
                  if (xcel_ifc__req__rdy != 0) begin
                    if (xcel_wait_resp != 0) begin
                      state <= 6;
                    end else begin
                      state <= 0;
                    end
                  end
                end else begin
                  if ((state == 6) != 0) begin
                    if (xcel_ifc__resp__val != 0) begin
                      if ((wb_reg != 0) != 0) begin
                        rf_arr[wb_reg] <= xcel_ifc__resp__msg[31:0];
                      end
                      state <= 0;
                    end
                  end
                end
              end
            end
          end
        end
      end
    end
  end
endmodule