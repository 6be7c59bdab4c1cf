//----------------------------------------------------------------------
// Generated by repro.TranslationTool
// Top module: IntPipelinedMultiplier_851ebdae
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