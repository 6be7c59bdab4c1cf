//----------------------------------------------------------------------
// Generated by repro.TranslationTool
// Top module: RoundRobinArbiter_520a2913
//----------------------------------------------------------------------

module RoundRobinArbiter_520a2913
(
  input  wire clk,
  input  wire reset,
  input  wire [3:0] reqs,
  output reg  [3:0] grants
);
  reg  [1:0] priority;

  integer reqs;
  integer grants;
  integer start;
  integer i;
  integer idx;
  integer arb_logic__k0;
  // arb_logic
  always @(*) begin
    reqs = reqs;
    grants = 0;
    start = priority;
    for (arb_logic__k0 = 0; arb_logic__k0 < 4; arb_logic__k0 = arb_logic__k0 + 1) begin
      i = arb_logic__k0;
      idx = ((start + i) % 4);
      if ((((grants == 0) != 0) && (((reqs >> idx) & 1) != 0)) != 0) begin
        grants = (1 << idx);
      end
    end
    grants = grants;
  end

  integer grants;
  integer winner;
  integer i;
  integer seq_logic__k0;
  // seq_logic
  always @(posedge clk) begin
    if (reset != 0) begin
      priority <= 0;
    end else begin
      grants = grants;
      if (grants != 0) begin
        winner = 0;
        for (seq_logic__k0 = 0; seq_logic__k0 < 4; seq_logic__k0 = seq_logic__k0 + 1) begin
          i = seq_logic__k0;
          if (((grants >> i) & 1) != 0) begin
            winner = i;
          end
        end
        priority <= ((winner + 1) % 4);
      end
    end
  end
endmodule