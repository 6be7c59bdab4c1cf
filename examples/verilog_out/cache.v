//----------------------------------------------------------------------
// Generated by repro.TranslationTool
// Top module: CacheRTL_71c5c86c
//----------------------------------------------------------------------

module CacheRTL_71c5c86c
(
  input  wire clk,
  input  wire reset,
  input  wire [64:0] cpu_ifc__req__msg,
  input  wire cpu_ifc__req__val,
  input  wire cpu_ifc__resp__rdy,
  input  wire mem_ifc__req__rdy,
  input  wire [32:0] mem_ifc__resp__msg,
  input  wire mem_ifc__resp__val,
  output reg  cpu_ifc__req__rdy,
  output reg  [32:0] cpu_ifc__resp__msg,
  output reg  cpu_ifc__resp__val,
  output reg  [64:0] mem_ifc__req__msg,
  output reg  mem_ifc__req__val,
  output reg  mem_ifc__resp__rdy
);
  reg  [2:0] state;
  reg  req_type;
  reg  [31:0] req_addr;
  reg  [31:0] req_data;
  reg  [5:0] victim_line;
  reg  [2:0] sent;
  reg  [2:0] got;
  reg  [31:0] resp_data;
  reg  resp_type;
  reg  [31:0] access_count;
  reg  [31:0] miss_count;
  reg  [31:0] evict_count;
  reg  [31:0] wb_count;
  reg valid_arr [0:63];
  reg [21:0] tags_arr [0:63];
  reg [31:0] data_arr [0:255];
  reg lru_arr [0:63];

  integer state;
  integer line_base;
  // comb_logic
  always @(*) begin
    state = state;
    if (reset != 0) begin
      state = (-1);
    end
    cpu_ifc__req__rdy = (state == 0);
    cpu_ifc__resp__val = (state == 4);
    cpu_ifc__resp__msg[32] = resp_type;
    cpu_ifc__resp__msg[31:0] = resp_data;
    if ((state == 1) != 0) begin
      line_base = (req_addr & (~(16 - 1)));
      mem_ifc__req__val = (sent < 4);
      mem_ifc__req__msg[64] = 0;
      mem_ifc__req__msg[63:32] = (line_base + (4 * sent));
      mem_ifc__req__msg[31:0] = 0;
      mem_ifc__resp__rdy = 1;
    end else begin
      if ((state == 2) != 0) begin
        mem_ifc__req__val = 1;
        mem_ifc__req__msg[64] = 1;
        mem_ifc__req__msg[63:32] = req_addr;
        mem_ifc__req__msg[31:0] = req_data;
        mem_ifc__resp__rdy = 0;
      end else begin
        if ((state == 3) != 0) begin
          mem_ifc__req__val = 0;
          mem_ifc__resp__rdy = 1;
        end else begin
          mem_ifc__req__val = 0;
          mem_ifc__resp__rdy = 0;
        end
      end
    end
  end

  // telemetry_logic
  always @(posedge clk) begin
    if (reset != 0) begin
      evict_count <= 0;
      wb_count <= 0;
    end else begin
      if ((((state == 1) != 0) && (mem_ifc__resp__val != 0) && (mem_ifc__resp__rdy != 0) && ((got == (4 - 1)) != 0) && (valid_arr[victim_line] != 0)) != 0) begin
        evict_count <= (evict_count + 1);
      end
      if ((((state == 2) != 0) && (mem_ifc__req__val != 0) && (mem_ifc__req__rdy != 0)) != 0) begin
        wb_count <= (wb_count + 1);
      end
    end
  end

  integer i;
  integer addr;
  integer idx;
  integer tag;
  integer word;
  integer hit_way;
  integer w;
  integer line;
  integer hit_line;
  integer victim;
  integer got;
  integer seq_logic__k0;
  // seq_logic
  always @(posedge clk) begin
    if (reset != 0) begin
      state <= 0;
      access_count <= 0;
      miss_count <= 0;
      for (seq_logic__k0 = 0; seq_logic__k0 < 64; seq_logic__k0 = seq_logic__k0 + 1) begin
        i = seq_logic__k0;
        valid_arr[i] <= 0;
      end
      for (seq_logic__k0 = 0; seq_logic__k0 < 64; seq_logic__k0 = seq_logic__k0 + 1) begin
        i = seq_logic__k0;
        lru_arr[i] <= 0;
      end
    end else begin
      if ((state == 0) != 0) begin
        if (((cpu_ifc__req__val != 0) && (cpu_ifc__req__rdy != 0)) != 0) begin
          access_count <= (access_count + 1);
          addr = cpu_ifc__req__msg[63:32];
          idx = ((addr >> 4) & (64 - 1));
          tag = (addr >> (4 + 6));
          word = ((addr >> 2) & (4 - 1));
          hit_way = (-1);
          for (seq_logic__k0 = 0; seq_logic__k0 < 1; seq_logic__k0 = seq_logic__k0 + 1) begin
            w = seq_logic__k0;
            line = ((idx * 1) + w);
            if (((valid_arr[line] != 0) && ((tags_arr[line] == tag) != 0)) != 0) begin
              hit_way = w;
            end
          end
          hit_line = ((idx * 1) + hit_way);
          req_type <= cpu_ifc__req__msg[64];
          req_addr <= addr;
          req_data <= cpu_ifc__req__msg[31:0];
          if ((cpu_ifc__req__msg[64] == 1) != 0) begin
            if ((hit_way >= 0) != 0) begin
              data_arr[((hit_line * 4) + word)] <= cpu_ifc__req__msg[31:0];
              if ((1 == 2) != 0) begin
                lru_arr[idx] <= (1 - hit_way);
              end
            end
            state <= 2;
          end else begin
            if ((hit_way >= 0) != 0) begin
              resp_data <= data_arr[((hit_line * 4) + word)];
              resp_type <= 0;
              if ((1 == 2) != 0) begin
                lru_arr[idx] <= (1 - hit_way);
              end
              state <= 4;
            end else begin
              miss_count <= (miss_count + 1);
              victim = (((1 == 2)) ? lru_arr[idx] : 0);
              for (seq_logic__k0 = 0; seq_logic__k0 < 1; seq_logic__k0 = seq_logic__k0 + 1) begin
                w = seq_logic__k0;
                if ((valid_arr[((idx * 1) + w)] == 0) != 0) begin
                  victim = w;
                end
              end
              victim_line <= ((idx * 1) + victim);
              sent <= 0;
              got <= 0;
              state <= 1;
            end
          end
        end
      end else begin
        if ((state == 1) != 0) begin
          line = victim_line;
          idx = ((req_addr >> 4) & (64 - 1));
          word = ((req_addr >> 2) & (4 - 1));
          if (((mem_ifc__req__val != 0) && (mem_ifc__req__rdy != 0)) != 0) begin
            sent <= (sent + 1);
          end
          if (((mem_ifc__resp__val != 0) && (mem_ifc__resp__rdy != 0)) != 0) begin
            got = got;
            data_arr[((line * 4) + got)] <= mem_ifc__resp__msg[31:0];
            if ((got == word) != 0) begin
              resp_data <= mem_ifc__resp__msg[31:0];
            end
            got <= (got + 1);
            if ((got == (4 - 1)) != 0) begin
              valid_arr[line] <= 1;
              tags_arr[line] <= (req_addr >> (4 + 6));
              if ((1 == 2) != 0) begin
                lru_arr[idx] <= (1 - (line - (idx * 1)));
              end
              resp_type <= 0;
              state <= 4;
            end
          end
        end else begin
          if ((state == 2) != 0) begin
            if (((mem_ifc__req__val != 0) && (mem_ifc__req__rdy != 0)) != 0) begin
              state <= 3;
            end
          end else begin
            if ((state == 3) != 0) begin
              if (((mem_ifc__resp__val != 0) && (mem_ifc__resp__rdy != 0)) != 0) begin
                resp_type <= 1;
                resp_data <= 0;
                state <= 4;
              end
            end else begin
              if ((state == 4) != 0) begin
                if (((cpu_ifc__resp__val != 0) && (cpu_ifc__resp__rdy != 0)) != 0) begin
                  state <= 0;
                end
              end
            end
          end
        end
      end
    end
  end
endmodule