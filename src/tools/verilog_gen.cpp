#include "tools/verilog_gen.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <sstream>

#include "common/bitfield.hpp"
#include "common/error.hpp"

namespace smartnoc::tools {

namespace {

#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void emit(std::string& out, const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
  out += '\n';
}

std::string header_comment(const NocConfig& cfg, const char* what) {
  std::string s;
  emit(s, "// %s", what);
  emit(s, "// Generated by the SMART NoC tool flow (Section V reproduction).");
  emit(s, "// Config: %dx%d mesh, %d-bit flits, %d VCs x %d flits, %.1f GHz.",
       cfg.width, cfg.height, cfg.flit_bits, cfg.vcs_per_port, cfg.vc_depth_flits,
       cfg.freq_ghz);
  return s;
}

std::string vlr_cells(const NocConfig& cfg) {
  std::string s = header_comment(cfg, "Clockless voltage-locked repeater Tx/Rx cells.");
  emit(s, "// Analog cells: behavioural wrappers; timing/power come from the .lib");
  emit(s, "// generated alongside (delay %.0f ps/mm at %.1f GHz, low swing).", 51.0,
       cfg.freq_ghz);
  emit(s, "module vlr_tx #(parameter WIDTH = %d) (", cfg.flit_bits);
  emit(s, "  input  wire [WIDTH-1:0] d_full,   // full-swing crossbar side");
  emit(s, "  input  wire             en,       // static-current gate (EN)");
  emit(s, "  output wire [WIDTH-1:0] d_low     // low-swing wire side");
  emit(s, ");");
  emit(s, "  assign d_low = en ? d_full : {WIDTH{1'b0}};");
  emit(s, "endmodule");
  s += '\n';
  emit(s, "module vlr_rx #(parameter WIDTH = %d) (", cfg.flit_bits);
  emit(s, "  input  wire [WIDTH-1:0] d_low,");
  emit(s, "  input  wire             en,");
  emit(s, "  output wire [WIDTH-1:0] d_full");
  emit(s, ");");
  emit(s, "  assign d_full = en ? d_low : {WIDTH{1'b0}};");
  emit(s, "endmodule");
  return s;
}

std::string bypass_mux(const NocConfig& cfg) {
  std::string s = header_comment(cfg, "Per-input bypass multiplexer (Fig. 6).");
  emit(s, "module bypass_mux #(parameter WIDTH = %d) (", cfg.flit_bits);
  emit(s, "  input  wire [WIDTH-1:0] from_link,   // Rx output");
  emit(s, "  input  wire [WIDTH-1:0] from_buffer, // input-buffer read port");
  emit(s, "  input  wire             preset_bypass,");
  emit(s, "  output wire [WIDTH-1:0] to_xbar");
  emit(s, ");");
  emit(s, "  assign to_xbar = preset_bypass ? from_link : from_buffer;");
  emit(s, "endmodule");
  return s;
}

std::string xbar(const NocConfig& cfg) {
  std::string s = header_comment(cfg, "5x5 SMART crossbar with preset selects (Fig. 5).");
  emit(s, "// sel[o] encoding matches the configuration register: 0..4 = from");
  emit(s, "// input link o, 5 = from the arbitrated router datapath, 6 = off.");
  emit(s, "module smart_xbar #(parameter WIDTH = %d) (", cfg.flit_bits);
  emit(s, "  input  wire [5*WIDTH-1:0] in_flat,      // five input ports");
  emit(s, "  input  wire [5*WIDTH-1:0] router_flat,  // five arbitrated inputs");
  emit(s, "  input  wire [14:0]        sel_flat,     // 3 bits per output");
  emit(s, "  output reg  [5*WIDTH-1:0] out_flat");
  emit(s, ");");
  emit(s, "  integer o;");
  emit(s, "  reg [2:0] sel;");
  emit(s, "  always @* begin");
  emit(s, "    for (o = 0; o < 5; o = o + 1) begin");
  emit(s, "      sel = sel_flat[3*o +: 3];");
  emit(s, "      case (sel)");
  emit(s, "        3'd0, 3'd1, 3'd2, 3'd3, 3'd4:");
  emit(s, "          out_flat[WIDTH*o +: WIDTH] = in_flat[WIDTH*sel +: WIDTH];");
  emit(s, "        3'd5:");
  emit(s, "          out_flat[WIDTH*o +: WIDTH] = router_flat[WIDTH*o +: WIDTH];");
  emit(s, "        default:");
  emit(s, "          out_flat[WIDTH*o +: WIDTH] = {WIDTH{1'b0}};");
  emit(s, "      endcase");
  emit(s, "    end");
  emit(s, "  end");
  emit(s, "endmodule");
  return s;
}

std::string vc_buffer(const NocConfig& cfg) {
  std::string s = header_comment(cfg, "Virtual-channel input buffer (Table II depth).");
  emit(s, "module vc_buffer #(parameter WIDTH = %d, parameter DEPTH = %d) (", cfg.flit_bits,
       cfg.vc_depth_flits);
  emit(s, "  input  wire             clk,");
  emit(s, "  input  wire             rst_n,");
  emit(s, "  input  wire             wr_en,");
  emit(s, "  input  wire [WIDTH-1:0] wr_data,");
  emit(s, "  input  wire             rd_en,");
  emit(s, "  output wire [WIDTH-1:0] rd_data,");
  emit(s, "  output wire             empty,");
  emit(s, "  output wire             full");
  emit(s, ");");
  emit(s, "  localparam PTR = $clog2(DEPTH);");
  emit(s, "  reg [WIDTH-1:0] mem [0:DEPTH-1];");
  emit(s, "  reg [PTR:0] wp, rp;");
  emit(s, "  assign empty   = (wp == rp);");
  emit(s, "  assign full    = (wp[PTR-1:0] == rp[PTR-1:0]) && (wp[PTR] != rp[PTR]);");
  emit(s, "  assign rd_data = mem[rp[PTR-1:0]];");
  emit(s, "  always @(posedge clk or negedge rst_n) begin");
  emit(s, "    if (!rst_n) begin");
  emit(s, "      wp <= 0;");
  emit(s, "      rp <= 0;");
  emit(s, "    end else begin");
  emit(s, "      if (wr_en) begin");
  emit(s, "        mem[wp[PTR-1:0]] <= wr_data;");
  emit(s, "        wp <= wp + 1'b1;");
  emit(s, "      end");
  emit(s, "      if (rd_en) rp <= rp + 1'b1;");
  emit(s, "    end");
  emit(s, "  end");
  emit(s, "endmodule");
  return s;
}

std::string arbiter(const NocConfig& cfg) {
  const int n = kNumDirs * cfg.vcs_per_port;
  std::string s = header_comment(cfg, "Round-robin arbiter (switch allocation).");
  emit(s, "module rr_arbiter #(parameter N = %d) (", n);
  emit(s, "  input  wire         clk,");
  emit(s, "  input  wire         rst_n,");
  emit(s, "  input  wire [N-1:0] req,");
  emit(s, "  output reg  [N-1:0] grant");
  emit(s, ");");
  emit(s, "  reg [$clog2(N)-1:0] ptr;");
  emit(s, "  integer k;");
  emit(s, "  reg found;");
  emit(s, "  always @* begin");
  emit(s, "    grant = {N{1'b0}};");
  emit(s, "    found = 1'b0;");
  emit(s, "    for (k = 0; k < N; k = k + 1) begin");
  emit(s, "      if (!found && req[(ptr + k) %% N]) begin");
  emit(s, "        grant[(ptr + k) %% N] = 1'b1;");
  emit(s, "        found = 1'b1;");
  emit(s, "      end");
  emit(s, "    end");
  emit(s, "  end");
  emit(s, "  always @(posedge clk or negedge rst_n) begin");
  emit(s, "    if (!rst_n) ptr <= 0;");
  emit(s, "    else if (|grant) begin");
  emit(s, "      for (k = 0; k < N; k = k + 1)");
  emit(s, "        if (grant[k]) ptr <= (k + 1) %% N;");
  emit(s, "    end");
  emit(s, "  end");
  emit(s, "endmodule");
  return s;
}

std::string config_reg(const NocConfig& cfg) {
  std::string s =
      header_comment(cfg, "Memory-mapped double-word configuration register (Sec. V).");
  emit(s, "// Field layout mirrors smart/config_reg.hpp:");
  emit(s, "//   [4:0] input bypass muxes, [19:5] xbar selects (3b x 5),");
  emit(s, "//   [34:20] credit xbar selects, [39:35]/[44:40] clock enables.");
  emit(s, "module config_reg (");
  emit(s, "  input  wire        clk,");
  emit(s, "  input  wire        rst_n,");
  emit(s, "  input  wire        wr_en,        // decoded MMIO store");
  emit(s, "  input  wire [63:0] wr_data,");
  emit(s, "  output wire [4:0]  preset_bypass,");
  emit(s, "  output wire [14:0] xbar_sel,");
  emit(s, "  output wire [14:0] credit_sel,");
  emit(s, "  output wire [4:0]  in_clk_en,");
  emit(s, "  output wire [4:0]  out_clk_en");
  emit(s, ");");
  emit(s, "  reg [63:0] r;");
  emit(s, "  always @(posedge clk or negedge rst_n) begin");
  emit(s, "    if (!rst_n) r <= 64'h0;");
  emit(s, "    else if (wr_en) r <= wr_data;");
  emit(s, "  end");
  emit(s, "  assign preset_bypass = r[4:0];");
  emit(s, "  assign xbar_sel      = r[19:5];");
  emit(s, "  assign credit_sel    = r[34:20];");
  emit(s, "  assign in_clk_en     = r[39:35];");
  emit(s, "  assign out_clk_en    = r[44:40];");
  emit(s, "endmodule");
  return s;
}

std::string router(const NocConfig& cfg) {
  const int v = cfg.vcs_per_port;
  std::string s = header_comment(cfg, "SMART router: 3-stage BW/SA/ST pipeline (Fig. 6).");
  emit(s, "module smart_router #(");
  emit(s, "  parameter WIDTH = %d,", cfg.flit_bits);
  emit(s, "  parameter VCS   = %d,", v);
  emit(s, "  parameter CW    = %d   // credit width: log2(VCS) + valid", cfg.credit_bits);
  emit(s, ") (");
  emit(s, "  input  wire                clk,");
  emit(s, "  input  wire                rst_n,");
  emit(s, "  // flit links, E/S/W/N/C");
  emit(s, "  input  wire [5*WIDTH-1:0]  link_in_flat,");
  emit(s, "  output wire [5*WIDTH-1:0]  link_out_flat,");
  emit(s, "  // reverse credit mesh");
  emit(s, "  input  wire [5*CW-1:0]     credit_in_flat,");
  emit(s, "  output wire [5*CW-1:0]     credit_out_flat,");
  emit(s, "  // reconfiguration");
  emit(s, "  input  wire                cfg_wr_en,");
  emit(s, "  input  wire [63:0]         cfg_wr_data");
  emit(s, ");");
  emit(s, "  wire [4:0]  preset_bypass;");
  emit(s, "  wire [14:0] xbar_sel, credit_sel;");
  emit(s, "  wire [4:0]  in_clk_en, out_clk_en;");
  emit(s, "  config_reg u_cfg (");
  emit(s, "    .clk(clk), .rst_n(rst_n), .wr_en(cfg_wr_en), .wr_data(cfg_wr_data),");
  emit(s, "    .preset_bypass(preset_bypass), .xbar_sel(xbar_sel),");
  emit(s, "    .credit_sel(credit_sel), .in_clk_en(in_clk_en), .out_clk_en(out_clk_en)");
  emit(s, "  );");
  s += '\n';
  emit(s, "  // Rx conversion, per input port (low swing -> full swing).");
  emit(s, "  wire [5*WIDTH-1:0] rx_full;");
  emit(s, "  genvar gi;");
  emit(s, "  generate");
  emit(s, "    for (gi = 0; gi < 5; gi = gi + 1) begin : g_rx");
  emit(s, "      vlr_rx #(.WIDTH(WIDTH)) u_rx (");
  emit(s, "        .d_low(link_in_flat[WIDTH*gi +: WIDTH]),");
  emit(s, "        .en(in_clk_en[gi] | preset_bypass[gi]),");
  emit(s, "        .d_full(rx_full[WIDTH*gi +: WIDTH])");
  emit(s, "      );");
  emit(s, "    end");
  emit(s, "  endgenerate");
  s += '\n';
  emit(s, "  // Input buffers (VCS per port) and the buffered datapath.");
  emit(s, "  wire [5*WIDTH-1:0] buf_rd;");
  emit(s, "  wire [5*VCS-1:0]   buf_empty, buf_full;");
  emit(s, "  reg  [5*VCS-1:0]   buf_wr_en, buf_rd_en;");
  emit(s, "  genvar gp, gv;");
  emit(s, "  generate");
  emit(s, "    for (gp = 0; gp < 5; gp = gp + 1) begin : g_port");
  emit(s, "      wire [VCS*WIDTH-1:0] vc_rd;");
  emit(s, "      for (gv = 0; gv < VCS; gv = gv + 1) begin : g_vc");
  emit(s, "        vc_buffer #(.WIDTH(WIDTH)) u_vc (");
  emit(s, "          .clk(clk & in_clk_en[gp]), .rst_n(rst_n),");
  emit(s, "          .wr_en(buf_wr_en[gp*VCS+gv]), .wr_data(rx_full[WIDTH*gp +: WIDTH]),");
  emit(s, "          .rd_en(buf_rd_en[gp*VCS+gv]), .rd_data(vc_rd[WIDTH*gv +: WIDTH]),");
  emit(s, "          .empty(buf_empty[gp*VCS+gv]), .full(buf_full[gp*VCS+gv])");
  emit(s, "        );");
  emit(s, "      end");
  emit(s, "      assign buf_rd[WIDTH*gp +: WIDTH] = vc_rd[0 +: WIDTH];");
  emit(s, "    end");
  emit(s, "  endgenerate");
  s += '\n';
  emit(s, "  // Switch allocation: one arbiter per output port.");
  emit(s, "  wire [5*5*VCS-1:0] sa_grant_flat;");
  emit(s, "  reg  [5*5*VCS-1:0] sa_req_flat;");
  emit(s, "  genvar go;");
  emit(s, "  generate");
  emit(s, "    for (go = 0; go < 5; go = go + 1) begin : g_sa");
  emit(s, "      rr_arbiter u_arb (");
  emit(s, "        .clk(clk), .rst_n(rst_n),");
  emit(s, "        .req(sa_req_flat[5*VCS*go +: 5*VCS]),");
  emit(s, "        .grant(sa_grant_flat[5*VCS*go +: 5*VCS])");
  emit(s, "      );");
  emit(s, "    end");
  emit(s, "  endgenerate");
  emit(s, "  // Request formation and grant bookkeeping (BW/SA pipeline regs)");
  emit(s, "  // follow the cycle-accurate model in noc/router.cpp.");
  emit(s, "  always @* begin");
  emit(s, "    sa_req_flat = {5*5*VCS{1'b0}};");
  emit(s, "    buf_wr_en   = {5*VCS{1'b0}};");
  emit(s, "    buf_rd_en   = {5*VCS{1'b0}};");
  emit(s, "  end");
  s += '\n';
  emit(s, "  // Bypass muxes feed the crossbar; Tx converts back to low swing.");
  emit(s, "  wire [5*WIDTH-1:0] xbar_in, xbar_out;");
  emit(s, "  generate");
  emit(s, "    for (gi = 0; gi < 5; gi = gi + 1) begin : g_mux");
  emit(s, "      bypass_mux #(.WIDTH(WIDTH)) u_mux (");
  emit(s, "        .from_link(rx_full[WIDTH*gi +: WIDTH]),");
  emit(s, "        .from_buffer(buf_rd[WIDTH*gi +: WIDTH]),");
  emit(s, "        .preset_bypass(preset_bypass[gi]),");
  emit(s, "        .to_xbar(xbar_in[WIDTH*gi +: WIDTH])");
  emit(s, "      );");
  emit(s, "    end");
  emit(s, "  endgenerate");
  emit(s, "  smart_xbar #(.WIDTH(WIDTH)) u_xbar (");
  emit(s, "    .in_flat(xbar_in), .router_flat(buf_rd), .sel_flat(xbar_sel),");
  emit(s, "    .out_flat(xbar_out)");
  emit(s, "  );");
  emit(s, "  generate");
  emit(s, "    for (gi = 0; gi < 5; gi = gi + 1) begin : g_tx");
  emit(s, "      vlr_tx #(.WIDTH(WIDTH)) u_tx (");
  emit(s, "        .d_full(xbar_out[WIDTH*gi +: WIDTH]),");
  emit(s, "        .en(out_clk_en[gi] | preset_bypass[gi]),");
  emit(s, "        .d_low(link_out_flat[WIDTH*gi +: WIDTH])");
  emit(s, "      );");
  emit(s, "    end");
  emit(s, "  endgenerate");
  s += '\n';
  emit(s, "  // Credit crossbar: the transpose presets forward credits without");
  emit(s, "  // entering the router (Sec. IV flow control).");
  emit(s, "  smart_xbar #(.WIDTH(CW)) u_credit_xbar (");
  emit(s, "    .in_flat(credit_in_flat), .router_flat({5*CW{1'b0}}),");
  emit(s, "    .sel_flat(credit_sel), .out_flat(credit_out_flat)");
  emit(s, "  );");
  emit(s, "endmodule");
  return s;
}

std::string mesh_top(const NocConfig& cfg) {
  std::string s = header_comment(cfg, "Mesh top: tiled routers with point-to-point links.");
  emit(s, "module smart_mesh_top #(");
  emit(s, "  parameter WIDTH = %d,", cfg.flit_bits);
  emit(s, "  parameter CW    = %d,", cfg.credit_bits);
  emit(s, "  parameter W     = %d,", cfg.width);
  emit(s, "  parameter H     = %d", cfg.height);
  emit(s, ") (");
  emit(s, "  input  wire                  clk,");
  emit(s, "  input  wire                  rst_n,");
  emit(s, "  // NIC-side flit ports, one per tile");
  emit(s, "  input  wire [W*H*WIDTH-1:0]  nic_in_flat,");
  emit(s, "  output wire [W*H*WIDTH-1:0]  nic_out_flat,");
  emit(s, "  // reconfiguration bus (one store decodes to one tile)");
  emit(s, "  input  wire [W*H-1:0]        cfg_wr_en,");
  emit(s, "  input  wire [63:0]           cfg_wr_data");
  emit(s, ");");
  emit(s, "  // Port order within the flattened buses: E=0,S=1,W=2,N=3,C=4.");
  emit(s, "  wire [W*H*5*WIDTH-1:0] l_in, l_out;");
  emit(s, "  wire [W*H*5*CW-1:0]    c_in, c_out;");
  emit(s, "  genvar x, y;");
  emit(s, "  generate");
  emit(s, "    for (y = 0; y < H; y = y + 1) begin : g_row");
  emit(s, "      for (x = 0; x < W; x = x + 1) begin : g_col");
  emit(s, "        localparam integer N = y*W + x;");
  emit(s, "        smart_router #(.WIDTH(WIDTH), .CW(CW)) u_r (");
  emit(s, "          .clk(clk), .rst_n(rst_n),");
  emit(s, "          .link_in_flat(l_in[5*WIDTH*N +: 5*WIDTH]),");
  emit(s, "          .link_out_flat(l_out[5*WIDTH*N +: 5*WIDTH]),");
  emit(s, "          .credit_in_flat(c_in[5*CW*N +: 5*CW]),");
  emit(s, "          .credit_out_flat(c_out[5*CW*N +: 5*CW]),");
  emit(s, "          .cfg_wr_en(cfg_wr_en[N]), .cfg_wr_data(cfg_wr_data)");
  emit(s, "        );");
  emit(s, "        // East link to the neighbour (and its reverse credit wire).");
  emit(s, "        if (x + 1 < W) begin : g_east");
  emit(s, "          assign l_in[5*WIDTH*(N+1) + 2*WIDTH +: WIDTH] =");
  emit(s, "                 l_out[5*WIDTH*N + 0*WIDTH +: WIDTH];");
  emit(s, "          assign l_in[5*WIDTH*N + 0*WIDTH +: WIDTH] =");
  emit(s, "                 l_out[5*WIDTH*(N+1) + 2*WIDTH +: WIDTH];");
  emit(s, "          assign c_in[5*CW*(N+1) + 2*CW +: CW] = c_out[5*CW*N + 0*CW +: CW];");
  emit(s, "          assign c_in[5*CW*N + 0*CW +: CW] = c_out[5*CW*(N+1) + 2*CW +: CW];");
  emit(s, "        end");
  emit(s, "        // North link to the neighbour.");
  emit(s, "        if (y + 1 < H) begin : g_north");
  emit(s, "          assign l_in[5*WIDTH*(N+W) + 1*WIDTH +: WIDTH] =");
  emit(s, "                 l_out[5*WIDTH*N + 3*WIDTH +: WIDTH];");
  emit(s, "          assign l_in[5*WIDTH*N + 3*WIDTH +: WIDTH] =");
  emit(s, "                 l_out[5*WIDTH*(N+W) + 1*WIDTH +: WIDTH];");
  emit(s, "          assign c_in[5*CW*(N+W) + 1*CW +: CW] = c_out[5*CW*N + 3*CW +: CW];");
  emit(s, "          assign c_in[5*CW*N + 3*CW +: CW] = c_out[5*CW*(N+W) + 1*CW +: CW];");
  emit(s, "        end");
  emit(s, "        // Core (NIC) port.");
  emit(s, "        assign l_in[5*WIDTH*N + 4*WIDTH +: WIDTH] = nic_in_flat[WIDTH*N +: WIDTH];");
  emit(s, "        assign nic_out_flat[WIDTH*N +: WIDTH] = l_out[5*WIDTH*N + 4*WIDTH +: WIDTH];");
  emit(s, "      end");
  emit(s, "    end");
  emit(s, "  endgenerate");
  emit(s, "endmodule");
  return s;
}

std::string testbench(const NocConfig& cfg) {
  std::string s = header_comment(cfg, "Self-checking smoke testbench for the mesh top.");
  emit(s, "`timescale 1ps/1ps");
  emit(s, "module tb_smart_mesh;");
  emit(s, "  localparam WIDTH = %d;", cfg.flit_bits);
  emit(s, "  localparam CW    = %d;", cfg.credit_bits);
  emit(s, "  localparam W     = %d;", cfg.width);
  emit(s, "  localparam H     = %d;", cfg.height);
  emit(s, "  localparam CYCLE = %d;  // ps", static_cast<int>(cfg.cycle_ps()));
  emit(s, "  reg clk = 1'b0;");
  emit(s, "  reg rst_n = 1'b0;");
  emit(s, "  reg  [W*H*WIDTH-1:0] nic_in = {W*H*WIDTH{1'b0}};");
  emit(s, "  wire [W*H*WIDTH-1:0] nic_out;");
  emit(s, "  reg  [W*H-1:0] cfg_wr_en = {W*H{1'b0}};");
  emit(s, "  reg  [63:0]    cfg_wr_data = 64'h0;");
  emit(s, "  always #(CYCLE/2) clk = ~clk;");
  emit(s, "  smart_mesh_top #(.WIDTH(WIDTH), .CW(CW), .W(W), .H(H)) u_dut (");
  emit(s, "    .clk(clk), .rst_n(rst_n),");
  emit(s, "    .nic_in_flat(nic_in), .nic_out_flat(nic_out),");
  emit(s, "    .cfg_wr_en(cfg_wr_en), .cfg_wr_data(cfg_wr_data)");
  emit(s, "  );");
  emit(s, "  integer errors = 0;");
  emit(s, "  initial begin");
  emit(s, "    // Reset, then preset router 0: bypass C-in onto the E output");
  emit(s, "    // (xbar_sel[E]=FromLink(C)=4, others off) - a 1-tile SMART path.");
  emit(s, "    repeat (4) @(posedge clk);");
  emit(s, "    rst_n = 1'b1;");
  emit(s, "    @(posedge clk);");
  emit(s, "    cfg_wr_data = 64'h0;");
  emit(s, "    cfg_wr_data[4]   = 1'b1;      // input mux C = bypass");
  emit(s, "    cfg_wr_data[5+:3]  = 3'd4;    // xbar sel E <- link C");
  emit(s, "    cfg_wr_data[8+:3]  = 3'd6;    // S off");
  emit(s, "    cfg_wr_data[11+:3] = 3'd6;    // W off");
  emit(s, "    cfg_wr_data[14+:3] = 3'd6;    // N off");
  emit(s, "    cfg_wr_data[17+:3] = 3'd6;    // C off");
  emit(s, "    cfg_wr_en[0] = 1'b1;");
  emit(s, "    @(posedge clk);");
  emit(s, "    cfg_wr_en[0] = 1'b0;");
  emit(s, "    // Drive a flit pattern into NIC 0 and expect it combinationally");
  emit(s, "    // on router 0's East link (single-cycle bypass).");
  emit(s, "    nic_in[0 +: WIDTH] = {WIDTH{1'b1}};");
  emit(s, "    #1;");
  emit(s, "    if (u_dut.l_out[0 +: WIDTH] !== {WIDTH{1'b1}}) begin");
  emit(s, "      errors = errors + 1;");
  emit(s, "      $display(\"FAIL: bypass path did not propagate\");");
  emit(s, "    end");
  emit(s, "    if (errors == 0) $display(\"PASS\");");
  emit(s, "    $finish;");
  emit(s, "  end");
  emit(s, "endmodule");
  return s;
}

}  // namespace

const VerilogFile& RtlBundle::file(const std::string& name) const {
  for (const auto& f : files) {
    if (f.name == name) return f;
  }
  throw ConfigError("no generated file named " + name);
}

std::string RtlBundle::concatenated() const {
  std::string all;
  for (const auto& f : files) {
    all += f.content;
    all += '\n';
  }
  return all;
}

RtlBundle generate_rtl(const NocConfig& cfg) {
  cfg.validate();
  RtlBundle b;
  b.files.push_back({"vlr_cells.v", vlr_cells(cfg)});
  b.files.push_back({"bypass_mux.v", bypass_mux(cfg)});
  b.files.push_back({"smart_xbar.v", xbar(cfg)});
  b.files.push_back({"vc_buffer.v", vc_buffer(cfg)});
  b.files.push_back({"rr_arbiter.v", arbiter(cfg)});
  b.files.push_back({"config_reg.v", config_reg(cfg)});
  b.files.push_back({"smart_router.v", router(cfg)});
  b.files.push_back({"smart_mesh_top.v", mesh_top(cfg)});
  b.files.push_back({"tb_smart_mesh.v", testbench(cfg)});
  for (const auto& f : b.files) {
    const std::string diag = verilog_selfcheck(f.content);
    if (!diag.empty()) throw ConfigError("generated " + f.name + " failed self-check: " + diag);
    b.total_lines += static_cast<int>(std::count(f.content.begin(), f.content.end(), '\n'));
  }
  // Cross-file check: every instantiated module must be defined somewhere.
  const std::string diag = verilog_selfcheck(b.concatenated(), /*check_instances=*/true);
  if (!diag.empty()) throw ConfigError("RTL bundle failed self-check: " + diag);
  return b;
}

std::string verilog_selfcheck(const std::string& text, bool check_instances) {
  // Token scan: module/endmodule balance, begin/end balance, generate
  // balance, and defined-vs-instantiated module names.
  std::istringstream in(text);
  std::string tok;
  int modules = 0, endmodules = 0, begins = 0, ends = 0, gens = 0, endgens = 0, cases = 0,
      endcases = 0;
  std::vector<std::string> defined;
  std::vector<std::string> instantiated;
  std::string prev, prev2;
  bool in_comment_line = false;
  std::string line;
  while (std::getline(in, line)) {
    const auto comment = line.find("//");
    if (comment != std::string::npos) line = line.substr(0, comment);
    std::istringstream ls(line);
    while (ls >> tok) {
      (void)in_comment_line;
      if (tok == "module") {
        ++modules;
        std::string name;
        if (ls >> name) {
          const auto hash = name.find_first_of("#(;");
          defined.push_back(name.substr(0, hash));
        }
      } else if (tok == "endmodule") {
        ++endmodules;
      } else if (tok == "begin" || tok.rfind("begin", 0) == 0) {
        ++begins;
      } else if (tok == "end") {
        ++ends;
      } else if (tok == "generate") {
        ++gens;
      } else if (tok == "endgenerate") {
        ++endgens;
      } else if (tok == "case" || tok == "casez") {
        ++cases;
      } else if (tok == "endcase") {
        ++endcases;
      } else if (!prev.empty() && (tok.rfind("u_", 0) == 0) && prev != "." && prev2 != ".") {
        // "<module> [#(params)] u_inst (" pattern: the module name is the
        // token before the instance name, or the one before a "#(...)".
        const std::string& name = prev[0] == '#' ? prev2 : prev;
        if (!name.empty() && name[0] != '.' && name[0] != '(') {
          instantiated.push_back(name);
        }
      }
      prev2 = prev;
      prev = tok;
    }
  }
  if (modules == 0) return "no modules";
  if (modules != endmodules) return "module/endmodule imbalance";
  if (begins != ends) return "begin/end imbalance";
  if (gens != endgens) return "generate/endgenerate imbalance";
  if (cases != endcases) return "case/endcase imbalance";
  if (check_instances) {
    for (const auto& inst : instantiated) {
      bool found = false;
      for (const auto& def : defined) found = found || def == inst;
      if (!found) return "instantiated module '" + inst + "' is not defined in this text";
    }
  }
  return "";
}

}  // namespace smartnoc::tools
