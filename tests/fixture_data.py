"""Shared fixture texts: a serial audio encoder DUT, its testbench skeleton,
a line-coverage report, and simulator logs in the display format the
pipeline's testbenches emit; and ``parse_text``, which parses a module
text as the pair builder does."""

from tbforge.frontend import lex, parse_module


def parse_text(source: str):
    """The Module root of one module's source text."""
    return parse_module(lex(source))


AUDIO_ENCODER_DUT = """\
module serial_audio_encoder #(parameter width = 16) (
    input clk,
    input reset,
    input [width-1:0] audio_in,
    input in_valid,
    output i_ready,
    output is_underrun
);

reg [width-1:0] shift;
reg [4:0] shift_count;
reg is_valid_shift;
reg reg_lrclk;
reg is_next_left;
reg reg_sdata;
reg reg_underrun;

assign i_ready = ~is_valid_shift;
assign is_underrun = reg_underrun;

always @(posedge clk or posedge reset) begin
  if (reset) begin
    shift <= 0;
    shift_count <= 0;
    is_valid_shift <= 1'b0;
    reg_underrun <= 1'b0;
  end else begin
    if (is_valid_shift) begin
      shift_count <= shift_count - 1'b1;
      is_valid_shift <= shift_count != 0;
      shift <= shift << 1;
    end else begin
      reg_lrclk <= 1'b1;
      is_next_left <= 1'b1;
      is_valid_shift <= 1'b0;
      reg_sdata <= 1'b0;
      reg_underrun <= 1'b1;
    end
  end
end

endmodule
"""

TESTBENCH_SKELETON = """\
`timescale 1ns / 1ps
module testbench;
// Parameters
localparam width = 16;
// Inputs
reg clk;
reg reset;
reg [width-1:0] audio_in;
reg in_valid;
// Outputs
wire i_ready;
wire is_underrun;
integer error_count;

// Instantiate the Unit Under Test (UUT)
serial_audio_encoder #(width) uut (
  .clk(clk),
  .reset(reset),
  .audio_in(audio_in),
  .in_valid(in_valid),
  .i_ready(i_ready),
  .is_underrun(is_underrun)
);
// Clock generation
always #5 clk = ~clk;
initial begin
  clk = 0;
  reset = 0;
  audio_in = 0;
  in_valid = 0;
  error_count = 0;
  $display("===========TestCases===========");
  // Test Case 1: Reset during operation
  reset = 1;
  #10;
  reset = 0;
  #10;
  $display("Test Case 1. Expected i_ready: 0, is_underrun: 0");
  $display("Test Case 1. Actual i_ready: %d, is_underrun: %d", i_ready, is_underrun);
  if (i_ready !== 0 || is_underrun !== 0) error_count = error_count + 1;
  $display("===========End===========");
  if (error_count == 0) begin
    $display("Your Design Passed");
  end
  else begin
    $display("Test with %0d failures", error_count);
  end
  // Must finish simulation
  $finish;
end
endmodule
"""

COVERAGE_REPORT_SAMPLE = """\
Since this is the module's only instance, the coverage report is the same as for the module.
Line Coverage for Module : serial_audio_encoder
Line No.\tTotal\tCovered\tPercent
TOTAL\t\t31\t26\t83.87
CONT_ASSIGN\t25\t1\t1\t100.00
...
    always @(posedge clk or posedge reset) begin
1/1   if (reset) begin
        ...
      end else begin
1/1     if (is_valid_shift) begin
1/1       shift_count <= shift_count - 1'b1;
1/1       is_valid_shift <= shift_count != 0;
1/1       shift <= shift << 1;
          ...
        end else begin
0/1 ==>    reg_lrclk <= 1'b1;
0/1 ==>    is_next_left <= 1'b1;
0/1 ==>    is_valid_shift <= 1'b0;
0/1 ==>    reg_sdata <= 2'b00;
0/1 ==>    is_underrun <= 1'b1;
     ...
"""

SIM_LOG_FIVE_FAILURES = """\
Test Case 1. Expected i_ready: 2'b01, is_underrun: 3'b100
Test Case 1. Actual i_ready: 0, is_underrun: 0
...
===========End===========
Test with 5 failures
"""

SIM_LOG_ALL_PASS = """\
===========TestCases===========
Test Case 1. Expected i_ready: 0, is_underrun: 0
Test Case 1. Actual i_ready: 0, is_underrun: 0
Test Case 2. Expected i_ready: 1, is_underrun: 0
Test Case 2. Actual i_ready: 1, is_underrun: 0
===========End===========
Your Design Passed
"""
