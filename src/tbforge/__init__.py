"""tbforge: LLM-driven Verilog testbench generation with simulator feedback,
preference-pair dataset construction, and evaluation metrics."""

__version__ = "0.1.0"
