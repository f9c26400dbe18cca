"""Simulator invocation configuration: the [simulator] config section.

The simulator is abstracted behind command templates so that any
compile-then-run tool pair can by plugged in; the defaults target Icarus
Verilog (iverilog/vvp). Line coverage needs a separate tool, so
coverage_command is optional; pipelines can run with coverage skipped.
The mock backend replays a JSON script instead of running commands.
"""

from __future__ import annotations

from dataclasses import dataclass

from tbforge.errors import ConfigError


@dataclass(frozen=True)
class SimulatorConfig:
    backend: str = "command"  # command | mock
    compile_command: str = "iverilog -o {out} {dut} {tb}"
    run_command: str = "vvp {out}"
    coverage_command: str | None = None
    # Desk-scale designs simulate in milliseconds; a hang is a combinational
    # loop or a missing $finish.
    timeout: float = 30.0
    workdir_root: str | None = None
    mock_script: str = ""

    def __post_init__(self):
        if self.timeout <= 0:
            raise ConfigError("simulator timeout must be > 0")
        for placeholder in ("{dut}", "{tb}", "{out}"):
            if placeholder not in self.compile_command:
                raise ConfigError(f"compile_command missing {placeholder}")
        if "{out}" not in self.run_command:
            raise ConfigError("run_command missing {out}")
        if self.coverage_command is not None:
            for placeholder in ("{dut}", "{tb}"):
                if placeholder not in self.coverage_command:
                    raise ConfigError(f"coverage_command missing {placeholder}")
        if self.backend not in ("command", "mock"):
            raise ConfigError(
                f"simulator backend must be command or mock, got {self.backend!r}")
        if self.backend == "mock" and not self.mock_script:
            raise ConfigError("simulator backend mock needs mock_script")
