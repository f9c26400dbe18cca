"""Simulator invocation configuration: the [simulator] config section.

The simulator is abstracted behind command templates so that any
compile-then-run tool pair can by plugged in; the defaults target Icarus
Verilog (iverilog/vvp). Line coverage needs a separate tool, so
coverage_command is optional; pipelines can run with coverage skipped.
The mock backend replays a JSON script instead of running commands.
"""

from __future__ import annotations

import shlex
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
        for key, placeholders in (("compile_command", ("{dut}", "{tb}", "{out}")),
                                  ("run_command", ("{out}",)),
                                  ("coverage_command", ("{dut}", "{tb}"))):
            template = getattr(self, key)
            if template is None:
                continue
            for placeholder in placeholders:
                if placeholder not in template:
                    raise ConfigError(f"{key} missing {placeholder}")
            try:  # as CommandSimulator splits and fills it for each call
                for part in shlex.split(template):
                    part.format(dut="", tb="", out="", workdir="")
            except (ValueError, LookupError, AttributeError) as exc:
                raise ConfigError(f"bad {key} {template!r}: {exc}") from None
        if self.backend not in ("command", "mock"):
            raise ConfigError(
                f"simulator backend must be command or mock, got {self.backend!r}")
        if self.backend == "mock" and not self.mock_script:
            raise ConfigError("simulator backend mock needs mock_script")
