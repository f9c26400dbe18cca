"""Simulator invocation configuration: the [simulator] config section.

The simulator is abstracted behind command templates so that any
compile-then-run tool pair can by plugged in; the defaults target Icarus
Verilog (iverilog/vvp). Line coverage needs a separate tool, so
coverage_command is optional; pipelines can run with coverage skipped.
The mock backend replays a JSON script instead of running commands.
"""

from __future__ import annotations

import functools
import os
import shlex
import shutil
from dataclasses import dataclass

from tbforge.errors import LONGEST_WAIT, ConfigError, ToolMissing, check_settings

# Each template is split once per process; callers only read the list.
_split = functools.lru_cache(maxsize=64)(shlex.split)


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
        check_settings("simulator", (
            ("timeout", 0 < self.timeout <= LONGEST_WAIT, f"in (0, {LONGEST_WAIT}]"),))
        for key, placeholders in (("compile_command", ("{dut}", "{tb}", "{out}")),
                                  ("run_command", ("{out}",)),
                                  ("coverage_command", ("{dut}", "{tb}"))):
            template = getattr(self, key)
            if template is None:
                continue
            for placeholder in placeholders:
                if placeholder not in template:
                    raise ConfigError(f"{key} missing {placeholder}")
            try:
                self.argv(template)
            except (ValueError, LookupError, AttributeError) as exc:
                raise ConfigError(f"bad {key} {template!r}: {exc}") from None
        if self.backend not in ("command", "mock"):
            raise ConfigError(
                f"simulator backend must be command or mock, got {self.backend!r}")
        if self.backend == "mock" and not self.mock_script:
            raise ConfigError("simulator backend mock needs mock_script")

    def check_programs(self, *templates: str) -> None:
        """Raise ToolMissing for a command program named without a path that
        is not on PATH; a path is left to the call, which runs in its own
        directory."""
        for template in templates:
            program = self.argv(template)[0]
            if os.sep not in program and shutil.which(program) is None:
                raise ToolMissing(f"simulator command not found: {program}")

    def argv(self, template: str, workdir: str = "") -> list[str]:
        """The template split as a shell would, its placeholders filled."""
        return [part.format(dut="dut.v", tb="tb.v", out="sim.out", workdir=workdir)
                for part in _split(template)]
