"""Simulator backends: real external processes and a scripted mock.

Every call writes its sources into a fresh private working directory and
removes that directory before it returns, so any number of concurrent
calls never share files and none are left behind. Every external process
is bounded by the configured timeout. The mock consumes a fixed script of
outcomes under a lock, which makes pipeline state-machine tests fully
deterministic with zero external tools.
"""

from __future__ import annotations

import shlex
import shutil
import subprocess
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Protocol, Sequence, Union, runtime_checkable

from tbforge.errors import (
    ConfigError,
    ScriptExhausted,
    ToolMissing,
    UnparseableLog,
    UnparseableReport,
)
from tbforge.sim.config import SimulatorConfig
from tbforge.sim.logparse import parse_coverage, parse_sim_log
from tbforge.sim.outcomes import (
    CompileError,
    CoverageReport,
    Report,
    RuntimeAbort,
    SimOutcome,
)


@runtime_checkable
class SimulatorBackend(Protocol):
    """What the pipeline and candidate evaluation need from a simulator."""

    @property
    def supports_coverage(self) -> bool: ...

    def compile(self, dut: str, tb: str) -> CompileError | None:
        """Compile only; None when the sources compile."""

    def run_test(self, dut: str, tb: str) -> SimOutcome:
        """Compile and, when that succeeds, run the testbench."""

    def coverage(self, dut: str, tb: str) -> CoverageReport:
        """Measure line coverage of the DUT under the testbench."""


_EMPTY_SOURCE = CompileError(log="empty DUT or testbench source")


class CommandSimulator:
    """Drives an external compile/run simulator pair via command templates."""

    def __init__(self, config: SimulatorConfig | None = None):
        self.config = config or SimulatorConfig()

    @property
    def supports_coverage(self) -> bool:
        return self.config.coverage_command is not None

    @contextmanager
    def _workdir(self, dut: str, tb: str) -> Iterator[dict[str, str]]:
        """Yield the template placeholders of a fresh ``sim-*`` directory
        holding dut.v and tb.v; the directory is removed on exit. Commands
        run in that directory, so file names are relative to it: a tool's
        log then names the same files on every call."""
        root = self.config.workdir_root
        if root:
            Path(root).mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="sim-", dir=root))
        try:
            (workdir / "dut.v").write_text(dut, encoding="utf-8")
            (workdir / "tb.v").write_text(tb, encoding="utf-8")
            yield {"dut": "dut.v", "tb": "tb.v", "out": "sim.out",
                   "workdir": str(workdir)}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _invoke(self, template: str, paths: dict[str, str]) -> tuple[int, str]:
        """Run one command; raises subprocess.TimeoutExpired past the
        configured timeout."""
        argv = [part.format(**paths) for part in shlex.split(template)]
        try:  # a byte that is not UTF-8 must not cost the log
            proc = subprocess.run(
                argv, capture_output=True, encoding="utf-8", errors="replace",
                timeout=self.config.timeout, cwd=paths["workdir"],
            )
        except FileNotFoundError as exc:
            raise ToolMissing(f"simulator command not found: {argv[0]}") from exc
        return proc.returncode, (proc.stdout or "") + (proc.stderr or "")

    def _compile_in(self, paths: dict[str, str]) -> CompileError | None:
        try:
            code, log = self._invoke(self.config.compile_command, paths)
        except subprocess.TimeoutExpired:
            return CompileError(
                log=f"compile timeout: no result within {self.config.timeout}s")
        return CompileError(log=log) if code != 0 else None

    def compile(self, dut: str, tb: str) -> CompileError | None:
        if not dut.strip() or not tb.strip():
            return _EMPTY_SOURCE
        with self._workdir(dut, tb) as paths:
            return self._compile_in(paths)

    def run_test(self, dut: str, tb: str) -> SimOutcome:
        if not dut.strip() or not tb.strip():
            return _EMPTY_SOURCE
        with self._workdir(dut, tb) as paths:
            error = self._compile_in(paths)
            if error is not None:
                return error
            try:
                code, output = self._invoke(self.config.run_command, paths)
            except subprocess.TimeoutExpired:
                return RuntimeAbort(reason="timeout",
                                    log=f"no result within {self.config.timeout}s")
        try:
            return parse_sim_log(output)
        except UnparseableLog:
            if code != 0:
                return RuntimeAbort(reason="crash", log=output)
            raise

    def coverage(self, dut: str, tb: str) -> CoverageReport:
        if self.config.coverage_command is None:
            raise ConfigError("no coverage_command configured")
        with self._workdir(dut, tb) as paths:
            try:
                _, log = self._invoke(self.config.coverage_command, paths)
            except subprocess.TimeoutExpired as exc:
                raise UnparseableReport(
                    f"coverage timeout: no report within {self.config.timeout}s"
                ) from exc
        return parse_coverage(log)


_COMPILE_OK = "ok"

ScriptEntry = Union[str, CompileError, Report, RuntimeAbort, CoverageReport, float]


class MockSimulator:
    """Replays a fixed script of outcomes.

    Script entries are consumed one per backend call, in order:
    ``"ok"``/CompileError for compile calls, Report/RuntimeAbort for run
    calls, CoverageReport or a bare percentage for coverage calls (its
    report text is the header and TOTAL rows alone). A ``run_test``
    consumes a compile entry and, if it compiled, a run entry.
    """

    supports_coverage = True

    def __init__(self, script: Sequence[ScriptEntry]):
        if not script:
            raise ValueError("mock simulator script must be nonempty")
        self._script = list(script)
        self._cursor = 0
        self._lock = threading.Lock()
        self.calls: list[str] = []

    def _next(self, call: str) -> ScriptEntry:
        with self._lock:
            self.calls.append(call)
            if self._cursor >= len(self._script):
                raise ScriptExhausted(f"mock script exhausted at call {call!r}")
            entry = self._script[self._cursor]
            self._cursor += 1
            return entry

    def compile(self, dut: str, tb: str) -> CompileError | None:
        entry = self._next("compile")
        if entry == _COMPILE_OK:
            return None
        if isinstance(entry, CompileError):
            return entry
        raise ConfigError(f"mock script expected compile entry, got {entry!r}")

    def run_test(self, dut: str, tb: str) -> SimOutcome:
        error = self.compile(dut, tb)
        if error is not None:
            return error
        entry = self._next("run")
        if isinstance(entry, (Report, RuntimeAbort)):
            return entry
        raise ConfigError(f"mock script expected run entry, got {entry!r}")

    def coverage(self, dut: str, tb: str) -> CoverageReport:
        entry = self._next("coverage")
        if isinstance(entry, CoverageReport):
            return entry
        if isinstance(entry, (int, float)) and not isinstance(entry, bool):
            # 10000 lines keeps two-decimal percentages exactly consistent.
            covered = round(100.0 * float(entry))
            text = ("Line Coverage for Module : mock\n"
                    "Line No.\tTotal\tCovered\tPercent\n"
                    f"TOTAL\t\t10000\t{covered}\t{float(entry):.2f}")
            return CoverageReport(module_name="mock", total_lines=10000,
                                  covered_lines=covered, percent=float(entry),
                                  text=text)
        raise ConfigError(f"mock script expected coverage entry, got {entry!r}")
