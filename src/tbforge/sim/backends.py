"""Simulator backends: real external processes and a scripted mock.

Every call writes its sources into a fresh private working directory and
removes that directory before it returns, so any number of concurrent
calls never share files and none are left behind. Every external process
is bounded by the configured timeout. The mock replays a fixed script of
outcomes, which makes pipeline state-machine tests fully deterministic with
zero external tools.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import tempfile
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Iterator, Protocol, runtime_checkable

from tbforge.errors import (
    ConfigError,
    ToolMissing,
    UnparseableLog,
    UnparseableReport,
)
from tbforge.script import Replay
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
    """The calls the pipeline and candidate evaluation make of a simulator.
    What it can run at all, coverage included, its ``SimulatorConfig`` says."""

    def compile(self, dut: str, tb: str) -> CompileError | None:
        """Compile only; None when the sources compile."""

    def run_test(self, dut: str, tb: str) -> SimOutcome:
        """Compile and, when that succeeds, run the testbench."""

    def coverage(self, dut: str, tb: str) -> CoverageReport:
        """Measure line coverage of the DUT under the testbench."""


_EMPTY_SOURCE = CompileError(log="empty DUT or testbench source")


class CommandSimulator:
    """Drives an external compile/run simulator pair via command templates."""

    def __init__(self, config: SimulatorConfig):
        self.config = config

    @contextmanager
    def _workdir(self, dut: str, tb: str) -> Iterator[str]:
        """Yield a fresh ``sim-*`` directory holding dut.v and tb.v, removed
        on exit. Commands run in it and name their files relative to it, so a
        tool's log names the same files on every call."""
        root = self.config.workdir_root
        if root:
            Path(root).mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="sim-", dir=root))
        try:
            (workdir / "dut.v").write_text(dut, encoding="utf-8")
            (workdir / "tb.v").write_text(tb, encoding="utf-8")
            yield str(workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _invoke(self, template: str, workdir: str) -> tuple[int, str]:
        """Run one command in a session of its own and return its exit code
        and its stdout and stderr as one log, in printed order; raises
        subprocess.TimeoutExpired past the configured timeout. However the
        call ends, it kills the command's whole process group."""
        argv = self.config.argv(template, workdir)
        try:  # a byte that is not UTF-8 must not cost the log
            proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, cwd=workdir,
                encoding="utf-8", errors="replace", start_new_session=True)
        except FileNotFoundError as exc:
            raise ToolMissing(f"simulator command not found: {argv[0]}") from exc
        with proc:  # reaps the group leader on the way out
            try:
                log, _ = proc.communicate(timeout=self.config.timeout)
            finally:
                with suppress(ProcessLookupError):  # the group has exited
                    os.killpg(proc.pid, signal.SIGKILL)
        return proc.returncode, log

    def _compile_in(self, workdir: str) -> CompileError | None:
        try:
            code, log = self._invoke(self.config.compile_command, workdir)
        except subprocess.TimeoutExpired:
            return CompileError(
                log=f"compile timeout: no result within {self.config.timeout}s")
        return CompileError(log=log) if code != 0 else None

    def compile(self, dut: str, tb: str) -> CompileError | None:
        if not dut.strip() or not tb.strip():
            return _EMPTY_SOURCE
        with self._workdir(dut, tb) as workdir:
            return self._compile_in(workdir)

    def run_test(self, dut: str, tb: str) -> SimOutcome:
        if not dut.strip() or not tb.strip():
            return _EMPTY_SOURCE
        with self._workdir(dut, tb) as workdir:
            error = self._compile_in(workdir)
            if error is not None:
                return error
            try:
                code, output = self._invoke(self.config.run_command, workdir)
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
        with self._workdir(dut, tb) as workdir:
            try:
                _, log = self._invoke(self.config.coverage_command, workdir)
            except subprocess.TimeoutExpired as exc:
                raise UnparseableReport(
                    f"coverage timeout: no report within {self.config.timeout}s"
                ) from exc
        return parse_coverage(log)


class MockSimulator(Replay):
    """Replays a fixed script of outcomes.

    Script entries are consumed one per backend call, in order:
    ``"ok"``/CompileError for compile calls, Report/RuntimeAbort for run
    calls, a percentage for coverage calls (read as the header and TOTAL
    rows of a report printed at two decimals). A ``run_test`` consumes a
    compile entry and, if it compiled, a run entry.
    """

    def compile(self, dut: str, tb: str) -> CompileError | None:
        entry = self._next("compile")
        if entry == "ok":
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
        if isinstance(entry, (int, float)) and not isinstance(entry, bool):
            # Out of 10,000 lines, a two-decimal percentage is an exact count.
            percent = f"{entry:.2f}"
            covered = round(float(percent) * 100)
            return parse_coverage("Line Coverage for Module : mock\n"
                                  "Line No.\tTotal\tCovered\tPercent\n"
                                  f"TOTAL\t\t10000\t{covered}\t{percent}")
        raise ConfigError(f"mock script expected coverage entry, got {entry!r}")
