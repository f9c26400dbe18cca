"""Structured results of compiling and running a DUT under a testbench."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union


@dataclass(frozen=True)
class CaseLine:
    case: int
    expected: str
    actual: str


@dataclass(frozen=True)
class Report:
    """Parsed per-testcase verification report.

    ``inconsistent`` marks logs whose failure count exceeded the observed
    testcase count; total_cases is then the failure count so the passed
    count is never inflated.
    """

    total_cases: int
    failures: int
    case_lines: tuple[CaseLine, ...] = ()
    inconsistent: bool = False

    def __post_init__(self):
        if self.total_cases < 0 or self.failures < 0:
            raise ValueError("counts must be nonnegative")
        if self.failures > self.total_cases:
            raise ValueError("failures exceed total_cases")

    @property
    def passed(self) -> int:
        return self.total_cases - self.failures


@dataclass(frozen=True)
class CompileError:
    log: str


@dataclass(frozen=True)
class RuntimeAbort:
    reason: str  # "timeout" | "crash"
    log: str = ""

    def __post_init__(self):
        if self.reason not in ("timeout", "crash"):
            raise ValueError(f"unknown abort reason {self.reason!r}")


SimOutcome = Union[Report, CompileError, RuntimeAbort]


@dataclass(frozen=True)
class CoverageReport:
    """Line-coverage summary plus per-line covered flags.

    ``text`` is the report as the coverage tool printed it, with the
    source text of each marked line; ``line_flags`` index lines of that
    text (1-based) carrying a 0/1-style marker, in report order.
    """

    module_name: str
    total_lines: int
    covered_lines: int
    percent: float
    line_flags: tuple[tuple[int, bool], ...] = field(default=())
    text: str = ""

    def __post_init__(self):
        if self.covered_lines > self.total_lines:
            raise ValueError("covered_lines exceeds total_lines")
        if not 0.0 <= self.percent <= 100.0:
            raise ValueError(f"percent out of range: {self.percent}")
