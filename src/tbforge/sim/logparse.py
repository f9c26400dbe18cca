"""The testbench report format: the scaffold a testbench must print, and
parsers for simulator stdout and line-coverage reports.

Testbenches print a TestCases banner, one "Test Case N. Expected ..." /
"Test Case N. Actual ..." line pair per case, and finish with either "Your
Design Passed" or a failure-count line. Both failure phrasings seen in the
wild ("Test with N failures", "Test completed with N failure") are accepted,
singular or plural.
"""

from __future__ import annotations

import re
from fractions import Fraction

from tbforge.errors import UnparseableLog, UnparseableReport
from tbforge.sim.outcomes import CaseLine, CoverageReport, Report

# The first "Test Case N." on a line decides its case and, by the word that
# follows, its kind; later text on the line is the case's value.
_CASE_LINE = re.compile(r"Test Case (\d+)\.(?:\s*(Expected|Actual)\s?(.*))?")
_FAILURES = re.compile(r"^\s*Test (?:completed )?with (\d+) failures?\.?\s*$")
PASS_MARKER = "Your Design Passed"
TESTCASE_BANNER = "===========TestCases==========="
_EXPECTED_LINE = re.compile(r"Test Case \d+\.\s*Expected")
_ACTUAL_LINE = re.compile(r"Test Case \d+\.\s*Actual")
CASE_MARKER = re.compile(r"Test Case (\d+)\.")

_COVERAGE_TOTAL = re.compile(r"^TOTAL\s+(\d+)\s+(\d+)\s+(\d+(?:\.(\d+))?)\s*$")
_COVERAGE_MODULE = re.compile(r"^Line Coverage for Module\s*:\s*(\S+)")
_LINE_FLAG = re.compile(r"^\s*([01])/1(?!\d)")


def parse_sim_log(stdout: str) -> Report:
    """Parse simulator stdout into a Report.

    The verdict is the last line, outside the test-case lines, that holds
    the pass marker or a failure count. Raises UnparseableLog when there is
    no such line.
    """
    failures = None
    indices: set[int] = set()
    values: dict[str, dict[int, str]] = {"Expected": {}, "Actual": {}}
    for line in stdout.splitlines():
        case = _CASE_LINE.search(line)
        if case:
            index = int(case.group(1))
            indices.add(index)
            if case.group(2):
                values[case.group(2)].setdefault(index, case.group(3).rstrip())
            continue
        m = _FAILURES.match(line)
        if m:
            failures = int(m.group(1))
        elif PASS_MARKER in line:
            failures = 0
    if failures is None:
        raise UnparseableLog("no terminal pass/failure marker in simulation log")

    total = max(indices) if indices else 0
    inconsistent = False
    if failures > total:
        total = failures
        inconsistent = True

    case_lines = tuple(
        CaseLine(case=i, expected=values["Expected"].get(i, ""),
                 actual=values["Actual"].get(i, ""))
        for i in sorted(indices)
    )
    return Report(total_cases=total, failures=failures, case_lines=case_lines,
                  inconsistent=inconsistent, log=stdout)


def has_scaffold(tb: str) -> str:
    """Textual lint for the reporting scaffolding a draft must carry: names
    what the testbench lacks, or "" when it is complete."""
    missing = []
    if TESTCASE_BANNER not in tb:
        missing.append("TestCases banner")
    if not _EXPECTED_LINE.search(tb):
        missing.append("Expected display line")
    if not _ACTUAL_LINE.search(tb):
        missing.append("Actual display line")
    if "$finish" not in tb:
        missing.append("$finish")
    return ", ".join(missing)


def has_score_epilogue(tb: str) -> bool:
    return "error_count" in tb and PASS_MARKER in tb


def parse_coverage(report: str) -> CoverageReport:
    """Parse a textual line-coverage report.

    The TOTAL row carries total/covered/percent; lines prefixed ``1/1`` are
    covered and ``0/1 ==>`` uncovered, keyed by their 1-based position in
    the report text. Raises UnparseableReport when the TOTAL row is absent
    or out of range, or its percent disagrees with covered/total by more
    than half a unit in the percent's last printed decimal place.
    """
    module_name = ""
    total_row = None
    flags: list[tuple[int, bool]] = []

    for lineno, line in enumerate(report.splitlines(), start=1):
        m = _COVERAGE_MODULE.match(line)
        if m:
            module_name = m.group(1)
            continue
        m = _COVERAGE_TOTAL.match(line.replace("\t", " ").strip())
        if m and total_row is None:
            total_row = m
            continue
        m = _LINE_FLAG.match(line)
        if m:
            flags.append((lineno, m.group(1) == "1"))

    if total_row is None:
        raise UnparseableReport("no TOTAL row in coverage report")
    total, covered = int(total_row.group(1)), int(total_row.group(2))
    printed = Fraction(total_row.group(3))
    if covered > total or printed > 100:
        raise UnparseableReport(
            f"TOTAL row {covered}/{total} at {total_row.group(3)}% is out of range")
    tolerance = Fraction(1, 2 * 10 ** len(total_row.group(4) or ""))
    if total > 0 and abs(Fraction(100 * covered, total) - printed) > tolerance:
        raise UnparseableReport(
            f"TOTAL percent {total_row.group(3)} inconsistent with {covered}/{total}")
    return CoverageReport(module_name=module_name, total_lines=total,
                          covered_lines=covered, percent=float(total_row.group(3)),
                          line_flags=tuple(flags), text=report)
