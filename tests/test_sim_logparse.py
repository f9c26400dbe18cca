import os
import subprocess
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tbforge.errors import UnparseableLog, UnparseableReport
from tbforge.sim.logparse import parse_coverage, parse_sim_log
from tbforge.sim.outcomes import CaseLine, Report

from fixture_data import COVERAGE_REPORT_SAMPLE, SIM_LOG_ALL_PASS, SIM_LOG_FIVE_FAILURES


# ---- simulation logs ----

def test_five_failures_log():
    report = parse_sim_log(SIM_LOG_FIVE_FAILURES)
    assert report.failures == 5
    assert report.total_cases >= 1
    case1 = report.case_lines[0]
    assert case1.case == 1
    assert case1.expected == "i_ready: 2'b01, is_underrun: 3'b100"
    assert case1.actual == "i_ready: 0, is_underrun: 0"
    # five failures against one observed case: clamped and flagged
    assert report.inconsistent
    assert report.total_cases == 5


def test_all_pass_log():
    report = parse_sim_log(SIM_LOG_ALL_PASS)
    assert report.failures == 0
    assert report.total_cases == 2
    assert report.passed == report.total_cases
    assert not report.inconsistent


def test_pass_marker_with_single_case():
    report = parse_sim_log("===TestCases===\nTest Case 1. Actual x: 3\nYour Design Passed\n")
    assert report.failures == 0
    assert report.passed == report.total_cases == 1


def test_completed_with_variant_and_singular():
    report = parse_sim_log("Test Case 1. Expected x: 1\nTest Case 1. Actual x: 0\n"
                           "Test completed with 1 failure\n")
    assert report.failures == 1
    assert report.total_cases == 1


def test_truncated_log_unparseable():
    with pytest.raises(UnparseableLog):
        parse_sim_log("Test Case 1. Expected x: 1\nTest Case 1. Actual x: 0\n")


def test_failure_marker_must_fill_line():
    # an Expected payload echoing the phrase is not a terminal marker
    with pytest.raises(UnparseableLog):
        parse_sim_log("Test Case 1. Expected Test with 3 failures\n")


def test_last_failure_marker_wins():
    report = parse_sim_log(
        "Test Case 1. Actual x: 0\nTest with 3 failures\nTest with 2 failures\n")
    assert report.failures == 2


def test_failure_line_after_pass_marker_wins():
    report = parse_sim_log(
        "Test Case 1. Actual x: 0\nYour Design Passed\nTest with 1 failures\n")
    assert report.failures == 1


def test_pass_marker_after_failure_line_wins():
    report = parse_sim_log(
        "Test Case 1. Actual x: 0\nTest with 1 failures\nYour Design Passed\n")
    assert report.failures == 0


def test_pass_marker_in_case_line_is_not_a_verdict():
    with pytest.raises(UnparseableLog):
        parse_sim_log("Test Case 1. Actual Your Design Passed\n")


def numbered_log(cases, failures):
    """A log whose case lines carry the numbers ``cases``, ending in
    ``failures``' verdict."""
    lines = [f"Test Case {i}. {kind} x: {i}" for i in cases for kind in ("Expected", "Actual")]
    lines.append(f"Test with {failures} failures" if failures else "Your Design Passed")
    return "\n".join(lines) + "\n"


# A log's cases are its distinct case numbers, wherever the numbering starts.
@pytest.mark.parametrize("cases,failures,total,passed", [
    (range(5), 0, 5, 5),
    (range(5), 4, 5, 1),
    (range(5), 5, 5, 0),
    ([0], 0, 1, 1),
    ([1, 3], 0, 2, 2),
    ([2, 2, 7], 1, 2, 1),
])
def test_cases_are_the_distinct_case_numbers(cases, failures, total, passed):
    report = parse_sim_log(numbered_log(cases, failures))
    assert (report.total_cases, report.passed) == (total, passed)
    assert not report.inconsistent


def render_sim_log(report: Report) -> str:
    """The reference renderer: a Report in the display format the generated
    testbenches print and parse_sim_log reads."""
    lines = ["===========TestCases==========="]
    for case in report.case_lines:
        lines.append(f"Test Case {case.case}. Expected {case.expected}")
        lines.append(f"Test Case {case.case}. Actual {case.actual}")
    lines.append("===========End===========")
    if report.failures == 0:
        lines.append("Your Design Passed")
    else:
        lines.append(f"Test with {report.failures} failures")
    return "\n".join(lines) + "\n"


_case_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    min_size=0, max_size=30,
).map(str.strip)


@st.composite
def _reports(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    failures = draw(st.integers(min_value=0, max_value=n))
    cases = tuple(
        CaseLine(case=i, expected=draw(_case_text), actual=draw(_case_text))
        for i in range(1, n + 1)
    )
    return Report(total_cases=n, failures=failures, case_lines=cases)


@given(_reports())
@example(Report(total_cases=1, failures=1, case_lines=(
    CaseLine(case=1, expected="", actual="Your Design Passed"),)))
@example(Report(total_cases=1, failures=0, case_lines=(
    CaseLine(case=1, expected="Test Case 2.", actual="x"),)))
@example(Report(total_cases=1, failures=1, case_lines=(
    CaseLine(case=1, expected="a", actual="Test Case 1. Expected b"),)))
def test_render_parse_roundtrip(report):
    parsed = parse_sim_log(render_sim_log(report))
    assert parsed == report


@given(_reports())
def test_passed_formula(report):
    parsed = parse_sim_log(render_sim_log(report))
    assert parsed.passed == parsed.total_cases - parsed.failures
    assert parsed.passed >= 0


def test_report_keeps_the_output_as_printed():
    out = "VCD info: dumpfile dump.vcd opened for output.\n" + SIM_LOG_FIVE_FAILURES
    report = parse_sim_log(out)
    assert report.log == out
    bare = Report(report.total_cases, report.failures, report.case_lines,
                  report.inconsistent)
    assert bare.log == "" and bare == report and hash(bare) == hash(report)


@pytest.mark.parametrize("fails", [0, 2])
def test_reference_renderer_reproduces_the_benchmark_standin(tmp_path, fails):
    # The benchmark's stand-in prints exactly this format, so a Rectify
    # prompt that quotes its output reads as the re-rendered report did.
    compiled = tmp_path / "sim.out"
    compiled.write_text(f"// bench: fails={fails} total=5\n", encoding="utf-8")
    standin = Path(__file__).resolve().parents[1] / "bench" / "standin.sh"
    proc = subprocess.run(
        ["bash", str(standin), "run", str(compiled)], capture_output=True, text=True,
        env={**os.environ, "TBBENCH_SIMLOG": str(tmp_path / "simlog")}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert parse_sim_log(proc.stdout).failures == fails
    assert render_sim_log(parse_sim_log(proc.stdout)) == proc.stdout


# ---- coverage reports ----

def test_coverage_sample():
    cov = parse_coverage(COVERAGE_REPORT_SAMPLE)
    assert cov.module_name == "serial_audio_encoder"
    assert cov.total_lines == 31
    assert cov.covered_lines == 26
    assert cov.percent == 83.87
    marks = [covered for _, covered in cov.line_flags]
    assert marks == [True] * 5 + [False] * 5


def test_coverage_flags_point_at_marked_lines():
    cov = parse_coverage(COVERAGE_REPORT_SAMPLE)
    lines = COVERAGE_REPORT_SAMPLE.splitlines()
    for lineno, covered in cov.line_flags:
        prefix = "1/1" if covered else "0/1"
        assert lines[lineno - 1].lstrip().startswith(prefix)


def test_coverage_all_covered():
    text = (
        "Line Coverage for Module : m\n"
        "TOTAL\t4\t4\t100.00\n"
        "1/1 a <= b;\n1/1 c <= d;\n1/1 e <= f;\n1/1 g <= h;\n"
    )
    cov = parse_coverage(text)
    assert cov.percent == 100.00
    assert all(flag for _, flag in cov.line_flags)


def test_coverage_handcrafted_ten_lines():
    body = []
    for i in range(10):
        marker = "0/1 ==>" if i in (2, 5, 8) else "1/1"
        body.append(f"{marker} stmt_{i};")
    text = "Line Coverage for Module : m\nTOTAL\t10\t7\t70.00\n" + "\n".join(body) + "\n"
    cov = parse_coverage(text)
    assert cov.percent == pytest.approx(70.00)
    assert cov.total_lines == 10
    assert cov.covered_lines == 7
    uncovered = [lineno for lineno, flag in cov.line_flags if not flag]
    assert len(uncovered) == 3
    assert len(cov.line_flags) == 10


@pytest.mark.parametrize("row, percent", [
    ("TOTAL 3 2 66.7", 66.7),
    ("TOTAL 3 2 66.67", 66.67),
    ("TOTAL 3 2 67", 67.0),
    ("TOTAL 16 3 18.8", 18.8),
])
def test_coverage_percent_checked_to_printed_precision(row, percent):
    assert parse_coverage(row + "\n").percent == percent


@pytest.mark.parametrize("row", ["TOTAL 3 2 66.6", "TOTAL 3 2 66.70", "TOTAL 3 2 66"])
def test_coverage_inconsistent_percent_rejected(row):
    with pytest.raises(UnparseableReport, match="inconsistent"):
        parse_coverage(row + "\n")


def test_coverage_missing_total_row():
    with pytest.raises(UnparseableReport):
        parse_coverage("Line Coverage for Module : m\n1/1 x;\n")


@pytest.mark.parametrize("row", ["TOTAL 2 3 150", "TOTAL 0 0 150", "TOTAL 0 1 0"])
def test_coverage_out_of_range_rejected(row):
    with pytest.raises(UnparseableReport, match="out of range"):
        parse_coverage(row + "\n")
