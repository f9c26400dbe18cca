import json
import re

import pytest

from tbforge.config import Config, make_simulator_factory
from tbforge.corpus import SpecCodePair
from tbforge.errors import ConfigError
from tbforge.llm import (
    ChatRequest,
    LlmSettings,
    Message,
    MockChatClient,
    TemplateName,
    template_body,
)
from tbforge.llm.prompts import TOOL_TEXT_LIMIT
from tbforge.pipeline import (
    PipelineConfig,
    Stage,
    StageTerminated,
    Terminated,
    TerminationStage,
    TestbenchPipeline,
    TraceEntry,
    has_scaffold,
)
from tbforge.sim.backends import CommandSimulator, MockSimulator
from tbforge.sim.config import SimulatorConfig
from tbforge.sim.logparse import parse_coverage
from tbforge.sim.outcomes import CompileError, Report, RuntimeAbort

import cli_fixtures
from fixture_data import AUDIO_ENCODER_DUT, COVERAGE_REPORT_SAMPLE, TESTBENCH_SKELETON

POINTS_JSON = json.dumps({
    "1": {"Point": "reset", "Scenario": "reset during shift", "Application": "init"},
    "2": {"Point": "shift", "Scenario": "valid data shifts", "Application": "stream"},
    "3": {"Point": "underrun", "Scenario": "no data", "Application": "error"},
})

CASES_JSON = json.dumps({
    str(i): {"Title": f"case {i}", "Objective": "check", "Setup": "drive", "Coverage": "c"}
    for i in range(1, 6)
})

PAIR = SpecCodePair(id="p1", spec="A serial audio encoder.", code=AUDIO_ENCODER_DUT)
NO_BACKOFF = LlmSettings(backoff_seconds=0)


def fenced(tb):
    return f"```verilog\n{tb}\n```"


def analyze_script():
    return [POINTS_JSON, CASES_JSON]


def pipeline(llm_script, sim_script, config=None, **kwargs):
    return TestbenchPipeline(MockChatClient(llm_script), MockSimulator(sim_script),
                             config or PipelineConfig(), llm=NO_BACKOFF, **kwargs)


# ---- analyze ----

def test_analyze_returns_points_and_cases():
    p = pipeline(analyze_script(), ["ok"])
    points, cases = p.analyze(PAIR.spec)
    assert len(points) == 3
    assert len(cases) == 5
    # only the specification goes to the model, never the code
    assert all(AUDIO_ENCODER_DUT not in m.content
               for call in p.client.calls for m in call.messages)


def test_analyze_truncates_overlong_lists():
    seven = json.dumps({
        str(i): {"Title": f"t{i}", "Objective": "o", "Setup": "s", "Coverage": "c"}
        for i in range(1, 8)
    })
    p = pipeline([POINTS_JSON, seven], ["ok"])
    _, cases = p.analyze(PAIR.spec)
    assert len(cases) == 5


def test_analyze_prose_twice_fails():
    p = pipeline(["not json", "still not json"], ["ok"])
    with pytest.raises(StageTerminated) as exc:
        p.analyze(PAIR.spec)
    assert exc.value.outcome.stage is TerminationStage.ANALYZE
    assert exc.value.outcome.attempts == 0
    assert len(p.client.calls) == 2


def test_analyze_reply_nested_too_deeply_gets_the_json_reask():
    deep = '{"1": ' + "[" * 3000 + "]" * 3000 + "}"
    p = pipeline([deep, deep], ["ok"])
    with pytest.raises(StageTerminated) as exc:
        p.analyze(PAIR.spec)
    assert exc.value.outcome == Terminated(
        TerminationStage.ANALYZE, 0, "function_points: JSON object nested too deeply")
    assert len(p.client.calls) == 2
    points, _ = pipeline([deep, POINTS_JSON, CASES_JSON], ["ok"]).analyze(PAIR.spec)
    assert len(points) == 3


def test_analyze_reask_recovers():
    p = pipeline(["prose", POINTS_JSON, CASES_JSON], ["ok"])
    points, cases = p.analyze(PAIR.spec)
    assert len(points) == 3
    assert len(p.client.calls) == 3


# ---- draft ----

def test_draft_first_try():
    p = pipeline(analyze_script() + [fenced(TESTBENCH_SKELETON)], ["ok"])
    _, cases = p.analyze(PAIR.spec)
    tb, attempts = p.draft(PAIR.spec, PAIR.code, cases)
    assert attempts == 1
    assert has_scaffold(tb) == ""


def test_draft_terminates_after_max_attempts():
    config = PipelineConfig(max_draft_attempts=3)
    llm = analyze_script() + [fenced(TESTBENCH_SKELETON)] * 3
    sim = [CompileError("e1"), CompileError("e2"), CompileError("e3")]
    p = pipeline(llm, sim, config)
    _, cases = p.analyze(PAIR.spec)
    draft_calls_before = len(p.client.calls)
    with pytest.raises(StageTerminated) as exc:
        p.draft(PAIR.spec, PAIR.code, cases)
    result = exc.value.outcome
    assert result.stage is TerminationStage.DRAFT_COMPILE
    assert result.attempts == 3
    assert result.last_log == "e3"
    # exactly max_draft_attempts LLM draft calls
    assert len(p.client.calls) - draft_calls_before == 3


def test_draft_error_log_fed_back():
    llm = analyze_script() + [fenced(TESTBENCH_SKELETON), fenced(TESTBENCH_SKELETON)]
    sim = [CompileError("undefined signal xyz"), "ok"]
    p = pipeline(llm, sim)
    _, cases = p.analyze(PAIR.spec)
    tb, attempts = p.draft(PAIR.spec, PAIR.code, cases)
    assert attempts == 2
    retry_prompt = p.client.calls[-1].messages[-1].content
    assert "undefined signal xyz" in retry_prompt


def test_draft_scaffold_missing_after_one_retry():
    no_finish = TESTBENCH_SKELETON.replace("$finish;", "")
    llm = analyze_script() + [fenced(no_finish), fenced(no_finish)]
    p = pipeline(llm, ["ok"])
    _, cases = p.analyze(PAIR.spec)
    with pytest.raises(StageTerminated) as exc:
        p.draft(PAIR.spec, PAIR.code, cases)
    assert exc.value.outcome.last_log == "scaffold missing: $finish"
    assert len(p.client.calls) == 4  # 2 analyze + draft + one corrective re-prompt


# The head of the whole Draft request, pinned byte for byte: for the
# cli_fixtures replies, and for a reply whose entries miss keys, carry an
# extra key and hold non-string and non-ASCII values.
ODD_CASES_JSON = ('{"2": {"Coverage": 7, "Title": "d\u00e9bit \u2713", "Extra": "x"}, '
                  '1: {"Setup": ["a", 1], "Objective": null}}')
DRAFT_HEADS = {cli_fixtures.CASES_JSON: """\
Design specification:
A serial audio encoder.

Selected test cases:
{
  "1": {
    "Title": "case 1",
    "Objective": "check",
    "Setup": "drive",
    "Coverage": "dims"
  },
  "2": {
    "Title": "case 2",
    "Objective": "check",
    "Setup": "drive",
    "Coverage": "dims"
  },
  "3": {
    "Title": "case 3",
    "Objective": "check",
    "Setup": "drive",
    "Coverage": "dims"
  },
  "4": {
    "Title": "case 4",
    "Objective": "check",
    "Setup": "drive",
    "Coverage": "dims"
  },
  "5": {
    "Title": "case 5",
    "Objective": "check",
    "Setup": "drive",
    "Coverage": "dims"
  }
}

""", ODD_CASES_JSON: """\
Design specification:
A serial audio encoder.

Selected test cases:
{
  "1": {
    "Title": "",
    "Objective": "None",
    "Setup": "['a', 1]",
    "Coverage": ""
  },
  "2": {
    "Title": "d\u00e9bit \u2713",
    "Objective": "",
    "Setup": "",
    "Coverage": "7"
  }
}

"""}


@pytest.mark.parametrize("cases_json", list(DRAFT_HEADS), ids=["cli_fixtures", "odd"])
def test_draft_request_is_pinned(cases_json):
    p = pipeline([cli_fixtures.POINTS_JSON, cases_json, fenced(TESTBENCH_SKELETON)], ["ok"])
    _, cases = p.analyze(PAIR.spec)
    p.draft(PAIR.spec, PAIR.code, cases)
    prompt = DRAFT_HEADS[cases_json] + template_body(TemplateName.DraftTestbench).replace(
        "{Code}", AUDIO_ENCODER_DUT)
    assert p.client.calls[2] == ChatRequest(messages=(Message("user", prompt),),
                                            temperature=0.0, max_tokens=4096)


# ---- improve ----

def improve_pipeline(coverages, config=None):
    # each improve round: one LLM response, one compile "ok", then re-measure
    llm = []
    sim = []
    for i, cov in enumerate(coverages):
        sim.append(cov)
        if i + 1 < len(coverages):
            llm.append(fenced(TESTBENCH_SKELETON))
            sim.append("ok")
    if not llm:
        llm = ["unused"]
    return pipeline(llm, sim, config)


def test_improve_one_round():
    p = improve_pipeline([83.87, 92.0])
    tb, percent, rounds = p.improve(PAIR.code, TESTBENCH_SKELETON)
    assert percent == 92.0
    assert rounds == 1


def test_improve_zero_rounds():
    p = improve_pipeline([95.0])
    tb, percent, rounds = p.improve(PAIR.code, TESTBENCH_SKELETON)
    assert tb == TESTBENCH_SKELETON
    assert percent == 95.0
    assert rounds == 0


def test_improve_terminates_at_bound():
    p = improve_pipeline([50.0, 60.0, 70.0], PipelineConfig(max_improve_attempts=3))
    with pytest.raises(StageTerminated) as exc:
        p.improve(PAIR.code, TESTBENCH_SKELETON)
    assert exc.value.outcome.stage is TerminationStage.IMPROVE_COVERAGE
    assert exc.value.outcome.attempts == 3


def test_improve_recompile_failure_consumes_attempt():
    llm = [fenced(TESTBENCH_SKELETON), fenced(TESTBENCH_SKELETON)]
    sim = [50.0, CompileError("broken"), "ok", 95.0]
    p = pipeline(llm, sim)
    tb, percent, rounds = p.improve(PAIR.code, TESTBENCH_SKELETON)
    assert percent == 95.0
    assert rounds == 2
    feedback = p.client.calls[-1].messages[-1].content
    assert "broken" in feedback


class SampleCoverageSim:
    """Compiles anything; measures the sample report, uncovered lines
    included, and then 95%."""

    def __init__(self):
        self.reports = iter([parse_coverage(COVERAGE_REPORT_SAMPLE),
                             MockSimulator([95.0]).coverage("", "")])

    def compile(self, dut, tb):
        return None

    def coverage(self, dut, tb):
        return next(self.reports)


def test_improve_prompt_shows_the_uncovered_source_lines():
    p = TestbenchPipeline(MockChatClient([fenced(TESTBENCH_SKELETON)]),
                          SampleCoverageSim(), PipelineConfig(),
                          llm=NO_BACKOFF)
    p.improve(PAIR.code, TESTBENCH_SKELETON)
    prompt = p.client.calls[0].messages[-1].content
    uncovered = [line for line in COVERAGE_REPORT_SAMPLE.splitlines()
                 if line.startswith("0/1 ==>")]
    assert len(uncovered) == 5
    for line in uncovered:
        assert line in prompt


def test_coverage_that_prints_as_full_passes_a_full_threshold(tmp_path):
    # A config script's percent is read back at two decimals: 99.999 is 100.00.
    script = tmp_path / "sim.json"
    script.write_text(json.dumps([{"kind": "coverage", "percent": 99.999}]),
                      encoding="utf-8")
    config = Config(simulator=SimulatorConfig(backend="mock", mock_script=str(script)))
    p = TestbenchPipeline(MockChatClient(["unused"]), make_simulator_factory(config)(),
                          PipelineConfig(coverage_threshold=100), llm=NO_BACKOFF)
    assert p.improve(PAIR.code, TESTBENCH_SKELETON) == (TESTBENCH_SKELETON, 100.0, 0)
    assert p._trace == [TraceEntry(Stage.IMPROVE, "coverage", "pass")]
    assert p.client.calls == []


def test_improve_skip_coverage():
    p = pipeline(["unused"], ["ok"], PipelineConfig(skip_coverage=True))
    tb, percent, rounds = p.improve(PAIR.code, TESTBENCH_SKELETON)
    assert tb == TESTBENCH_SKELETON
    assert percent is None
    assert rounds == 0


def test_improve_without_coverage_support_is_config_error(tmp_path):
    # gen-testbench builds its simulator factory with coverage, which refuses
    # settings that cannot measure it before any row runs. A library caller
    # that improves anyway gets the simulator's own ConfigError, before any
    # chat call.
    settings = SimulatorConfig(coverage_command=None)
    with pytest.raises(ConfigError, match="coverage measurement unavailable"):
        make_simulator_factory(Config(simulator=settings), coverage=True)
    script = tmp_path / "sim.json"
    script.write_text('[{"kind": "coverage", "percent": 50}]', encoding="utf-8")
    mock = SimulatorConfig(backend="mock", mock_script=str(script))
    assert make_simulator_factory(Config(simulator=mock), coverage=True)() is not None
    client = MockChatClient(["x"])
    p = TestbenchPipeline(client, CommandSimulator(settings), PipelineConfig(),
                          llm=NO_BACKOFF)
    with pytest.raises(ConfigError, match="no coverage_command configured"):
        p.improve(PAIR.code, TESTBENCH_SKELETON)
    assert client.calls == []


# ---- rectify ----

def test_rectify_passes_after_one_loop():
    llm = [fenced(TESTBENCH_SKELETON)]
    sim = ["ok", Report(5, 5), "ok", Report(5, 0)]
    p = pipeline(llm, sim)
    tb, report, iterations = p.rectify(PAIR.code, TESTBENCH_SKELETON)
    assert iterations == 1
    assert report.failures == 0


def test_rectify_zero_loops():
    p = pipeline(["unused"], ["ok", Report(5, 0)])
    tb, report, iterations = p.rectify(PAIR.code, TESTBENCH_SKELETON)
    assert iterations == 0


def test_rectify_terminates_after_three_loops():
    llm = [fenced(TESTBENCH_SKELETON)] * 3
    sim = ["ok", Report(5, 5)] * 4
    p = pipeline(llm, sim)
    with pytest.raises(StageTerminated) as exc:
        p.rectify(PAIR.code, TESTBENCH_SKELETON)
    assert exc.value.outcome.stage is TerminationStage.RECTIFY_VERIFY
    assert exc.value.outcome.attempts == 3
    assert len(p.client.calls) == 3


def test_rectify_adds_epilogue_when_missing():
    bare = TESTBENCH_SKELETON.replace('if (error_count == 0) begin\n', "") \
                             .replace('    $display("Your Design Passed");\n', "") \
                             .replace("  end\n  else begin\n", "") \
                             .replace('    $display("Test with %0d failures", error_count);\n  end\n', "")
    assert "Your Design Passed" not in bare
    llm = [fenced(TESTBENCH_SKELETON)]
    sim = ["ok", Report(5, 0)]
    p = pipeline(llm, sim)
    tb, report, iterations = p.rectify(PAIR.code, bare)
    assert iterations == 0
    assert "Your Design Passed" in tb
    assert len(p.client.calls) == 1


def test_rectify_abort_consumes_iteration():
    llm = [fenced(TESTBENCH_SKELETON)]
    sim = ["ok", RuntimeAbort("timeout", "hung"), "ok", Report(5, 0)]
    p = pipeline(llm, sim)
    tb, report, iterations = p.rectify(PAIR.code, TESTBENCH_SKELETON)
    assert iterations == 1
    prompt = p.client.calls[-1].messages[-1].content
    assert "timeout" in prompt


def _command_standin(tmp_path, run_body):
    """A command simulator whose compile succeeds and whose run is the
    shell script ``run_body``."""
    tool = tmp_path / "run"
    tool.write_text("#!/bin/sh\n" + run_body, encoding="utf-8")
    tool.chmod(0o755)
    return CommandSimulator(SimulatorConfig(compile_command="true {out} {dut} {tb}",
                                            run_command=f"{tool} {{out}}"))


def _rectify_once(simulator):
    """Rectify with one loop, which fails; returns (the last log, the one
    Rectify request's prompt)."""
    p = TestbenchPipeline(MockChatClient([fenced(TESTBENCH_SKELETON)]), simulator,
                          PipelineConfig(max_rectify_iterations=1), llm=NO_BACKOFF)
    with pytest.raises(StageTerminated) as exc:
        p.rectify(PAIR.code, TESTBENCH_SKELETON)
    (request,) = p.client.calls
    return exc.value.outcome.last_log, request.messages[-1].content


def test_rectify_quotes_the_run_as_printed(tmp_path):
    printed = ("VCD info: dumpfile dump.vcd opened for output.\n"
               "debug: state=2 count=7\n"
               "Test Case 1. Expected out: 1\nTest Case 1. Actual out: 0\n"
               "Test completed with 1 failure\n")
    simulator = _command_standin(tmp_path, f"printf '{printed}'\n")
    last_log, prompt = _rectify_once(simulator)
    assert last_log == printed
    assert printed in prompt


def test_rectify_quotes_a_mock_run_entrys_log(tmp_path):
    script = tmp_path / "sim.json"
    script.write_text(json.dumps([
        {"kind": "compile"},
        {"kind": "run", "total": 5, "failures": 1, "log": "Test Case 3. Actual out: 7"},
        {"kind": "compile"}, {"kind": "run", "total": 5, "failures": 1}]),
        encoding="utf-8")
    config = Config(simulator=SimulatorConfig(backend="mock", mock_script=str(script)))
    _, prompt = _rectify_once(make_simulator_factory(config)())
    assert prompt.endswith("Below is the simulation output: Test Case 3. Actual out: 7\n")


def test_rectify_does_not_pass_a_run_that_reports_no_case(tmp_path):
    # A run that prints only the pass marker reads 0 of 0 cases: it verifies
    # nothing, so Rectify re-prompts, and its prompt says why.
    simulator = _command_standin(tmp_path, "echo 'Your Design Passed'\n")
    last_log, prompt = _rectify_once(simulator)
    assert last_log == "simulation reported no test case: Your Design Passed\n"
    assert last_log in prompt


def test_rectify_passes_once_a_run_reports_a_case():
    p = pipeline([fenced(TESTBENCH_SKELETON)], ["ok", Report(0, 0), "ok", Report(1, 0)])
    tb, report, iterations = p.rectify(PAIR.code, TESTBENCH_SKELETON)
    assert (report, iterations) == (Report(1, 0), 1)
    assert p._trace == [TraceEntry(Stage.RECTIFY, "verify", "fail"),
                        TraceEntry(Stage.RECTIFY, "verify", "pass")]


def test_rectify_request_cuts_a_run_that_prints_in_a_loop(tmp_path):
    simulator = _command_standin(tmp_path, (
        "echo 'first line'\n"
        "yes 'debug: tick' | head -n 90000\n"  # 12 bytes a line, about 1 MB
        "echo 'Test Case 1. Expected out: 1'\necho 'Test Case 1. Actual out: 0'\n"
        "echo 'Test with 1 failures'\n"))
    last_log, prompt = _rectify_once(simulator)
    assert len(last_log) > 1_000_000
    template = template_body(TemplateName.RectifyTestbench)
    assert len(prompt) <= TOOL_TEXT_LIMIT + len(template)
    assert prompt.count("first line\n") == 1
    assert prompt.rstrip().endswith("\nTest with 1 failures")
    markers = re.findall(r"\n\[\.\.\. (\d+) characters cut \.\.\.\]\n", prompt)
    assert len(markers) == 1
    marker = f"\n[... {markers[0]} characters cut ...]\n"
    kept = len(prompt) - len(template.replace("{Simulation}", "")) - len(marker)
    assert kept + int(markers[0]) == len(last_log)


# ---- full runs ----

def green_scripts():
    llm = analyze_script() + [fenced(TESTBENCH_SKELETON)]
    sim = ["ok", 95.0, "ok", Report(5, 0)]
    return llm, sim


def test_run_all_green():
    llm, sim = green_scripts()
    result = pipeline(llm, sim).run(PAIR)
    assert result.finished
    record = result.outcome.record
    assert record.testcase_count == 5
    assert record.coverage_percent == 95.0
    assert record.provenance.draft_attempts == 1
    stages = [entry.stage for entry in result.trace]
    assert stages == sorted(stages, key=lambda s: list(Stage).index(s))
    assert [e.status for e in result.trace] == ["pass"] * len(result.trace)


def test_run_draft_termination_skips_later_stages():
    llm = analyze_script() + [fenced(TESTBENCH_SKELETON)] * 3
    sim = [CompileError("x")] * 3
    result = pipeline(llm, sim).run(PAIR)
    assert isinstance(result.outcome, Terminated)
    assert result.outcome.stage is TerminationStage.DRAFT_COMPILE
    assert all(entry.stage in (Stage.ANALYZE, Stage.DRAFT) for entry in result.trace)


def test_run_analyze_failure():
    result = pipeline(["prose", "prose"], ["ok"]).run(PAIR)
    assert isinstance(result.outcome, Terminated)
    assert result.outcome.stage is TerminationStage.ANALYZE


def test_run_is_replayable():
    llm, sim = green_scripts()
    a = pipeline(llm, sim).run(PAIR)
    b = pipeline(llm, sim).run(PAIR)
    assert a == b
    # one instance starts each run on a fresh trace and conversation
    p = pipeline(llm * 2, sim * 2)
    assert p.run(PAIR) == p.run(PAIR) == a
    half = len(p.client.calls) // 2
    assert p.client.calls[:half] == p.client.calls[half:]


NO_FINISH = TESTBENCH_SKELETON.replace("$finish;", "")

TERMINATIONS = {
    "empty_spec": (
        [POINTS_JSON], ["ok"], "",
        TerminationStage.ANALYZE, 0, "empty specification", ()),
    "analyze_prose_twice": (
        ["prose", "prose"], ["ok"], PAIR.spec,
        TerminationStage.ANALYZE, 0,
        "function_points: no JSON object in response",
        (TraceEntry(Stage.ANALYZE, "function_points", "max"),)),
    "scaffold_missing_on_first_draft": (
        analyze_script() + [fenced(NO_FINISH)] * 2, ["ok"], PAIR.spec,
        TerminationStage.DRAFT_COMPILE, PipelineConfig().max_draft_attempts,
        "scaffold missing: $finish",
        (TraceEntry(Stage.DRAFT, "scaffold", "max"),)),
    # A later draft without the scaffold, once the re-prompt is spent, ends
    # the row at the bound; attempts still reports the bound, not the drafts.
    "scaffold_missing_after_reprompt_spent": (
        analyze_script() + [fenced(NO_FINISH), fenced(TESTBENCH_SKELETON),
                            fenced(NO_FINISH)],
        [CompileError("e1")], PAIR.spec,
        TerminationStage.DRAFT_COMPILE, PipelineConfig().max_draft_attempts,
        "scaffold missing: $finish",
        (TraceEntry(Stage.DRAFT, "scaffold", "max"),)),
    "draft_compile": (
        analyze_script() + [fenced(TESTBENCH_SKELETON)] * 3,
        [CompileError("e1"), CompileError("e2"), CompileError("e3")], PAIR.spec,
        TerminationStage.DRAFT_COMPILE, 3, "e3",
        (TraceEntry(Stage.DRAFT, "compile", "max"),)),
    "improve": (
        analyze_script() + [fenced(TESTBENCH_SKELETON)] * 3,
        ["ok", 50.0, CompileError("c1"), CompileError("c2")], PAIR.spec,
        TerminationStage.IMPROVE_COVERAGE, 3, "c2",
        (TraceEntry(Stage.IMPROVE, "compile", "max"),)),
    "rectify": (
        analyze_script() + [fenced(TESTBENCH_SKELETON)] * 4,
        ["ok", 95.0] + ["ok", Report(5, 5)] * 3
        + ["ok", RuntimeAbort("timeout", "hung")],
        PAIR.spec, TerminationStage.RECTIFY_VERIFY, 3,
        "simulation aborted (timeout): hung",
        (TraceEntry(Stage.RECTIFY, "verify", "max"),)),
}


@pytest.mark.parametrize("llm, sim, spec, stage, attempts, last_log, trace_tail",
                         TERMINATIONS.values(), ids=TERMINATIONS.keys())
def test_run_turns_each_stage_bound_into_terminated(llm, sim, spec, stage, attempts,
                                                    last_log, trace_tail):
    pair = SpecCodePair(id=PAIR.id, spec=spec, code=PAIR.code)
    result = pipeline(llm, sim).run(pair)
    assert result.outcome == Terminated(stage, attempts, last_log)
    assert result.trace[-1:] == trace_tail


@pytest.mark.parametrize("spec,code,stage,last_log", [
    (PAIR.spec, "   \n", TerminationStage.DRAFT_COMPILE, "empty reference code"),
    ("", "", TerminationStage.ANALYZE, "empty specification"),
], ids=["blank code", "blank spec and code"])
def test_a_blank_input_ends_the_row_before_any_chat_call(spec, code, stage, last_log):
    p = pipeline(analyze_script() + [fenced(TESTBENCH_SKELETON)] * 3, ["ok"])
    result = p.run(SpecCodePair(id=PAIR.id, spec=spec, code=code))
    assert result.outcome == Terminated(stage, 0, last_log)
    assert result.trace == ()
    assert p.client.calls == []
    assert p.simulator.calls == []


def test_terminated_never_carries_record():
    llm = analyze_script() + [fenced(TESTBENCH_SKELETON)] * 3
    sim = [CompileError("x")] * 3
    result = pipeline(llm, sim).run(PAIR)
    assert not hasattr(result.outcome, "record")


def test_finished_implies_last_verify_passed():
    llm, sim = green_scripts()
    result = pipeline(llm, sim).run(PAIR)
    rectify_entries = [e for e in result.trace if e.stage is Stage.RECTIFY]
    assert rectify_entries[-1].status == "pass"


class RandomBehaviorSim:
    """Responds with seeded random outcomes; used to probe attempt bounds."""

    def __init__(self, rng):
        self.rng = rng

    def compile(self, dut, tb):
        if self.rng.random() < 0.4:
            return CompileError("random compile failure")
        return None

    def run_test(self, dut, tb):
        error = self.compile(dut, tb)
        if error is not None:
            return error
        if self.rng.random() < 0.2:
            return RuntimeAbort("timeout")
        total = self.rng.randint(1, 6)
        return Report(total, self.rng.randint(0, total))

    def coverage(self, dut, tb):
        from tbforge.sim.outcomes import CoverageReport
        covered = self.rng.randint(0, 10000)
        return CoverageReport("m", 10000, covered, round(covered / 100.0, 2))


def test_llm_call_bounds_hold_for_random_tool_behavior():
    import random as random_mod
    config = PipelineConfig()
    bound = (2  # analyze: one call per template, JSON always valid here
             + config.max_draft_attempts
             + config.max_improve_attempts
             + config.max_rectify_iterations)
    for seed in range(60):
        llm = MockChatClient(analyze_script() + [fenced(TESTBENCH_SKELETON)] * 12)
        sim = RandomBehaviorSim(random_mod.Random(seed))
        result = TestbenchPipeline(llm, sim, config, llm=NO_BACKOFF).run(PAIR)
        assert result is not None
        assert len(llm.calls) <= bound, f"seed {seed}: {len(llm.calls)} calls"


def test_fault_injection_schedule_counts_match():
    # the injection schedule itself is the oracle for batch outcome counts
    schedule = ["green", "draft_fail", "green", "rectify_fail", "green",
                "draft_fail", "green", "green", "rectify_fail", "green"]
    outcomes = []
    for kind in schedule:
        if kind == "green":
            llm, sim = green_scripts()
        elif kind == "draft_fail":
            llm = analyze_script() + [fenced(TESTBENCH_SKELETON)] * 3
            sim = [CompileError("x")] * 3
        else:
            llm = analyze_script() + [fenced(TESTBENCH_SKELETON)] * 4
            sim = ["ok", 95.0] + ["ok", Report(5, 5)] * 4
        result = pipeline(llm, sim).run(PAIR)
        outcomes.append(result)

    finished = sum(1 for r in outcomes if r.finished)
    draft_terms = sum(1 for r in outcomes
                      if isinstance(r.outcome, Terminated)
                      and r.outcome.stage is TerminationStage.DRAFT_COMPILE)
    rectify_terms = sum(1 for r in outcomes
                        if isinstance(r.outcome, Terminated)
                        and r.outcome.stage is TerminationStage.RECTIFY_VERIFY)
    assert finished == schedule.count("green")
    assert draft_terms == schedule.count("draft_fail")
    assert rectify_terms == schedule.count("rectify_fail")
