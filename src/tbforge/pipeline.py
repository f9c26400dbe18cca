"""The Analyze -> Draft -> Improve -> Rectify testbench generation machine.

Each stage calls the chat backend, feeds tool output back on failure, and
ends the row when its attempt bound is hit:

  Analyze  extracts top-3 function points and top-5 test cases from the
           specification only (the code is never shown at this stage).
  Draft    renders the testbench prompt with the DUT code and re-prompts
           with the compiler log until the draft compiles.
  Improve  measures line coverage and re-prompts with the report as the
           coverage tool printed it, uncovered lines marked, until coverage
           reaches the threshold. Attempts are consumed by below-threshold
           measurements and by failed recompiles, so a coverage script like
           [50, 60, 70] with three attempts terminates on the third low
           measurement.
  Rectify  makes sure the testbench reports a final score (one render pass
           adds the error_count epilogue when missing), then runs the
           simulator and re-prompts with the simulation output until the
           log says the design passed, for at most the configured number of
           rectification loops.

A stage that hits its bound raises StageTerminated, and run() turns it into
the row's Terminated outcome. One pipeline instance is strictly sequential:
it owns the row's trace and the conversation Draft, Improve and Rectify
share, and run() starts both fresh. Run any number of instances
concurrently.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

from tbforge.corpus import SpecCodePair
from tbforge.errors import ConfigError, MalformedJson
from tbforge.llm.client import ChatRequest, LlmSettings, Message, complete
from tbforge.llm.postprocess import (
    FunctionPoint,
    TestCaseSpec,
    extract_code_block,
    parse_function_points,
    parse_testcases,
)
from tbforge.llm.prompts import (
    DRAFT_COMPILE_FEEDBACK,
    IMPROVE_COMPILE_FEEDBACK,
    JSON_REASK,
    SCAFFOLD_FEEDBACK,
    TemplateName,
    render,
    render_text,
)
from tbforge.sim.backends import SimulatorBackend
from tbforge.sim.outcomes import CompileError, Report, RuntimeAbort
from tbforge.sim.logparse import PASS_MARKER, render_sim_log

TESTCASE_BANNER = "===========TestCases==========="
_EXPECTED_LINE = re.compile(r"Test Case \d+\.\s*Expected")
_ACTUAL_LINE = re.compile(r"Test Case \d+\.\s*Actual")
_CASE_MARKER = re.compile(r"Test Case (\d+)\.")


class Stage(Enum):
    ANALYZE = "analyze"
    DRAFT = "draft"
    IMPROVE = "improve"
    RECTIFY = "rectify"


class TerminationStage(Enum):
    ANALYZE = "Analyze"
    DRAFT_COMPILE = "DraftCompile"
    IMPROVE_COVERAGE = "ImproveCoverage"
    RECTIFY_VERIFY = "RectifyVerify"


@dataclass(frozen=True)
class TraceEntry:
    stage: Stage
    action: str
    status: str  # pass | fail | max


@dataclass(frozen=True)
class PipelineConfig:
    max_draft_attempts: int = 3
    max_improve_attempts: int = 3
    max_rectify_iterations: int = 3
    coverage_threshold: float = 90.0
    skip_coverage: bool = False

    def __post_init__(self):
        for name in ("max_draft_attempts", "max_improve_attempts",
                     "max_rectify_iterations"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 0 < self.coverage_threshold <= 100:
            raise ConfigError("coverage_threshold must be in (0, 100]")


@dataclass(frozen=True)
class Provenance:
    draft_attempts: int = 0
    improve_rounds: int = 0
    rectify_iterations: int = 0


@dataclass(frozen=True)
class TestbenchRecord:
    testbench: str
    testcase_count: int
    function_points: tuple[FunctionPoint, ...]
    testcases: tuple[TestCaseSpec, ...]
    coverage_percent: float | None
    provenance: Provenance

    def __post_init__(self):
        if self.testcase_count < 1:
            raise ValueError("testcase_count must be >= 1")


@dataclass(frozen=True)
class Finished:
    record: TestbenchRecord


@dataclass(frozen=True)
class Terminated:
    stage: TerminationStage
    attempts: int
    last_log: str = ""


@dataclass(frozen=True)
class PipelineResult:
    outcome: Union[Finished, Terminated]
    trace: tuple[TraceEntry, ...] = field(default=())

    @property
    def finished(self) -> bool:
        return isinstance(self.outcome, Finished)


class StageTerminated(Exception):
    """Raised by a stage that hits its bound; carries the row's outcome."""

    def __init__(self, stage: TerminationStage, attempts: int, last_log: str):
        super().__init__(f"{stage.value} terminated after {attempts} attempts")
        self.outcome = Terminated(stage, attempts, last_log)


_TERMINATES_AT = {
    Stage.DRAFT: TerminationStage.DRAFT_COMPILE,
    Stage.IMPROVE: TerminationStage.IMPROVE_COVERAGE,
    Stage.RECTIFY: TerminationStage.RECTIFY_VERIFY,
}


def has_scaffold(tb: str) -> tuple[bool, str]:
    """Textual lint for the reporting scaffolding a draft must carry."""
    missing = []
    if TESTCASE_BANNER not in tb:
        missing.append("TestCases banner")
    if not _EXPECTED_LINE.search(tb):
        missing.append("Expected display line")
    if not _ACTUAL_LINE.search(tb):
        missing.append("Actual display line")
    if "$finish" not in tb:
        missing.append("$finish")
    return (not missing, ", ".join(missing))


def has_score_epilogue(tb: str) -> bool:
    return "error_count" in tb and PASS_MARKER in tb


def _outcome_log(outcome) -> str:
    if isinstance(outcome, Report):
        return render_sim_log(outcome)
    if isinstance(outcome, CompileError):
        return outcome.log
    if isinstance(outcome, RuntimeAbort):
        return f"simulation aborted ({outcome.reason}): {outcome.log}"
    return str(outcome)


class TestbenchPipeline:
    __test__ = False  # not a pytest class, despite the name

    def __init__(self, client, simulator: SimulatorBackend,
                 config: PipelineConfig | None = None, *,
                 llm: LlmSettings | None = None):
        self.client = client
        self.simulator = simulator
        self.config = config or PipelineConfig()
        self.llm = llm or LlmSettings()
        if not self.config.skip_coverage and not simulator.supports_coverage:
            raise ConfigError(
                "coverage measurement unavailable; configure a coverage "
                "command or set skip_coverage")
        self._trace: list[TraceEntry] = []
        self._conversation: list[Message] = []  # shared by Draft, Improve, Rectify

    # -- plumbing --

    def _ask(self, conversation: list[Message], text: str) -> str:
        conversation.append(Message("user", text))
        request = ChatRequest(messages=tuple(conversation),
                              temperature=self.llm.temperature,
                              max_tokens=self.llm.max_tokens)
        response = complete(self.client, request, retries=self.llm.retries,
                            backoff=self.llm.backoff_seconds)
        conversation.append(Message("assistant", response))
        return response

    def _record(self, stage: Stage, action: str, status: str) -> None:
        self._trace.append(TraceEntry(stage=stage, action=action, status=status))

    def _fail(self, stage: Stage, action: str, used: int, bound: int,
              log: str) -> None:
        """Record a failed step; once ``used`` reaches ``bound``, record it
        as the last one and terminate the row at this stage."""
        at_bound = used >= bound
        self._record(stage, action, "max" if at_bound else "fail")
        if at_bound:
            raise StageTerminated(_TERMINATES_AT[stage], used, log)

    def _draft_reply(self, text: str) -> tuple[str, str]:
        """Ask for a draft; returns (testbench, what its scaffold lacks, or
        "" when it is complete)."""
        tb = extract_code_block(self._ask(self._conversation, text))
        return tb, has_scaffold(tb)[1] if tb else "no code in response"

    # -- stages --

    def analyze(self, spec: str) -> tuple[
            tuple[FunctionPoint, ...], tuple[TestCaseSpec, ...]]:
        """Derive function points then test cases, sharing one conversation.

        Only the specification is shown, keeping the focus on intended
        behavior rather than implementation details.
        """
        if not spec.strip():
            raise StageTerminated(TerminationStage.ANALYZE, 0, "empty specification")
        conversation: list[Message] = []

        def ask_json(prompt: str, parse, action: str):
            for text, status in ((prompt, "fail"), (JSON_REASK, "max")):
                response = self._ask(conversation, text)
                try:
                    parsed = parse(response)
                except MalformedJson as exc:
                    self._record(Stage.ANALYZE, action, status)
                    if status == "max":
                        raise StageTerminated(TerminationStage.ANALYZE, 0,
                                              f"{action}: {exc}") from exc
                else:
                    self._record(Stage.ANALYZE, action, "pass")
                    return parsed

        points = ask_json(
            render(TemplateName.GenerateFunctionPoints, Specification=spec),
            parse_function_points, "function_points")
        cases = ask_json(
            render(TemplateName.GenerateTestCases),
            parse_testcases, "testcases")
        return tuple(points), tuple(cases)

    def draft(self, spec: str, code: str,
              testcases: tuple[TestCaseSpec, ...]) -> tuple[str, int]:
        """Generate a compiling testbench draft; returns (tb, attempts used).

        A draft that lacks the reporting scaffold gets one corrective
        re-prompt per row; a second such draft terminates the row."""
        cases_json = json.dumps(
            {str(i + 1): {"Title": c.title, "Objective": c.objective,
                          "Setup": c.setup, "Coverage": c.coverage}
             for i, c in enumerate(testcases)},
            ensure_ascii=False, indent=2)
        prompt = (
            f"Design specification:\n{spec}\n\n"
            f"Selected test cases:\n{cases_json}\n\n"
            + render(TemplateName.DraftTestbench, Code=code)
        )

        scaffold_retry_used = False
        for attempt in itertools.count(1):
            tb, missing = self._draft_reply(prompt)
            if missing:
                self._record(Stage.DRAFT, "scaffold", "fail")
                if not scaffold_retry_used:
                    scaffold_retry_used = True
                    tb, missing = self._draft_reply(
                        render_text(SCAFFOLD_FEEDBACK, ErrorLog=missing))
                    if missing:
                        self._record(Stage.DRAFT, "scaffold", "max")
                if missing:
                    raise StageTerminated(TerminationStage.DRAFT_COMPILE,
                                          self.config.max_draft_attempts,
                                          f"scaffold missing: {missing}")

            error = self.simulator.compile(code, tb)
            if error is None:
                self._record(Stage.DRAFT, "compile", "pass")
                return tb, attempt
            self._fail(Stage.DRAFT, "compile", attempt,
                       self.config.max_draft_attempts, error.log)
            prompt = render_text(DRAFT_COMPILE_FEEDBACK,
                                 PreviousTestbench=tb, ErrorLog=error.log)

    def improve(self, code: str, tb: str) -> tuple[str, float | None, int]:
        """Raise line coverage to the threshold; returns (tb, percent, rounds)."""
        if self.config.skip_coverage:
            self._record(Stage.IMPROVE, "skip", "pass")
            return tb, None, 0

        bound = self.config.max_improve_attempts
        attempts = 0
        rounds = 0
        while True:
            report = self.simulator.coverage(code, tb)
            if report.percent >= self.config.coverage_threshold:
                self._record(Stage.IMPROVE, "coverage", "pass")
                return tb, report.percent, rounds
            attempts += 1
            self._fail(Stage.IMPROVE, "coverage", attempts, bound, report.text)

            prompt = render(TemplateName.ImproveTestbench,
                            CoverageReport=report.text)
            while True:
                candidate = extract_code_block(self._ask(self._conversation, prompt))
                rounds += 1
                error_log = "no code in response"
                if candidate:
                    error = self.simulator.compile(code, candidate)
                    if error is None:
                        tb = candidate
                        self._record(Stage.IMPROVE, "compile", "pass")
                        break
                    error_log = error.log
                attempts += 1
                self._fail(Stage.IMPROVE, "compile", attempts, bound, error_log)
                prompt = render_text(IMPROVE_COMPILE_FEEDBACK,
                                     CoverageReport=report.text,
                                     ErrorLog=error_log)

    def rectify(self, code: str, tb: str) -> tuple[str, Report, int]:
        """Align testbench expectations with the code; returns
        (tb, final report, rectification loops used)."""
        if not has_score_epilogue(tb):
            tb = extract_code_block(self._ask(
                self._conversation,
                render(TemplateName.RectifyTestbench, Simulation=""))) or tb

        iterations = 0
        while True:
            outcome = self.simulator.run_test(code, tb)
            if isinstance(outcome, Report) and outcome.failures == 0:
                self._record(Stage.RECTIFY, "verify", "pass")
                return tb, outcome, iterations
            log = _outcome_log(outcome)
            self._fail(Stage.RECTIFY, "verify", iterations,
                       self.config.max_rectify_iterations, log)
            iterations += 1
            tb = extract_code_block(self._ask(
                self._conversation,
                render(TemplateName.RectifyTestbench, Simulation=log))) or tb

    # -- composition --

    def run(self, pair: SpecCodePair) -> PipelineResult:
        """Run the full pipeline on a fresh trace and conversation; a stage
        that hits its bound ends the row as a Terminated result."""
        self._trace = []
        self._conversation = []
        try:
            points, cases = self.analyze(pair.spec)
            tb, draft_attempts = self.draft(pair.spec, pair.code, cases)
            tb, coverage_percent, improve_rounds = self.improve(pair.code, tb)
            tb, final_report, rectify_iterations = self.rectify(pair.code, tb)
        except StageTerminated as exc:
            return PipelineResult(outcome=exc.outcome, trace=tuple(self._trace))

        testcase_count = final_report.total_cases
        if testcase_count < 1:
            markers = {int(m.group(1)) for m in _CASE_MARKER.finditer(tb)}
            testcase_count = max(markers) if markers else 1
        record = TestbenchRecord(
            testbench=tb,
            testcase_count=testcase_count,
            function_points=points,
            testcases=cases,
            coverage_percent=coverage_percent,
            provenance=Provenance(draft_attempts=draft_attempts,
                                  improve_rounds=improve_rounds,
                                  rectify_iterations=rectify_iterations),
        )
        return PipelineResult(outcome=Finished(record), trace=tuple(self._trace))
