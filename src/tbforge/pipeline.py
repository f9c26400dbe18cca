"""The Analyze -> Draft -> Improve -> Rectify testbench generation machine.

Each stage calls the chat backend, feeds tool output back on failure, and
ends the row when its attempt bound is hit:

  Analyze  extracts top-3 function points and top-5 test cases from the
           specification only (the code is never shown at this stage).
  Draft    renders the testbench prompt with the DUT code and Analyze's
           test cases, quoted as they were parsed, and re-prompts with the
           compiler log until the draft compiles.
  Improve  measures line coverage and re-prompts with the report as the
           coverage tool printed it, uncovered lines marked, until coverage
           reaches the threshold. Attempts are consumed by below-threshold
           measurements and by failed recompiles, so a coverage script like
           [50, 60, 70] with three attempts terminates on the third low
           measurement.
  Rectify  makes sure the testbench reports a final score (one render pass
           adds the error_count epilogue when missing), then runs the
           simulator and re-prompts with its output as printed, as Improve
           does with the coverage report, until the design passes, for at
           most the configured number of rectification loops.

A stage that hits its bound raises StageTerminated, and run() turns it into
the row's Terminated outcome. One pipeline instance is strictly sequential:
it owns the row's trace and the conversation Draft, Improve and Rectify
share, and run() starts both fresh. Run any number of instances
concurrently.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

from tbforge.corpus import SpecCodePair
from tbforge.errors import MalformedJson, check_settings
from tbforge.llm.client import ChatRequest, LlmSettings, Message, complete
from tbforge.llm.postprocess import (
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
from tbforge.sim.logparse import CASE_MARKER, has_scaffold, has_score_epilogue
from tbforge.sim.outcomes import Report, RuntimeAbort, SimOutcome


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
        check_settings("pipeline", (
            ("max_draft_attempts", self.max_draft_attempts >= 1, ">= 1"),
            ("max_improve_attempts", self.max_improve_attempts >= 1, ">= 1"),
            ("max_rectify_iterations", self.max_rectify_iterations >= 1, ">= 1"),
            ("coverage_threshold", 0 < self.coverage_threshold <= 100, "in (0, 100]")))


@dataclass(frozen=True)
class Provenance:
    draft_attempts: int = 0
    improve_rounds: int = 0
    rectify_iterations: int = 0


@dataclass(frozen=True)
class TestbenchRecord:
    testbench: str
    testcase_count: int
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


def _outcome_log(outcome: SimOutcome) -> str:
    if isinstance(outcome, RuntimeAbort):
        return f"simulation aborted ({outcome.reason}): {outcome.log}"
    return outcome.log


class TestbenchPipeline:
    __test__ = False  # not a pytest class, despite the name

    def __init__(self, client, simulator: SimulatorBackend,
                 config: PipelineConfig | None = None, *,
                 llm: LlmSettings | None = None):
        self.client = client
        self.simulator = simulator
        self.config = config or PipelineConfig()
        self.llm = llm or LlmSettings()
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
        return tb, has_scaffold(tb) if tb else "no code in response"

    # -- stages --

    def analyze(self, spec: str) -> tuple[tuple[dict, ...], tuple[dict, ...]]:
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
              testcases: tuple[dict, ...]) -> tuple[str, int]:
        """Generate a compiling testbench draft; returns (tb, attempts used).

        A draft that lacks the reporting scaffold gets one corrective
        re-prompt per row; a second such draft terminates the row."""
        cases_json = json.dumps({str(i + 1): case for i, case in enumerate(testcases)},
                                ensure_ascii=False, indent=2)
        prompt = (
            f"Design specification:\n{spec}\n\n"
            f"Selected test cases:\n{cases_json}\n\n"
            + render(TemplateName.DraftTestbench, Code=code)
        )

        scaffold_retry_used = False
        for attempt in itertools.count(1):
            tb, missing = self._draft_reply(prompt)
            if missing and not scaffold_retry_used:
                self._record(Stage.DRAFT, "scaffold", "fail")
                scaffold_retry_used = True
                tb, missing = self._draft_reply(
                    render_text(SCAFFOLD_FEEDBACK, ErrorLog=missing))
            if missing:
                self._record(Stage.DRAFT, "scaffold", "max")
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
            _, cases = self.analyze(pair.spec)
            tb, draft_attempts = self.draft(pair.spec, pair.code, cases)
            tb, coverage_percent, improve_rounds = self.improve(pair.code, tb)
            tb, final_report, rectify_iterations = self.rectify(pair.code, tb)
        except StageTerminated as exc:
            return PipelineResult(outcome=exc.outcome, trace=tuple(self._trace))

        testcase_count = final_report.total_cases
        if testcase_count < 1:
            markers = {int(m.group(1)) for m in CASE_MARKER.finditer(tb)}
            testcase_count = max(markers) if markers else 1
        record = TestbenchRecord(
            testbench=tb,
            testcase_count=testcase_count,
            coverage_percent=coverage_percent,
            provenance=Provenance(draft_attempts=draft_attempts,
                                  improve_rounds=improve_rounds,
                                  rectify_iterations=rectify_iterations),
        )
        return PipelineResult(outcome=Finished(record), trace=tuple(self._trace))
