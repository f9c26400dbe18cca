"""The Analyze -> Draft -> Improve -> Rectify testbench generation machine.

Each stage calls the chat backend, feeds tool output back on failure, and
terminates the whole run when its attempt bound is hit:

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

One pipeline instance is strictly sequential; run any number of instances
concurrently, each owns its conversations and working directories.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

from tbforge.corpus import SpecCodePair
from tbforge.errors import (
    AnalyzeFailed,
    ConfigError,
    MalformedJson,
    NoCodeFound,
    ScaffoldMissing,
)
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
from tbforge.sim.logparse import render_sim_log

TESTCASE_BANNER = "===========TestCases==========="
_EXPECTED_LINE = re.compile(r"Test Case \d+\.\s*Expected")
_ACTUAL_LINE = re.compile(r"Test Case \d+\.\s*Actual")
_CASE_MARKER = re.compile(r"Test Case (\d+)\.")
PASS_MARKER = "Your Design Passed"


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


class _Termination(Exception):
    def __init__(self, stage: TerminationStage, attempts: int, log: str):
        super().__init__(f"{stage.value} terminated after {attempts} attempts")
        self.stage = stage
        self.attempts = attempts
        self.log = log


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

    @staticmethod
    def _record(trace, stage: Stage, action: str, status: str) -> None:
        if trace is not None:
            trace.append(TraceEntry(stage=stage, action=action, status=status))

    # -- stages --

    def analyze(self, spec: str, trace=None) -> tuple[
            tuple[FunctionPoint, ...], tuple[TestCaseSpec, ...]]:
        """Derive function points then test cases, sharing one conversation.

        Only the specification is shown, keeping the focus on intended
        behavior rather than implementation details.
        """
        if not spec.strip():
            raise AnalyzeFailed("empty specification")
        conversation: list[Message] = []

        def ask_json(prompt: str, parse, action: str):
            response = self._ask(conversation, prompt)
            try:
                parsed = parse(response)
                self._record(trace, Stage.ANALYZE, action, "pass")
                return parsed
            except MalformedJson:
                self._record(trace, Stage.ANALYZE, action, "fail")
            response = self._ask(conversation, JSON_REASK)
            try:
                parsed = parse(response)
                self._record(trace, Stage.ANALYZE, action, "pass")
                return parsed
            except MalformedJson as exc:
                self._record(trace, Stage.ANALYZE, action, "max")
                raise AnalyzeFailed(f"{action}: {exc}") from exc

        points = ask_json(
            render(TemplateName.GenerateFunctionPoints, Specification=spec),
            parse_function_points, "function_points")
        cases = ask_json(
            render(TemplateName.GenerateTestCases),
            parse_testcases, "testcases")
        return tuple(points), tuple(cases)

    def draft(self, spec: str, code: str,
              testcases: tuple[TestCaseSpec, ...], trace=None,
              conversation: list[Message] | None = None) -> tuple[str, int]:
        """Generate a compiling testbench draft; returns (tb, attempts used)."""
        if conversation is None:
            conversation = []
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
        last_log = ""
        for attempt in range(1, self.config.max_draft_attempts + 1):
            response = self._ask(conversation, prompt)
            tb = self._extract(response)

            ok, missing = (False, "no code in response") if tb is None \
                else has_scaffold(tb)
            if not ok:
                self._record(trace, Stage.DRAFT, "scaffold", "fail")
                if scaffold_retry_used:
                    raise ScaffoldMissing(missing)
                scaffold_retry_used = True
                response = self._ask(
                    conversation, render_text(SCAFFOLD_FEEDBACK, ErrorLog=missing))
                tb = self._extract(response)
                ok, missing = (False, "no code in response") if tb is None \
                    else has_scaffold(tb)
                if not ok:
                    self._record(trace, Stage.DRAFT, "scaffold", "max")
                    raise ScaffoldMissing(missing)

            error = self.simulator.compile(code, tb)
            if error is None:
                self._record(trace, Stage.DRAFT, "compile", "pass")
                return tb, attempt
            last_log = error.log
            at_bound = attempt == self.config.max_draft_attempts
            self._record(trace, Stage.DRAFT, "compile", "max" if at_bound else "fail")
            prompt = render_text(DRAFT_COMPILE_FEEDBACK,
                                 PreviousTestbench=tb, ErrorLog=last_log)

        raise _Termination(TerminationStage.DRAFT_COMPILE,
                           self.config.max_draft_attempts, last_log)

    def improve(self, spec: str, code: str, tb: str, trace=None,
                conversation: list[Message] | None = None) -> tuple[str, float | None, int]:
        """Raise line coverage to the threshold; returns (tb, percent, rounds)."""
        if self.config.skip_coverage:
            self._record(trace, Stage.IMPROVE, "skip", "pass")
            return tb, None, 0
        if conversation is None:
            conversation = []

        attempts = 0
        rounds = 0
        current = tb
        while True:
            report = self.simulator.coverage(code, current)
            if report.percent >= self.config.coverage_threshold:
                self._record(trace, Stage.IMPROVE, "coverage", "pass")
                return current, report.percent, rounds
            attempts += 1
            if attempts >= self.config.max_improve_attempts:
                self._record(trace, Stage.IMPROVE, "coverage", "max")
                raise _Termination(TerminationStage.IMPROVE_COVERAGE, attempts,
                                   report.text)
            self._record(trace, Stage.IMPROVE, "coverage", "fail")

            prompt = render(TemplateName.ImproveTestbench,
                            CoverageReport=report.text)
            while True:
                response = self._ask(conversation, prompt)
                rounds += 1
                candidate = self._extract(response)
                if candidate is not None:
                    error = self.simulator.compile(code, candidate)
                    if error is None:
                        current = candidate
                        self._record(trace, Stage.IMPROVE, "compile", "pass")
                        break
                    error_log = error.log
                else:
                    error_log = "no code in response"
                attempts += 1
                if attempts >= self.config.max_improve_attempts:
                    self._record(trace, Stage.IMPROVE, "compile", "max")
                    raise _Termination(TerminationStage.IMPROVE_COVERAGE,
                                       attempts, error_log)
                self._record(trace, Stage.IMPROVE, "compile", "fail")
                prompt = render_text(IMPROVE_COMPILE_FEEDBACK,
                                     CoverageReport=report.text,
                                     ErrorLog=error_log)

    def rectify(self, spec: str, code: str, tb: str, trace=None,
                conversation: list[Message] | None = None) -> tuple[str, Report, int]:
        """Align testbench expectations with the code; returns
        (tb, final report, rectification loops used)."""
        if conversation is None:
            conversation = []
        current = tb
        if not has_score_epilogue(current):
            response = self._ask(
                conversation, render(TemplateName.RectifyTestbench, Simulation=""))
            candidate = self._extract(response)
            if candidate is not None:
                current = candidate

        iterations = 0
        while True:
            outcome = self.simulator.run_test(code, current)
            if isinstance(outcome, Report) and outcome.failures == 0:
                self._record(trace, Stage.RECTIFY, "verify", "pass")
                return current, outcome, iterations
            log = _outcome_log(outcome)
            if iterations >= self.config.max_rectify_iterations:
                self._record(trace, Stage.RECTIFY, "verify", "max")
                raise _Termination(TerminationStage.RECTIFY_VERIFY, iterations, log)
            self._record(trace, Stage.RECTIFY, "verify", "fail")
            iterations += 1
            response = self._ask(
                conversation, render(TemplateName.RectifyTestbench, Simulation=log))
            candidate = self._extract(response)
            if candidate is not None:
                current = candidate

    # -- composition --

    def run(self, pair: SpecCodePair) -> PipelineResult:
        """Run the full pipeline; tool failures surface as Terminated
        results, never exceptions."""
        trace: list[TraceEntry] = []
        try:
            points, cases = self.analyze(pair.spec, trace=trace)
        except AnalyzeFailed as exc:
            return PipelineResult(
                outcome=Terminated(TerminationStage.ANALYZE, 0, str(exc)),
                trace=tuple(trace))

        try:
            conversation: list[Message] = []
            tb, draft_attempts = self.draft(pair.spec, pair.code, cases,
                                            trace=trace, conversation=conversation)
            tb, coverage_percent, improve_rounds = self.improve(
                pair.spec, pair.code, tb, trace=trace, conversation=conversation)
            tb, final_report, rectify_iterations = self.rectify(
                pair.spec, pair.code, tb, trace=trace, conversation=conversation)
        except ScaffoldMissing as exc:
            return PipelineResult(
                outcome=Terminated(TerminationStage.DRAFT_COMPILE,
                                   self.config.max_draft_attempts,
                                   f"scaffold missing: {exc}"),
                trace=tuple(trace))
        except _Termination as exc:
            return PipelineResult(
                outcome=Terminated(exc.stage, exc.attempts, exc.log),
                trace=tuple(trace))

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
        return PipelineResult(outcome=Finished(record), trace=tuple(trace))

    @staticmethod
    def _extract(response: str) -> str | None:
        try:
            code = extract_code_block(response)
            return code if code.strip() else None
        except NoCodeFound:
            return None


def run_pipeline(pair: SpecCodePair, client, simulator: SimulatorBackend,
                 config: PipelineConfig | None = None, **kwargs) -> PipelineResult:
    return TestbenchPipeline(client, simulator, config, **kwargs).run(pair)
