"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`."""

import json
import math
import random
import shutil
import subprocess
import time
from contextlib import contextmanager
from itertools import combinations

import pytest

from tbforge.corpus import SpecCodePair, read_jsonl
from tbforge.dpo import dpo_loss, PairLogProbs, random_grad_check, sft_loss, TabularPolicy
from tbforge.frontend import Dfg, lex, parse_source, extract_dfg
from tbforge.llm import LlmSettings, MockChatClient
from tbforge.metrics import SequenceLogProb, TaskResults, pass_at_k, pass_at_single, perplexity
from tbforge.pipeline import (
    Finished,
    PipelineConfig,
    Terminated,
    TerminationStage,
    TestbenchPipeline,
)
from tbforge.preference import (
    CandidateEval,
    Discard,
    PairMethod,
    PreferencePair,
    build_pair_testbench,
    build_pair_with_fails,
)
from tbforge.sim import (
    CommandSimulator,
    CompileError,
    MockSimulator,
    Report,
    SimulatorConfig,
    parse_coverage,
    parse_sim_log,
)
from tbforge.similarity import ast_similarity, bleu, dfg_similarity
from tbforge.frontend.tokens import Token, TokenKind

from cli_fixtures import (
    CASES_JSON,
    POINTS_JSON,
    cli_argv,
    write_collect_scripts,
    write_config,
    write_pipeline_scripts,
    write_spec_rows,
)
from fixture_data import (
    AUDIO_ENCODER_DUT,
    COVERAGE_REPORT_SAMPLE,
    SIM_LOG_ALL_PASS,
    SIM_LOG_FIVE_FAILURES,
    TESTBENCH_SKELETON,
)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({title}): PASS")


# 1 -------------------------------------------------------------------------

def enumeration_pass_at_k(n, c, k):
    correct = set(range(c))
    hits = total = 0
    for subset in combinations(range(n), k):
        total += 1
        if not correct.isdisjoint(subset):
            hits += 1
    return hits / total


def test_criterion_1_passk_oracle_equivalence():
    with criterion(1, "pass@k matches exhaustive enumeration"):
        start = time.perf_counter()
        for n in range(1, 13):
            for c in range(0, n + 1):
                for k in range(1, n + 1):
                    got = pass_at_single(n, c, k)
                    expected = enumeration_pass_at_k(n, c, k)
                    assert abs(got - expected) <= 1e-12, (n, c, k)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.2f}s"


# 2 -------------------------------------------------------------------------

def test_criterion_2_pass1_closed_form():
    with criterion(2, "pass@1 equals mean(c/n) exactly"):
        rng = random.Random(2024)
        tasks = []
        for i in range(1000):
            n = rng.randint(1, 200)
            c = rng.randint(0, n)
            tasks.append(TaskResults(task=f"t{i}", n=n, c_syntax=c, c_function=c))
        got = pass_at_k(tasks, k=1, mode="function")
        expected = sum(t.c_function / t.n for t in tasks) / len(tasks)
        assert got == expected


# 3 -------------------------------------------------------------------------

def test_criterion_3_dpo_analytics():
    with criterion(3, "zero-margin loss ln2; policy gradcheck < 1e-5"):
        zero = PairLogProbs(-3.0, -3.0, -8.0, -8.0)
        assert abs(dpo_loss([zero], beta=0.1) - math.log(2)) <= 1e-12
        start = time.perf_counter()
        worst = max(random_grad_check(seed, max_contexts=5, max_vocab=8)
                    for seed in range(100))
        elapsed = time.perf_counter() - start
        assert worst < 1e-5, f"max relative error {worst}"
        assert elapsed < 60.0, f"gradcheck took {elapsed:.2f}s"


# 4 -------------------------------------------------------------------------

def test_criterion_4_perplexity_equivalence():
    with criterion(4, "exp(sft loss) equals perplexity"):
        import numpy as np
        rng = np.random.default_rng(404)
        for _ in range(100):
            contexts = int(rng.integers(1, 6))
            vocab = int(rng.integers(2, 9))
            policy = TabularPolicy(logits=rng.normal(0, 2, size=(contexts, vocab)))
            log_probs = policy.log_probs()
            dataset = []
            flat = []
            for _ in range(int(rng.integers(1, 5))):
                length = int(rng.integers(1, 8))
                ctx = rng.integers(0, contexts, size=length).tolist()
                tok = rng.integers(0, vocab, size=length).tolist()
                dataset.append((ctx, tok))
                flat.extend(float(log_probs[c, t]) for c, t in zip(ctx, tok))
            seq = SequenceLogProb(token_logprobs=tuple(flat))
            lhs = math.exp(sft_loss(policy, dataset))
            rhs = perplexity(seq)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


# 5 -------------------------------------------------------------------------

def test_criterion_5_coverage_fixture():
    with criterion(5, "coverage report parses exactly"):
        cov = parse_coverage(COVERAGE_REPORT_SAMPLE)
        assert cov.total_lines == 31
        assert cov.covered_lines == 26
        assert cov.percent == 83.87
        lines = COVERAGE_REPORT_SAMPLE.splitlines()
        marked = [(i + 1, line.lstrip().startswith("1/1"))
                  for i, line in enumerate(lines)
                  if line.lstrip().startswith(("1/1", "0/1"))]
        assert list(cov.line_flags) == marked
        assert [flag for _, flag in cov.line_flags] == [True] * 5 + [False] * 5


# 6 -------------------------------------------------------------------------

def test_criterion_6_simulation_log_fixtures():
    with criterion(6, "simulation logs parse to failure counts"):
        report = parse_sim_log(SIM_LOG_FIVE_FAILURES)
        assert report.failures == 5
        case1 = report.case_lines[0]
        assert case1.case == 1
        assert case1.expected == "i_ready: 2'b01, is_underrun: 3'b100"
        assert case1.actual == "i_ready: 0, is_underrun: 0"
        passed = parse_sim_log(SIM_LOG_ALL_PASS)
        assert passed.failures == 0
        assert passed.passed == passed.total_cases


# 7 -------------------------------------------------------------------------

PAIR = SpecCodePair(id="a1", spec="A serial audio encoder.", code=AUDIO_ENCODER_DUT)
TB_RESPONSE = f"```verilog\n{TESTBENCH_SKELETON}```"
NO_BACKOFF = LlmSettings(backoff_seconds=0)


def test_criterion_7_state_machine_bounds():
    with criterion(7, "pipeline attempt bounds"):
        # (a) three draft compile failures -> exactly 3 LLM draft calls
        start = time.perf_counter()
        client = MockChatClient([POINTS_JSON, CASES_JSON] + [TB_RESPONSE] * 3)
        sim = MockSimulator([CompileError("e")] * 3)
        result = TestbenchPipeline(client, sim, PipelineConfig(), llm=NO_BACKOFF).run(PAIR)
        assert isinstance(result.outcome, Terminated)
        assert result.outcome.stage is TerminationStage.DRAFT_COMPILE
        assert len(client.calls) - 2 == 3
        assert time.perf_counter() - start < 1.0

        # (b) four rectify failures -> terminated after exactly 3 loops
        start = time.perf_counter()
        client = MockChatClient([POINTS_JSON, CASES_JSON] + [TB_RESPONSE] * 4)
        sim = MockSimulator(["ok"] + ["ok", Report(5, 5)] * 4)
        config = PipelineConfig(skip_coverage=True)
        result = TestbenchPipeline(client, sim, config, llm=NO_BACKOFF).run(PAIR)
        assert isinstance(result.outcome, Terminated)
        assert result.outcome.stage is TerminationStage.RECTIFY_VERIFY
        assert result.outcome.attempts == 3
        assert len(client.calls) - 3 == 3  # analyze(2) + draft(1) + 3 rectify
        assert time.perf_counter() - start < 1.0

        # (c) coverage 83.87 then 92.0 at threshold 90 -> one improve round
        start = time.perf_counter()
        client = MockChatClient([POINTS_JSON, CASES_JSON] + [TB_RESPONSE] * 2)
        sim = MockSimulator(["ok", 83.87, "ok", 92.0, "ok", Report(5, 0)])
        result = TestbenchPipeline(client, sim, PipelineConfig(), llm=NO_BACKOFF).run(PAIR)
        assert isinstance(result.outcome, Finished)
        record = result.outcome.record
        assert record.provenance.improve_rounds == 1
        assert record.coverage_percent == 92.0
        assert time.perf_counter() - start < 1.0


# 8 -------------------------------------------------------------------------

def test_criterion_8_pair_construction_rules():
    with criterion(8, "pair construction over 1000 random eval pairs"):
        rng = random.Random(88)

        def random_eval(tag):
            roll = rng.random()
            code = f"module m_{tag}; endmodule"
            if roll < 0.25:
                return CandidateEval(code=code, compile_ok=False, outcome=None,
                                     passed=0, total=0)
            if roll < 0.35:
                return CandidateEval(code=code, compile_ok=True, outcome=None,
                                     passed=0, total=0, aborted=True)
            total = rng.randint(1, 10)
            return CandidateEval(code=code, compile_ok=True, outcome=None,
                                 passed=rng.randint(0, total), total=total)

        for i in range(1000):
            a = random_eval(f"{i}a")
            b = random_eval(f"{i}b")
            tb_outcome = build_pair_testbench("s", a, b)
            wf_outcome = build_pair_with_fails("s", a, b)

            if isinstance(tb_outcome, PreferencePair):
                assert a.compile_ok and b.compile_ok
                assert tb_outcome.chosen_passed > tb_outcome.rejected_passed
            if a.compile_ok and b.compile_ok and not (a.aborted or b.aborted) \
                    and a.passed == b.passed:
                assert tb_outcome == Discard("tie")

            wf_emitted = isinstance(wf_outcome, PreferencePair) and \
                wf_outcome.method is PairMethod.TestbenchWithFails
            assert wf_emitted == (a.compile_ok != b.compile_ok)


# 9 -------------------------------------------------------------------------

def _tokens(*texts):
    return [Token(TokenKind.Identifier, t, 1) for t in texts]


def test_criterion_9_similarity_sanity():
    with criterion(9, "similarity fixtures"):
        ast = parse_source(AUDIO_ENCODER_DUT)
        dfg = extract_dfg(ast)
        tokens = lex(AUDIO_ENCODER_DUT)
        assert bleu(tokens, tokens).value == pytest.approx(1.0, abs=1e-12)
        assert ast_similarity(ast, ast).value == 1.0
        assert dfg_similarity(dfg, dfg).value == 1.0

        assert bleu(_tokens("a", "b", "c", "d"),
                    _tokens("w", "x", "y", "z")).value == 0.0
        port_only = parse_source("module a(input x); endmodule")
        logic_only = parse_source("module b; wire w; assign w = 1; endmodule")
        assert ast_similarity(port_only, logic_only).value == 0.0
        assert dfg_similarity(Dfg(frozenset({("a", "y")})),
                              Dfg(frozenset({("b", "z")}))).value == 0.0

        inter2_union4 = dfg_similarity(
            Dfg(frozenset({("a", "x"), ("b", "x"), ("c", "x")})),
            Dfg(frozenset({("a", "x"), ("b", "x"), ("d", "x")})))
        assert inter2_union4.value == 0.5

        cand, ref = ["a", "b", "c", "d", "e"], ["a", "b", "c", "d", "f"]
        got = bleu(_tokens(*cand), _tokens(*ref)).value
        # independent oracle: clipped counts by explicit loops
        precisions = []
        for n in (1, 2, 3, 4):
            cg, rg = {}, {}
            for i in range(len(cand) - n + 1):
                cg[tuple(cand[i:i + n])] = cg.get(tuple(cand[i:i + n]), 0) + 1
            for i in range(len(ref) - n + 1):
                rg[tuple(ref[i:i + n])] = rg.get(tuple(ref[i:i + n]), 0) + 1
            hit = sum(min(count, rg.get(g, 0)) for g, count in cg.items())
            precisions.append(hit / sum(cg.values()))
        oracle = math.exp(sum(math.log(p) for p in precisions) / 4)
        assert precisions == [4 / 5, 3 / 4, 2 / 3, 1 / 2]
        assert abs(got - oracle) <= 1e-9


# 10 ------------------------------------------------------------------------

def test_criterion_10_end_to_end_mock_run(tmp_path):
    with criterion(10, "25-spec end-to-end mock run, byte-stable"):
        start = time.perf_counter()
        specs = tmp_path / "specs.jsonl"
        write_spec_rows(specs, 25)
        llm_p, sim_p = write_pipeline_scripts(tmp_path)
        config_p = write_config(tmp_path, llm_p, sim_p, name="pipeline.ini")
        llm_c, sim_c = write_collect_scripts(tmp_path)
        config_c = write_config(tmp_path, llm_c, sim_c, name="collect.ini")

        def run(args):
            proc = subprocess.run(cli_argv(*args), capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            return proc

        tb_files = []
        pair_files = []
        for round_no in (1, 2):
            tb_out = tmp_path / f"tb{round_no}.jsonl"
            run(["gen-testbench", "--input", str(specs), "--out", str(tb_out),
                 "--config", str(config_p), "--jobs", "2"])
            tb_files.append(tb_out)

            pairs_out = tmp_path / f"pairs{round_no}.jsonl"
            evals_out = tmp_path / f"evals{round_no}.jsonl"
            run(["collect-pairs", "--specs", str(specs),
                 "--testbenches", str(tb_out), "--out", str(pairs_out),
                 "--method", "testbench", "--config", str(config_c),
                 "--evals-out", str(evals_out), "--jobs", "2"])
            pair_files.append(pairs_out)

        assert tb_files[0].read_bytes() == tb_files[1].read_bytes()
        assert pair_files[0].read_bytes() == pair_files[1].read_bytes()
        assert len(read_jsonl(tb_files[0])) == 25
        assert len(read_jsonl(pair_files[0])) == 25

        # aggregate evals into per-task outcome counts and score them
        evals = read_jsonl(tmp_path / "evals1.jsonl")
        by_task = {}
        for row in evals:
            agg = by_task.setdefault(row["id"], {"n": 0, "syn": 0, "fun": 0})
            agg["n"] += 1
            agg["syn"] += int(row["compile_ok"])
            agg["fun"] += int(row["compile_ok"] and row["passed"] == row["total"])
        results = tmp_path / "task_results.jsonl"
        with open(results, "w", encoding="utf-8") as handle:
            for task, agg in sorted(by_task.items()):
                handle.write(json.dumps({"task": task, "n": agg["n"],
                                         "c_syntax": agg["syn"],
                                         "c_function": agg["fun"]}) + "\n")
        proc = run(["passk", "--results", str(results), "--k", "1,2"])
        summary = json.loads(proc.stdout)
        assert summary["tasks"] == 25
        # scripted evals: both candidates compile, neither passes all cases
        assert summary["results"]["pass@1"] == 0.0
        syntax = run(["passk", "--results", str(results), "--k", "1",
                      "--mode", "syntax"])
        assert json.loads(syntax.stdout)["results"]["pass@1"] == 1.0

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"end-to-end run took {elapsed:.2f}s"


# 11 ------------------------------------------------------------------------

_HAVE_SIM = shutil.which("iverilog") and shutil.which("vvp")


@pytest.mark.skipif(not _HAVE_SIM, reason="open-source simulator not installed")
def test_criterion_11_gated_real_simulator():
    with criterion(11, "real simulator smoke"):
        sim = CommandSimulator(SimulatorConfig())
        outcome = sim.run_test(AUDIO_ENCODER_DUT, TESTBENCH_SKELETON)
        assert isinstance(outcome, Report)
        assert outcome.total_cases >= 1
