"""Tests of the benchmark's seeded inputs, plan model and stand-ins.

    python -m pytest bench/tests -q
"""

import json
import random
import subprocess
from collections import Counter
from pathlib import Path

import pytest

import inputs
import layers
import workloads
from tbforge.errors import LexError, ParseError
from tbforge.frontend import lex, parse_module
from tbforge.preference import CandidateEval, Discard, PairMethod, build_pairs
from tbforge.sim.logparse import parse_coverage, parse_sim_log

BENCH = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 7)

# Outcome, attempts and provenance each scenario is written to produce.
SCENARIOS = {
    "first_try": ("finished", 0, (1, 0, 0)),
    "reask_points": ("finished", 0, (1, 0, 0)),
    "reask_cases": ("finished", 0, (1, 0, 0)),
    "scaffold_reask": ("finished", 0, (1, 0, 0)),
    "draft_fail_once": ("finished", 0, (2, 0, 0)),
    "draft_fail_twice": ("finished", 0, (3, 0, 0)),
    "improve_once": ("finished", 0, (1, 1, 0)),
    "improve_compile_fail": ("finished", 0, (1, 2, 0)),
    "rectify_once": ("finished", 0, (1, 0, 1)),
    "rectify_epilogue": ("finished", 0, (1, 0, 0)),
    "rectify_twice": ("finished", 0, (1, 0, 2)),
    "term_analyze_points": ("Analyze", 0, (0, 0, 0)),
    "term_analyze_cases": ("Analyze", 0, (0, 0, 0)),
    "term_draft_compile": ("DraftCompile", 3, (0, 0, 0)),
    "term_draft_scaffold": ("DraftCompile", 3, (0, 0, 0)),
    "term_improve": ("ImproveCoverage", 3, (0, 0, 0)),
    "term_rectify": ("RectifyVerify", 3, (0, 0, 0)),
}


def _parses(code: str) -> bool:
    try:
        parse_module(lex(code))
        return True
    except (ParseError, LexError):
        return False


def _write_all(seed: int, root: Path) -> None:
    tbgen = inputs.make_tbgen(seed)
    inputs.write_spec_corpus(root / "tbgen.jsonl", tbgen)
    (root / "tbgen_replies.txt").write_text(
        "".join(inputs.tbgen_testbench(r, k) for r in tbgen for k in range(len(r.main))))
    for name, rows in (("pt", inputs.make_pairs_testbench(seed, 8)),
                       ("pd", inputs.make_pairs_dfg(seed, 6))):
        inputs.write_spec_corpus(root / f"{name}.jsonl", rows)
        inputs.write_testbench_corpus(root / f"{name}_tb.jsonl", rows)
        (root / f"{name}_candidates.json").write_text(
            json.dumps([r.candidates for r in rows]))


@pytest.mark.parametrize("seed", SEEDS)
def test_every_reference_parses(seed):
    rows = (inputs.make_tbgen(seed) + inputs.make_pairs_testbench(seed, 8)
            + inputs.make_pairs_dfg(seed, 6))
    for row in rows:
        assert _parses(row.code), row.id
        assert 20 <= len(row.code.splitlines()) <= 160


def test_same_seed_gives_identical_files(tmp_path):
    for sub in ("a", "b", "c"):
        (tmp_path / sub).mkdir()
    _write_all(3, tmp_path / "a")
    _write_all(3, tmp_path / "b")
    _write_all(4, tmp_path / "c")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert any((tmp_path / "a" / n).read_bytes() != (tmp_path / "c" / n).read_bytes()
               for n in names)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_walk_gives_each_scenario_its_outcome(name):
    analyze, main = inputs._scenario(name, random.Random(name))
    exp = inputs.walk(analyze, main)
    assert (exp.outcome, exp.attempts) == SCENARIOS[name][:2]
    if exp.outcome == "finished":
        assert exp.provenance == SCENARIOS[name][2]
        assert exp.coverage >= inputs.COVERAGE_THRESHOLD
    # The walk consumes exactly the replies the scenario plans.
    assert len(exp.main_prompts) == len(main)
    assert len(exp.analyze_prompts) == len(analyze)


@pytest.mark.parametrize("seed", SEEDS)
def test_tbgen_plan_counts_match_the_mix(seed):
    rows = inputs.make_tbgen(seed)
    assert Counter(r.scenario for r in rows) == Counter(inputs.TBGEN_MIX)
    want = Counter()
    for name, count in inputs.TBGEN_MIX.items():
        want[SCENARIOS[name][0]] += count
    assert Counter(r.expected.outcome for r in rows) == want
    assert {"Analyze", "DraftCompile", "ImproveCoverage", "RectifyVerify"} <= set(want)
    planned = sum(r.expected.chat_calls for r in rows)
    assert sum(len(r.transient_503) for r in rows) == round(
        inputs.TRANSIENT_503_SHARE * planned)
    # Composition is seed-independent, so the deterministic counts are too.
    other = inputs.make_tbgen(seed + 100)
    assert planned == sum(r.expected.chat_calls for r in other)
    assert (sum(r.expected.sim_processes for r in rows)
            == sum(r.expected.sim_processes for r in other))


@pytest.mark.parametrize("seed", SEEDS)
def test_pairs_dfg_candidates_parse_as_planned(seed):
    rows = inputs.make_pairs_dfg(seed, 6)
    for row in rows:
        assert len(set(row.candidates)) == inputs.CANDIDATES
        for code, kind in zip(row.candidates, row.plan):
            assert _parses(code) == (kind != "break")
    assert sum(r.plan.count("break") for r in rows) == 3
    assert inputs.dfg_parse_discards(rows) == 3 * 7


@pytest.mark.parametrize("seed", SEEDS)
def test_pass_count_oracle_agrees_with_build_pairs(seed):
    for row in inputs.make_pairs_testbench(seed, 8):
        evals = []
        for k, outcome in enumerate(row.plan):
            e = inputs.expected_eval(outcome, row.total)
            evals.append(CandidateEval(code=str(k), compile_ok=e["compile_ok"],
                                       outcome=None, passed=e["passed"],
                                       total=e["total"], aborted=outcome == "X"))
        outcomes = build_pairs(row.spec, row.code, evals, PairMethod.Testbench,
                               cap=inputs.PAIR_CAP)
        pairs, discards = inputs.expected_testbench_pairs(row)
        got = [(int(o.chosen), int(o.rejected), o.chosen_passed, o.rejected_passed)
               for o in outcomes if not isinstance(o, Discard)]
        assert got == pairs
        reasons = Counter(o.reason for o in outcomes if isinstance(o, Discard))
        assert reasons == Counter({k: v for k, v in discards.items() if v})


def _standin(tmp_path, *args):
    log = tmp_path / "simlog"
    proc = subprocess.run(["bash", str(BENCH / "standin.sh"), *args], capture_output=True,
                          text=True, env={"TBBENCH_SIMLOG": str(log), "PATH": "/usr/bin:/bin"})
    return proc, log.read_text().split()


def test_standin_obeys_its_directives(tmp_path):
    dut = tmp_path / "dut.v"
    tb = tmp_path / "tb.v"
    out = tmp_path / "sim.out"
    dut.write_text("module m;\nendmodule\n")
    tb.write_text(inputs.marker_line(row="r1", cov="26/31", fails=2, total=4) + "\n")
    proc, log = _standin(tmp_path, "coverage", str(dut), str(tb))
    report = parse_coverage(proc.stdout)
    assert (report.total_lines, report.covered_lines, report.percent) == (
        31, 26, inputs.coverage_percent(26, 31))
    assert log[:2] == ["coverage", "r1"]
    proc, _ = _standin(tmp_path, "compile", str(dut), str(tb), str(out))
    assert proc.returncode == 0
    proc, _ = _standin(tmp_path, "run", str(out))
    report = parse_sim_log(proc.stdout)
    assert (report.total_cases, report.failures) == (4, 2)

    tb.write_text(inputs.marker_line(row="r1", compile="fail") + "\n")
    proc, _ = _standin(tmp_path, "compile", str(dut), str(tb), str(out))
    assert proc.returncode != 0 and "syntax error" in proc.stderr


def test_benchmark_json_lists_the_catalogue():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in layers.PER_LAYER]


def test_derive_takes_children_out_of_self_time():
    ms = 1_000_000
    spans = [  # id, parent, name, start, end, row, extra
        (1, 0, "cli.pool", 0, 100 * ms, "", None),
        (2, 0, "cli.row", 0, 100 * ms, "r", None),
        (3, 2, "pipeline.row", 0, 100 * ms, "r", 1),
        (4, 3, "pipeline.draft", 0, 80 * ms, "r", None),
        (5, 4, "llm.complete", 10 * ms, 40 * ms, "r", None),
        (6, 5, "llm.http", 10 * ms, 40 * ms, "r", None),
        (7, 4, "sim.compile", 50 * ms, 70 * ms, "r", None),
    ]
    m = layers.derive(spans, {}, [], [("compile", "r", "5000")], rows=1, jobs=2,
                      workdirs_left=1)
    assert m["pipeline.self_ms_per_row"] == pytest.approx(50.0)
    assert m["pipeline.attempts.draft"] == 1
    assert m["sim.overhead_ms_per_call"] == pytest.approx(15.0)
    assert m["cli.worker_busy_frac"] == pytest.approx(0.5)
    assert set(m) == {name for name, *_ in layers.PER_LAYER} - {"trace.overhead_ms"}


def test_import_times_reads_cumulative_milliseconds():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       200 |       9000 |       requests",
        "import time:       100 |      12000 |     tbforge.llm",
        "import time:        10 |      12010 |   tbforge.llm.client",
        "import time:       300 |      30000 |   tbforge",
        "import time:       400 |      35000 | tbforge.cli",
        "import time:       400 |       2000 | json",
    ])
    assert layers.import_times(stderr) == {"cli": 35.0, "llm": 12.0}
