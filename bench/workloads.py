"""The three benchmark workloads: their inputs, CLI arguments and output checks.

tbgen            gen-testbench over a planned mix of row paths, with a
                 latency-injected stub endpoint and stand-in simulator.
pairs-testbench  collect-pairs --method testbench: short independent
                 sampling requests and a compile plus a run per candidate.
pairs-dfg        collect-pairs --method dfg with a zero-latency stub and the
                 mock simulator, so the frontend and similarity dominate;
                 timed at --jobs 1, checked against --jobs 2.

Every check compares the CLI's files with what the plan says they must
hold and returns the ids of the rows that do not match.
"""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import inputs
import stub

JOBS = 2
TBGEN_SCALE = 1
PAIRS_TESTBENCH_SPECS = 16
PAIRS_DFG_SPECS = 6
PROBE_ROWS = 1

_TERMINATE = re.compile(r"^(\S+) \[terminate\] (\S+) attempts=(\d+)$")
_FINISH = re.compile(r"^(\S+) \[finish\] ok$")
_DISCARD = re.compile(r"^\s*discarded \((\w+)\): (\d+)$")


def _read_jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _same_code(a: str, b: str) -> bool:
    return a.strip() == b.strip()


class Workload:
    name = ""
    jobs = JOBS
    # One-row invocations after each batch, for more setup_s samples.
    probes_per_batch = 2

    def __init__(self, seed: int, work: Path, standin: Path, url: str):
        self.seed = seed
        self.work = work
        self.standin = standin
        self.url = url
        self.config = work / "tbforge.ini"

    def rows(self, probe: bool) -> list:
        """The batch, or its first row for warm-up and set-up probes."""
        return self.all_rows[:PROBE_ROWS] if probe else self.all_rows

    def _config_text(self, simulator: str) -> str:
        return "\n".join([
            "[llm]", "backend = http", f"endpoint = {self.url}", "model = stub",
            "retries = 3", "backoff_seconds = 0.01", "request_timeout = 30",
            "", simulator, "",
            "[pipeline]",
            f"max_draft_attempts = {inputs.MAX_DRAFT}",
            f"max_improve_attempts = {inputs.MAX_IMPROVE}",
            f"max_rectify_iterations = {inputs.MAX_RECTIFY}",
            f"coverage_threshold = {inputs.COVERAGE_THRESHOLD}",
            "skip_coverage = false", "",
            "[sampling]", f"n = {inputs.CANDIDATES}",
            f"max_pairs_per_spec = {inputs.PAIR_CAP}", "",
            "[paths]", f"workdir_root = {self.work / 'sim'}", "",
        ])

    def _command_simulator(self) -> str:
        script = shlex.quote(str(self.standin))
        return "\n".join([
            "[simulator]", "backend = command",
            f"compile_command = bash {script} compile {{dut}} {{tb}} {{out}}",
            f"run_command = bash {script} run {{out}}",
            f"coverage_command = bash {script} coverage {{dut}} {{tb}}",
            "timeout = 20",
        ])


class Tbgen(Workload):
    name = "tbgen"

    def __init__(self, *args):
        super().__init__(*args)
        self.all_rows = inputs.make_tbgen(self.seed, TBGEN_SCALE)
        for probe in (False, True):
            inputs.write_spec_corpus(self._input(probe), self.rows(probe))
        self.config.write_text(self._config_text(self._command_simulator()),
                               encoding="utf-8")

    def _input(self, probe: bool) -> Path:
        return self.work / ("probe.jsonl" if probe else "specs.jsonl")

    def responder(self):
        return stub.TbgenResponder(self.all_rows)

    def cli_args(self, out: Path, probe: bool, jobs: int) -> list[str]:
        return ["gen-testbench", "--input", str(self._input(probe)),
                "--out", str(out / "testbenches.jsonl"), "--config", str(self.config),
                "--jobs", str(jobs), "--trace-log", str(out / "trace.log")]

    def check(self, out: Path, probe: bool, stdout: str) -> set[str]:
        rows = self.rows(probe)
        written = {r["id"]: r for r in _read_jsonl(out / "testbenches.jsonl")}
        finished, terminated = set(), {}
        trace_path = out / "trace.log"
        trace = trace_path.read_text(encoding="utf-8") if trace_path.exists() else ""
        for line in trace.splitlines():
            m = _FINISH.match(line)
            if m:
                finished.add(m.group(1))
            m = _TERMINATE.match(line)
            if m:
                terminated[m.group(1)] = (m.group(2), int(m.group(3)))
        failed = set()
        for row in rows:
            exp = row.expected
            got = written.get(row.id)
            if exp.outcome == "finished":
                ok = (got is not None and row.id in finished
                      and row.id not in terminated
                      and got.get("testcase_count") == exp.testcase_count
                      and got.get("coverage_percent") == exp.coverage
                      and got.get("provenance") == dict(zip(
                          ("draft_attempts", "improve_rounds", "rectify_iterations"),
                          exp.provenance))
                      and _same_code(got.get("tb", ""),
                                     inputs.tbgen_testbench(row, exp.final_reply)))
            else:
                ok = (got is None and row.id not in finished
                      and terminated.get(row.id) == (exp.outcome, exp.attempts))
            if not ok:
                failed.add(row.id)
        n_finished = sum(r.expected.outcome == "finished" for r in rows)
        summary = (f"rows: {len(rows)}  finished: {n_finished}  "
                   f"terminated: {len(rows) - n_finished}")
        if summary not in stdout or len(written) != n_finished:
            failed.update(r.id for r in rows)
        return failed


class _Pairs(Workload):
    method = ""

    def _write_inputs(self):
        for probe in (False, True):
            inputs.write_spec_corpus(self._specs(probe), self.rows(probe))
        inputs.write_testbench_corpus(self.work / "testbenches.jsonl", self.all_rows)

    def _specs(self, probe: bool) -> Path:
        return self.work / ("probe.jsonl" if probe else "specs.jsonl")

    def responder(self):
        return stub.PairsResponder(self.all_rows)

    def cli_args(self, out: Path, probe: bool, jobs: int) -> list[str]:
        return ["collect-pairs", "--specs", str(self._specs(probe)),
                "--testbenches", str(self.work / "testbenches.jsonl"),
                "--out", str(out / "pairs.jsonl"), "--method", self.method,
                "--n", str(inputs.CANDIDATES), "--config", str(self.config),
                "--evals-out", str(out / "evals.jsonl"), "--jobs", str(jobs)]

    @staticmethod
    def _discards(stdout: str) -> dict[str, int]:
        found = {}
        for line in stdout.splitlines():
            m = _DISCARD.match(line)
            if m:
                found[m.group(1)] = int(m.group(2))
        return found

    def check(self, out: Path, probe: bool, stdout: str) -> set[str]:
        rows = self.rows(probe)
        pairs_by_spec: dict[str, list[dict]] = {}
        for pair in _read_jsonl(out / "pairs.jsonl"):
            pairs_by_spec.setdefault(pair.get("spec"), []).append(pair)
        evals_by_id: dict[str, list[dict]] = {}
        for row in _read_jsonl(out / "evals.jsonl"):
            evals_by_id.setdefault(row.get("id"), []).append(row)
        failed = {row.id for row in rows
                  if not self._row_ok(row, pairs_by_spec.pop(row.spec, []),
                                      evals_by_id.get(row.id, []))}
        if pairs_by_spec or not self._discards_ok(rows, self._discards(stdout)):
            failed.update(r.id for r in rows)
        return failed


class PairsTestbench(_Pairs):
    name = "pairs-testbench"
    method = "testbench"

    def __init__(self, *args):
        super().__init__(*args)
        self.all_rows = inputs.make_pairs_testbench(self.seed, PAIRS_TESTBENCH_SPECS)
        self._write_inputs()
        self.config.write_text(self._config_text(self._command_simulator()),
                               encoding="utf-8")

    def _row_ok(self, row, pairs, evals) -> bool:
        expected, _ = inputs.expected_testbench_pairs(row)
        got = [(p["chosen"], p["rejected"], p["chosen_passed"], p["rejected_passed"])
               for p in pairs]
        if len(got) != len(expected) or any(p["method"] != "testbench" for p in pairs):
            return False
        for (chosen, rejected, cp, rp), (win, lose, wp, lp) in zip(got, expected):
            if not (_same_code(chosen, row.candidates[win])
                    and _same_code(rejected, row.candidates[lose])
                    and (cp, rp) == (wp, lp)):
                return False
        want = [dict(id=row.id, candidate_idx=k, **inputs.expected_eval(o, row.total))
                for k, o in enumerate(row.plan)]
        return evals == want

    def _discards_ok(self, rows, found) -> bool:
        want: dict[str, int] = {}
        for row in rows:
            for reason, n in inputs.expected_testbench_pairs(row)[1].items():
                want[reason] = want.get(reason, 0) + n
        return found == {k: v for k, v in want.items() if v}


class PairsDfg(_Pairs):
    name = "pairs-dfg"
    method = "dfg"
    # Its rows are pure-Python work on the CLI's thread pool, so a second
    # worker adds no parallelism under the GIL, only GIL hand-offs between
    # the two CPUs. On a shared host their cost swung the rate between 0.91
    # and 1.38 rows/s in 20-second windows a minute apart, against 1.17 to
    # 1.31 rows/s at --jobs 1, which times the frontend's own work.
    jobs = 1
    # Batches alone, with no probes between them, give the CPU-bound
    # rows_per_s the most timed rows per run; each batch still gives a
    # setup_s sample.
    probes_per_batch = 0

    def __init__(self, *args):
        super().__init__(*args)
        self.all_rows = inputs.make_pairs_dfg(self.seed, PAIRS_DFG_SPECS)
        self._write_inputs()
        script = self.work / "mock_sim.json"
        script.write_text(json.dumps(inputs.dfg_mock_script()), encoding="utf-8")
        simulator = "\n".join(["[simulator]", "backend = mock",
                               f"mock_script = {script}"])
        self.config.write_text(self._config_text(simulator), encoding="utf-8")

    def _row_ok(self, row, pairs, evals) -> bool:
        """Structural checks: at most the cap, both sides are candidates of
        this spec that parse, two operator swaps (equal dataflow graphs)
        never form a pair, and an operator swap, which matches the
        reference exactly, is always the chosen side."""
        if len(pairs) > inputs.PAIR_CAP:
            return False
        for pair in pairs:
            sides = []
            for key in ("chosen", "rejected"):
                index = next((k for k, c in enumerate(row.candidates)
                              if _same_code(pair[key], c)), None)
                if index is None or row.plan[index] == "break":
                    return False
                sides.append(index)
            win, lose = sides
            if (pair["method"] != "dfg" or win == lose
                    or row.plan[lose] == "op"
                    or (pair["chosen_passed"], pair["rejected_passed"])
                    != (inputs.DFG_PASSED[win], inputs.DFG_PASSED[lose])):
                return False
        want = [dict(id=row.id, candidate_idx=k, compile_ok=True, passed=p, total=5,
                     status="report") for k, p in enumerate(inputs.DFG_PASSED)]
        return evals == want

    def _discards_ok(self, rows, found) -> bool:
        return found.get("parse", 0) == inputs.dfg_parse_discards(rows)


WORKLOADS = {w.name: w for w in (Tbgen, PairsTestbench, PairsDfg)}
