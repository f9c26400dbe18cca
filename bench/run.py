#!/usr/bin/env python3
"""The tbforge benchmark.

    python3 bench/run.py --workload tbgen|pairs-testbench|pairs-dfg \\
        --seed N --seconds S --trace 0|1

Run from the root of a tbforge source tree. It generates the workload's
inputs from the seed under .bench_run/, starts the stub chat endpoint,
and runs the real CLI (``python -m tbforge`` with PYTHONPATH=src) as a
child process over the same batch again and again for S seconds, after
one untimed warm-up, with the workload's one-row set-up probes after each
batch. Every invocation's outputs are checked against the plan. The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

--trace 0 reports the end-to-end metrics, medians over the invocations
except where stated:
  setup_s             spawn of the CLI to the first request at the stub
  rows_per_s          input rows / (first stub request to process exit),
                      summed over all timed batches of the run
  peak_rss_mb         the CLI's peak resident memory, from os.wait4
  verified_frac       share of input rows whose output matched the plan
  chat_calls_per_row  requests the stub received per input row
--trace 1 alternates untraced invocations with ones run under traced.py
and reports the per-layer metrics of layers.PER_LAYER, including the
tracing overhead (median traced wall time minus median untraced).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import stub
import workloads

BENCH = Path(__file__).resolve().parent
STANDIN = BENCH / "standin.sh"
TRACED = BENCH / "traced.py"
# A CLI invocation that runs longer is killed, and the run stops there, so
# a hung program still ends the benchmark well within its time limit.
CLI_TIMEOUT_S = 60
MIN_TIMED = 3


class Invocation:
    """One CLI run: its timings, memory, exit code and what the stub saw."""

    def __init__(self, argv, env, cwd: Path, out: Path, server, responder):
        out.mkdir(parents=True)
        self.out = out
        self.session = server.begin(responder)
        simlog = out / "simlog.txt"
        simlog.touch()
        env = dict(env, TBBENCH_SIMLOG=str(simlog))
        with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
            spawn = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=so, stderr=se, env=env, cwd=cwd)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        exit_time = time.perf_counter()
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.wall_s = exit_time - spawn
        first = self.session.first_arrival
        self.setup_s = (first - spawn) if first is not None else None
        self.run_s = (exit_time - first) if first is not None else None
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = (out / "stdout.txt").read_text(encoding="utf-8", errors="replace")
        self.stderr = (out / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        self.simlog = [tuple(line.split()) for line in
                       simlog.read_text(encoding="utf-8").splitlines() if line.strip()]


class Bench:
    def __init__(self, root: Path, work: Path, workload_cls, seed: int, server):
        self.work = work
        (work / "tmp").mkdir(parents=True)
        self.server = server
        self.workload = workload_cls(seed, work, STANDIN, server.url)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        TMPDIR=str(work / "tmp"))
        self.count = 0

    def invoke(self, probe=False, jobs=None, traced=False) -> Invocation:
        self.count += 1
        out = self.work / f"inv{self.count:03d}"
        args = self.workload.cli_args(out, probe=probe, jobs=jobs or self.workload.jobs)
        if traced:
            argv = [sys.executable, "-X", "importtime", str(TRACED),
                    str(out / "spans.json"), "--", *args]
        else:
            argv = [sys.executable, "-m", "tbforge", *args]
        inv = Invocation(argv, self.env, self.work, out, self.server,
                         self.workload.responder())
        inv.rows = len(self.workload.rows(probe))
        inv.failed = self._check(inv, probe)
        inv.workdirs_left = self._sweep_workdirs()
        return inv

    def _check(self, inv: Invocation, probe: bool) -> set[str]:
        rows = {r.id for r in self.workload.rows(probe)}
        if inv.returncode != 0 or inv.setup_s is None:
            sys.stderr.write(f"{self.workload.name}: CLI exited {inv.returncode}\n"
                             f"{inv.stderr[-2000:]}\n")
            return rows
        try:
            failed = self.workload.check(inv.out, probe, inv.stdout)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            sys.stderr.write(f"{self.workload.name}: unreadable output: {exc!r}\n")
            return rows
        failed |= {row for row, _ in inv.session.violations if row in rows}
        if any(row == "" for row, _ in inv.session.violations):
            failed = rows
        for row, message in inv.session.violations[:5]:
            sys.stderr.write(f"{self.workload.name}: stub: {row} {message}\n")
        return failed

    def _sweep_workdirs(self) -> int:
        """Count simulator work directories the run left behind, then
        remove them."""
        root = self.work / "sim"
        left = sorted(root.glob("sim-*")) if root.exists() else []
        for path in left:
            shutil.rmtree(path, ignore_errors=True)
        return len(left)

    def discard(self, inv: Invocation) -> None:
        shutil.rmtree(inv.out, ignore_errors=True)


def run_timed(bench: Bench, seconds: float) -> tuple[dict, int, int, list[str]]:
    """Alternate full batches with the workload's one-row set-up probes
    until ``seconds`` have passed. rows_per_s and peak_rss_mb come from the
    batches, setup_s from every invocation.

    rows_per_s is the run's rows over its summed batch time rather than a
    median of per-batch rates: the host's CPU speed drifts by seconds, and
    the whole-run rate averages that drift over every batch."""
    notes = []
    workload = bench.workload
    reference = None
    if isinstance(workload, workloads.PairsDfg):
        # Untimed, at --jobs 2 against the timed runs at --jobs 1: the
        # output must not depend on the worker count.
        reference = bench.invoke(jobs=workloads.JOBS)
        warm = reference
    else:
        warm = bench.invoke(probe=True)
    attempted, failed = warm.rows, len(warm.failed)
    batches: list[Invocation] = []
    setups: list[float] = []
    deadline = time.perf_counter() + seconds
    stopped = False
    while not stopped and (len(batches) < MIN_TIMED or time.perf_counter() < deadline):
        for probe in (False,) + (True,) * workload.probes_per_batch:
            inv = bench.invoke(probe=probe)
            if reference is not None:
                for name in ("pairs.jsonl", "evals.jsonl"):
                    if (reference.out / name).read_bytes() != (inv.out / name).read_bytes():
                        notes.append(f"{name} differs between --jobs 1 and --jobs 2")
                        inv.failed = {r.id for r in workload.rows(False)}
                bench.discard(reference)
                reference = None
            attempted += inv.rows
            failed += len(inv.failed)
            if inv.setup_s is not None:
                setups.append(inv.setup_s)
            if not probe:
                batches.append(inv)
            bench.discard(inv)
            if inv.returncode < 0:
                notes.append(f"stopped: the CLI was killed by signal {-inv.returncode}")
                stopped = True
                break
    ok = [inv for inv in batches if inv.run_s]
    rows = sum(inv.rows for inv in batches)
    requests = sum(len(inv.session.records) for inv in batches)
    sim_calls = sum(len(inv.simlog) for inv in batches)
    metrics = {
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "rows_per_s": (sum(i.rows for i in ok) / sum(i.run_s for i in ok) if ok else 0.0,
                       "rows/s"),
        "peak_rss_mb": (statistics.median([i.rss_mb for i in batches]), "MB"),
        "verified_frac": (1.0 - failed / attempted, "frac"),
        "chat_calls_per_row": (requests / rows, "calls/row"),
    }
    notes.append(f"{len(batches)} batches of {batches[0].rows} rows and "
                 f"{len(setups) - len(ok)} one-row probes, {workload.jobs} jobs; "
                 f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} rows); "
                 f"sim_calls_per_row {sim_calls / rows:.4f} calls/row; "
                 f"workdirs left per batch {batches[-1].workdirs_left}")
    notes.append("setup_s samples " + " ".join(f"{v:.3f}" for v in setups))
    notes.append("rows_per_s samples " + " ".join(f"{i.rows / i.run_s:.3f}" for i in ok))
    return metrics, attempted, failed, notes


def run_traced(bench: Bench, seconds: float) -> tuple[dict, int, int, list[str]]:
    warm = bench.invoke(probe=True)
    attempted, failed = warm.rows, len(warm.failed)
    plain, traced, derived = [], [], []
    missing: set[str] = set()
    deadline = time.perf_counter() + seconds
    stopped = False
    while not stopped and (not plain or time.perf_counter() < deadline):
        for is_traced in (False, True):
            inv = bench.invoke(traced=is_traced)
            attempted += inv.rows
            failed += len(inv.failed)
            spans = inv.out / "spans.json"
            if is_traced and spans.exists():
                traced.append(inv.wall_s)
                data = json.loads(spans.read_text(encoding="utf-8"))
                missing.update(data["missing"])
                derived.append(layers.derive(
                    data["spans"], layers.import_times(inv.stderr), inv.session.records,
                    inv.simlog, inv.rows, bench.workload.jobs, inv.workdirs_left))
            elif not is_traced:
                plain.append(inv.wall_s)
            bench.discard(inv)
            if inv.returncode < 0:
                stopped = True
                break
    units = {name: unit for name, unit, *_ in layers.PER_LAYER}
    metrics = {}
    for name in units:
        if not derived:
            value = 0.0
        elif name == "trace.overhead_ms":
            value = (statistics.median(traced) - statistics.median(plain)) * 1000.0
        else:
            value = statistics.fmean(d[name] for d in derived)
        metrics[name] = (value, units[name])
    notes = [f"{len(traced)} traced and {len(plain)} untraced invocations"]
    if missing:
        notes.append("not found, so not traced: " + ", ".join(sorted(missing)))
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tbforge" / "cli.py").is_file():
        print(f"error: no tbforge source tree at {root}/src", file=sys.stderr)
        return 2
    if "{" in str(STANDIN) or "}" in str(STANDIN):
        print("error: the checkout path must not contain braces", file=sys.stderr)
        return 2

    threads = max(os.cpu_count() or 1, workloads.JOBS)
    work = root / ".bench_run" / f"{args.workload}-{os.getpid()}"
    with stub.StubServer(threads) as server:
        try:
            bench = Bench(root, work, workloads.WORKLOADS[args.workload], args.seed, server)
            run = run_traced if args.trace else run_timed
            metrics, attempted, failed, notes = run(bench, args.seconds)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                work.parent.rmdir()
            except OSError:
                pass

    for note in notes:
        print(f"# {args.workload}: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16s} {name:36s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
