"""Per-layer metrics of the traced run, and the end-to-end metric each moves.

``PER_LAYER`` is the catalogue BENCHMARK.json lists: name, unit, which
direction is better, and the end-to-end metric and workloads the layer
metric should move. ``derive`` computes them from one traced invocation:
the spans ``traced.py`` wrote, ``python -X importtime`` output, the stub's
request records and the stand-in simulator's self-recorded log.

Counts are per traced invocation unless the name says per row, spec or
call; a row is one input row of the workload.
"""

from __future__ import annotations

import re
import statistics
from collections import defaultdict

ALL = ("tbgen", "pairs-testbench", "pairs-dfg")
TB = ("tbgen",)
SIM = ("tbgen", "pairs-testbench")
DFG = ("pairs-dfg",)
PT = ("pairs-testbench",)
PAIRS = ("pairs-testbench", "pairs-dfg")

# name, unit, better, end-to-end metric it moves, workloads where it does
PER_LAYER = [
    ("cli.import_ms", "ms", "lower", "setup_s", ALL),
    ("llm.import_ms", "ms", "lower", "setup_s", ALL),
    ("dpo.import_ms", "ms", "lower", "setup_s", ALL),
    ("metrics.import_ms", "ms", "lower", "setup_s", ALL),
    ("config.load_ms", "ms", "lower", "setup_s", ALL),
    ("corpus.load_ms", "ms", "lower", "setup_s", ALL),
    ("corpus.write_ms", "ms", "lower", "rows_per_s peak_rss_mb", ALL),
    ("cli.worker_busy_frac", "frac", "higher", "rows_per_s", SIM),
    ("pipeline.row_ms.p50", "ms", "lower", "rows_per_s", TB),
    ("pipeline.row_ms.p90", "ms", "lower", "rows_per_s", TB),
    ("pipeline.self_ms_per_row", "ms/row", "lower", "rows_per_s", TB),
    ("pipeline.analyze.ms", "ms/row", "lower", "rows_per_s", TB),
    ("pipeline.draft.ms", "ms/row", "lower", "rows_per_s", TB),
    ("pipeline.improve.ms", "ms/row", "lower", "rows_per_s", TB),
    ("pipeline.rectify.ms", "ms/row", "lower", "rows_per_s", TB),
    ("pipeline.attempts.analyze", "calls/row", "lower", "chat_calls_per_row", TB),
    ("pipeline.attempts.draft", "calls/row", "lower", "chat_calls_per_row", TB),
    ("pipeline.attempts.improve", "calls/row", "lower", "chat_calls_per_row", TB),
    ("pipeline.attempts.rectify", "calls/row", "lower", "chat_calls_per_row", TB),
    ("pipeline.chat_calls_per_finished", "calls/row", "lower", "chat_calls_per_row", TB),
    ("llm.calls", "count", "lower", "rows_per_s", ALL),
    ("llm.busy_ms_per_call", "ms", "lower", "rows_per_s", ALL),
    ("llm.overhead_ms_per_call", "ms", "lower", "rows_per_s", ALL),
    ("llm.retries", "count", "lower", "rows_per_s", ALL),
    ("llm.request_kb_per_call", "KiB", "lower", "rows_per_s", ALL),
    ("llm.render_ms", "ms/row", "lower", "rows_per_s", TB),
    ("llm.extract_ms", "ms/row", "lower", "rows_per_s", ALL),
    ("sim.compile.calls", "count", "lower", "rows_per_s", SIM),
    ("sim.run.calls", "count", "lower", "rows_per_s", SIM),
    ("sim.coverage.calls", "count", "lower", "rows_per_s", SIM),
    ("sim.compile.ms", "ms", "lower", "rows_per_s", SIM),
    ("sim.run.ms", "ms", "lower", "rows_per_s", SIM),
    ("sim.coverage.ms", "ms", "lower", "rows_per_s", SIM),
    ("sim.overhead_ms_per_call", "ms", "lower", "rows_per_s", SIM),
    ("sim.parse_log.ms", "ms", "lower", "rows_per_s", SIM),
    ("sim.parse_coverage.ms", "ms", "lower", "rows_per_s", SIM),
    ("sim.workdirs_left", "count", "lower", "none (leak count)", SIM),
    ("sim_calls_per_row", "calls/row", "lower", "rows_per_s", SIM),
    ("frontend.lex.calls", "count", "lower", "rows_per_s", DFG),
    ("frontend.parse.calls", "count", "lower", "rows_per_s", DFG),
    ("frontend.dfg.calls", "count", "lower", "rows_per_s", DFG),
    ("frontend.lex.ms", "ms", "lower", "rows_per_s", DFG),
    ("frontend.parse.ms", "ms", "lower", "rows_per_s", DFG),
    ("frontend.dfg.ms", "ms", "lower", "rows_per_s", DFG),
    ("frontend.lex.tokens_per_s", "1/s", "higher", "rows_per_s", DFG),
    ("frontend.parses_per_spec", "calls/row", "lower", "rows_per_s", DFG),
    ("similarity.dfg.ms", "ms", "lower", "rows_per_s", DFG),
    ("preference.build_pairs.self_ms", "ms", "lower", "rows_per_s", DFG),
    ("preference.sample.ms", "ms", "lower", "rows_per_s", PT),
    ("preference.evaluate.ms", "ms", "lower", "rows_per_s", PT),
    ("preference.pairs_per_comparison", "frac", "higher", "none (checked count)", PAIRS),
    ("preference.discards.tie", "count", "lower", "none (checked count)", PAIRS),
    ("preference.discards.parse", "count", "lower", "none (checked count)", PAIRS),
    ("preference.discards.compile_failure", "count", "lower", "none (checked count)", PAIRS),
    ("preference.discards.aborted", "count", "lower", "none (checked count)", PAIRS),
    ("trace.overhead_ms", "ms", "lower", "none (tracing cost)", ALL),
]

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)\s*$")


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import milliseconds from ``python -X importtime``.

    ``cli`` is the whole cost of ``import tbforge.cli`` (the top-level
    tbforge entries), the others the first import of that subpackage,
    which includes the third-party modules it pulls in first.
    """
    out = {"cli": 0.0}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        cumulative_ms = int(m.group(2)) / 1000.0
        level, name = len(m.group(3)) // 2, m.group(4)
        if level == 0 and (name == "tbforge" or name.startswith("tbforge.")):
            out["cli"] += cumulative_ms
        for key in ("llm", "dpo", "metrics"):
            if name == f"tbforge.{key}" and key not in out:
                out[key] = cumulative_ms
    return out


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _quantile(values, q: float) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def derive(spans: list, imports: dict, records: list, simlog: list[tuple],
           rows: int, jobs: int, workdirs_left: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation.

    ``spans`` are (id, parent, name, start_ns, end_ns, row, extra);
    ``records`` the stub's request records; ``simlog`` the stand-in lines
    (mode, row, self_us).
    """
    dur = {}
    name_of = {}
    child_ms = defaultdict(float)
    by_name = defaultdict(list)
    for span_id, parent, name, start, end, _row, extra in spans:
        ms = (end - start) / 1e6
        dur[span_id] = ms
        name_of[span_id] = name
        child_ms[parent] += ms
        by_name[name].append((span_id, parent, ms, extra))

    def total(name):
        return sum(ms for _, _, ms, _ in by_name[name])

    def count(name):
        return len(by_name[name])

    def mean(name):
        return total(name) / count(name) if count(name) else 0.0

    def self_ms(name):
        return sum(ms - child_ms[i] for i, _, ms, _ in by_name[name])

    per_row = 1.0 / rows
    m: dict[str, float] = {}
    m["cli.import_ms"] = imports.get("cli", 0.0)
    m["llm.import_ms"] = imports.get("llm", 0.0)
    m["dpo.import_ms"] = imports.get("dpo", 0.0)
    m["metrics.import_ms"] = imports.get("metrics", 0.0)
    m["config.load_ms"] = total("config.load")
    m["corpus.load_ms"] = total("corpus.load")
    m["corpus.write_ms"] = total("corpus.write")
    pool = total("cli.pool")
    m["cli.worker_busy_frac"] = total("cli.row") / (pool * jobs) if pool else 0.0

    row_ms = [ms for _, _, ms, _ in by_name["pipeline.row"]]
    pipeline_rows = len(row_ms)
    m["pipeline.row_ms.p50"] = _quantile(row_ms, 0.5)
    m["pipeline.row_ms.p90"] = _quantile(row_ms, 0.9)
    stages = ("analyze", "draft", "improve", "rectify")
    pipeline_self = self_ms("pipeline.row") + sum(self_ms(f"pipeline.{s}") for s in stages)
    m["pipeline.self_ms_per_row"] = pipeline_self / pipeline_rows if pipeline_rows else 0.0
    stage_calls = defaultdict(int)
    for _, parent, _, _ in by_name["llm.complete"]:
        stage_calls[name_of.get(parent, "")] += 1
    for s in stages:
        m[f"pipeline.{s}.ms"] = total(f"pipeline.{s}") * per_row
        m[f"pipeline.attempts.{s}"] = stage_calls[f"pipeline.{s}"] * per_row
    finished = sum(extra or 0 for _, _, _, extra in by_name["pipeline.row"])
    m["pipeline.chat_calls_per_finished"] = len(records) / finished if finished else 0.0

    m["llm.calls"] = count("llm.http")
    m["llm.busy_ms_per_call"] = mean("llm.http")
    service_ms = sum(r.service for r in records) * 1000.0
    m["llm.overhead_ms_per_call"] = ((total("llm.http") - service_ms) / count("llm.http")
                                     if count("llm.http") else 0.0)
    m["llm.retries"] = count("llm.http") - count("llm.complete")
    m["llm.request_kb_per_call"] = _mean(r.request_bytes / 1024.0 for r in records)
    m["llm.render_ms"] = total("llm.render") * per_row
    m["llm.extract_ms"] = total("llm.extract") * per_row

    for kind in ("compile", "run", "coverage"):
        m[f"sim.{kind}.calls"] = count(f"sim.{kind}")
        m[f"sim.{kind}.ms"] = mean(f"sim.{kind}")
    standin_ms = sum(int(us) for _, _, us in simlog) / 1000.0
    spawning = sum(self_ms(f"sim.{k}") for k in ("compile", "run", "coverage"))
    m["sim.overhead_ms_per_call"] = ((spawning - standin_ms) / len(simlog)
                                     if simlog else 0.0)
    m["sim.parse_log.ms"] = mean("sim.parse_log")
    m["sim.parse_coverage.ms"] = mean("sim.parse_coverage")
    m["sim.workdirs_left"] = workdirs_left
    m["sim_calls_per_row"] = len(simlog) * per_row

    for part in ("lex", "parse", "dfg"):
        m[f"frontend.{part}.calls"] = count(f"frontend.{part}")
        m[f"frontend.{part}.ms"] = mean(f"frontend.{part}")
    tokens = sum(extra or 0 for _, _, _, extra in by_name["frontend.lex"])
    lex_s = total("frontend.lex") / 1000.0
    m["frontend.lex.tokens_per_s"] = tokens / lex_s if lex_s else 0.0
    specs = count("preference.build_pairs")
    m["frontend.parses_per_spec"] = count("frontend.parse") / specs if specs else 0.0
    m["similarity.dfg.ms"] = mean("similarity.dfg")
    m["preference.build_pairs.self_ms"] = (self_ms("preference.build_pairs") / specs
                                           if specs else 0.0)
    m["preference.sample.ms"] = mean("preference.sample")
    m["preference.evaluate.ms"] = mean("preference.evaluate")

    summary = defaultdict(int)
    for _, _, _, extra in by_name["preference.build_pairs"]:
        for key, value in (extra or {}).items():
            summary[key] += value
    m["preference.pairs_per_comparison"] = (summary["pairs"] / summary["comparisons"]
                                            if summary["comparisons"] else 0.0)
    for reason in ("tie", "parse", "compile_failure", "aborted"):
        m[f"preference.discards.{reason}"] = summary[f"discard.{reason}"]
    return m
