"""Run ``tbforge.cli.main`` with spans around the calls into each layer.

    python -X importtime bench/traced.py SPANS.json -- <tbforge arguments>

Each public function is wrapped where its caller looks it up (for example
``tbforge.preference.lex`` or ``tbforge.pipeline.complete``), so the
program runs unmodified. Spans (id, parent, name, start, end, row, extra)
are kept in memory and written as JSON when the CLI returns. A function
that no longer exists is skipped and listed under "missing".
"""

import sys

import tbforge.cli  # first, so -X importtime attributes the imports to it

import functools
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

_ids = itertools.count(1)
_local = threading.local()
_spans: list = []
_missing: list = []


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = [(0, "")]
    return stack


class _Span:
    __slots__ = ("name", "row", "id", "parent", "start", "extra")

    def __init__(self, name: str, row: str | None = None):
        self.name = name
        self.row = row

    def __enter__(self):
        stack = _stack()
        self.parent, parent_row = stack[-1]
        self.row = self.row if self.row is not None else parent_row
        self.id = next(_ids)
        self.extra = None
        stack.append((self.id, self.row))
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        _stack().pop()
        _spans.append((self.id, self.parent, self.name, self.start, end, self.row,
                       self.extra))


def wrap(owner, attr: str, name: str, observe=None) -> None:
    """Replace ``owner.attr`` by a spanned call; ``observe(args, result)``
    may return a number kept as the span's extra."""
    fn = getattr(owner, attr, None)
    if fn is None:
        _missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with _Span(name) as span:
            result = fn(*args, **kwargs)
            if observe is not None:
                span.extra = observe(args, result)
        return result

    setattr(owner, attr, traced)


def _row_id(item) -> str:
    item = item[0] if isinstance(item, tuple) else item
    return str(getattr(item, "id", ""))


class _TracedPool(ThreadPoolExecutor):
    """The CLI's worker pool, with one span per row and one for the pool."""

    def __enter__(self):
        self._pool_span = _Span("cli.pool").__enter__()
        return super().__enter__()

    def __exit__(self, *exc):
        try:
            return super().__exit__(*exc)
        finally:
            self._pool_span.__exit__(*exc)

    def map(self, fn, *iterables, **kwargs):
        def row(item):
            with _Span("cli.row", row=_row_id(item)):
                return fn(item)
        return super().map(row, *iterables, **kwargs)


def _pairs_summary(args, outcomes):
    """Comparisons, then emitted pairs and discards by reason."""
    n = len(args[2])
    counts = {"comparisons": n * (n - 1) // 2, "pairs": 0}
    for outcome in outcomes:
        reason = getattr(outcome, "reason", None)
        key = f"discard.{reason}" if reason else "pairs"
        counts[key] = counts.get(key, 0) + 1
    return counts


def install() -> None:
    from tbforge import cli, corpus, pipeline, preference
    from tbforge.llm import client
    from tbforge.sim import backends

    if getattr(cli, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
        cli.ThreadPoolExecutor = _TracedPool
    else:
        _missing.append("tbforge.cli.ThreadPoolExecutor")
    wrap(cli, "load_config", "config.load")
    wrap(corpus, "load_spec_code_pairs", "corpus.load")
    wrap(corpus, "read_jsonl", "corpus.load")
    wrap(corpus, "write_jsonl", "corpus.write")

    for stage in ("analyze", "draft", "improve", "rectify"):
        wrap(pipeline.TestbenchPipeline, stage, f"pipeline.{stage}")
    wrap(pipeline.TestbenchPipeline, "run", "pipeline.row",
         observe=lambda a, r: int(r.finished))

    for module in (pipeline, preference):
        wrap(module, "complete", "llm.complete")
        wrap(module, "extract_code_block", "llm.extract")
    wrap(client.HttpChatClient, "complete_once", "llm.http")
    wrap(pipeline, "render", "llm.render")
    wrap(pipeline, "render_text", "llm.render")
    wrap(pipeline, "parse_function_points", "llm.extract")
    wrap(pipeline, "parse_testcases", "llm.extract")

    for cls in (backends.CommandSimulator, backends.MockSimulator):
        wrap(cls, "run_test", "sim.run_test")
        wrap(cls, "compile", "sim.compile")
        wrap(cls, "run", "sim.run")
        wrap(cls, "coverage", "sim.coverage")
    wrap(backends, "parse_sim_log", "sim.parse_log")
    wrap(backends, "parse_coverage", "sim.parse_coverage")

    wrap(preference, "lex", "frontend.lex", observe=lambda a, r: len(r))
    wrap(preference, "parse_module", "frontend.parse")
    wrap(preference, "extract_dfg", "frontend.dfg")
    wrap(preference, "bleu", "similarity.bleu")
    wrap(preference, "ast_similarity", "similarity.ast")
    wrap(preference, "dfg_similarity", "similarity.dfg")

    wrap(cli, "sample_candidates", "preference.sample")
    wrap(cli, "evaluate_candidate", "preference.evaluate")
    wrap(cli, "build_pairs", "preference.build_pairs", observe=_pairs_summary)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced.py SPANS.json -- <tbforge arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    install()
    try:
        with _Span("cli.main"):
            code = tbforge.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": _spans, "missing": _missing}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
