"""Command-line entry points tying the toolkit into batch workflows.

Outputs are JSONL (streamable, append-safe, diff-friendly); logs are
line-oriented with stage tags. Batch commands write results in input
order, so repeat runs produce byte-identical files. Their ``--jobs N``
bounds the backends, not the rows: at most N chat calls, and so N
chat-endpoint connections, and N simulator calls are in flight at once.
Both run 2N rows, each making one backend call at a time, so one row's
simulator call overlaps another row's chat call. One runner, ``_row_runner``,
alone builds each row's chat client and simulator, holds the slots and owns
the batch's threads and output files; a command only says what one row does
with its backends and what lines its result writes.

Exit codes: 0 success, 1 usage/config, 2 IO, 3 backend unavailable.
Outside input is checked where it enters: a bad row of ``--testbenches``,
``passk --results`` or ``dpo --pairs`` is an IO error at its path and line,
and a bad spec row is logged and skipped. A bad setting or flag, an output
flag that names the file of another output or input flag included, is a
config error before any input is read or any output file is opened. So are
settings under which the simulator cannot run what the command needs:
coverage that cannot be measured, or a program that is not on PATH (which
exits 3). A ValueError that reaches ``main`` is a bug. Batch output lines
are appended in input order and flushed after each row, so a batch that
stops keeps every row that finished before the stop; as nothing is fsynced,
a SIGKILL in the middle of a write can leave one partial last line. Per-row
pipeline terminations are reported in the summary, never as a nonzero exit.
A row that raises any other toolkit error is errored: it is left out of the
outputs and counted in the summary, the other rows are still written, and
the run exits with the first errored row's code. The errors in
``_BATCH_FATAL`` end the batch at once, and so does a failed write, which
exits 2: the rows not yet started are cancelled, and the running ones
finish, unwritten, before the command returns.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import logging
import sys
import threading
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from pathlib import Path

import click

from tbforge import corpus
from tbforge.config import load_config, make_chat_client_factory, \
    make_simulator_factory
from tbforge.errors import (
    ConfigError,
    NonPositiveBeta,
    RequestRejected,
    TbforgeError,
    ToolMissing,
    TransportError,
)
from tbforge.dpo import DEFAULT_BETA, PairLogProbs, dpo_loss, random_grad_check
from tbforge.metrics import TaskResults, pass_at_k
from tbforge.pipeline import Finished, TestbenchPipeline
from tbforge.preference import (
    SIMILARITY_METHODS,
    PairMethod,
    PreferencePair,
    build_pairs,
    code_line_count,
    evaluate_candidate,
    form_similarity,
    sample_candidates,
    similarity_form,
)

log = logging.getLogger("tbforge")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_BACKEND = 3

METHOD_CHOICES = [m.value for m in PairMethod]

# Errors that would fail every row the same way end the batch at once; any
# other toolkit error, a prompt the endpoint refuses included, ends only the
# row that raised it.
_BATCH_FATAL = (ConfigError, ToolMissing, RequestRejected)


class _Slots:
    """At most ``count`` holders at once, served in the order they asked: a
    freed slot goes to the longest waiter, so a row that frees a slot and
    asks again at once cannot keep it from rows already waiting."""

    def __init__(self, count: int):
        self._lock = threading.Lock()
        self._free = count
        self._waiting: deque[threading.Event] = deque()

    def __enter__(self):
        with self._lock:
            if self._free and not self._waiting:
                self._free -= 1
                return
            turn = threading.Event()
            self._waiting.append(turn)
        turn.wait()

    def __exit__(self, *exc):
        with self._lock:
            if self._waiting:
                self._waiting.popleft().set()
            else:
                self._free += 1


class _Slotted:
    """A backend whose every method call holds one of the given slots. As
    ``complete()`` sleeps its retry backoff between ``complete_once`` calls,
    a row waiting to retry holds no chat slot."""

    def __init__(self, backend, slots: _Slots):
        self._backend = backend
        self._slots = slots

    def __getattr__(self, name):
        attr = getattr(self._backend, name)

        def call(*args):
            with self._slots:
                return attr(*args)
        return call


def _row_runner(config, jobs, coverage=False):
    """Build the config's backend factories now, so a bad backend setting, or
    with ``coverage`` a simulator that cannot measure it, fails before any
    input is read; the chat factory closes with the command.
    Returns ``run_rows(items, work, emit, *outputs)``. It runs ``work(item,
    chat, simulator)`` on ``2 * jobs`` threads, so one row simulates while
    another waits on the endpoint; each call of a row's backends holds one
    of ``jobs`` slots per backend. In input order, it appends each list that
    ``emit(item, result)`` returns to its ``(path, write)`` output with
    ``write(handle, lines)``, flushed (not fsynced) after each row; the files
    are created before the first row runs, and an output with no path is
    skipped. A row's toolkit error outside ``_BATCH_FATAL`` is its result:
    it is logged, and ``run_rows`` returns these errors. Any exception, a
    batch-fatal row or a failed write included, cancels the rows not yet
    started, waits for the running ones and closes the files before it
    propagates."""
    make_client = click.get_current_context().with_resource(
        make_chat_client_factory(config))
    make_simulator = make_simulator_factory(config, coverage=coverage)
    chat_slots, sim_slots = _Slots(jobs), _Slots(jobs)

    def run_rows(items, work, emit, *outputs) -> list[TbforgeError]:
        def guarded(item):
            try:
                return work(item, _Slotted(make_client(), chat_slots),
                            _Slotted(make_simulator(), sim_slots))
            except _BATCH_FATAL:
                raise
            except TbforgeError as exc:
                return exc

        _make_output_dirs(*(path for path, _ in outputs))
        errors = []
        with ExitStack() as stack:
            files = [(path and stack.enter_context(open(path, "w", encoding="utf-8")), write)
                     for path, write in outputs]
            pool = stack.enter_context(ThreadPoolExecutor(max_workers=2 * jobs))
            stack.callback(pool.shutdown, wait=False, cancel_futures=True)
            for item, result in zip(items, pool.map(guarded, items)):
                if isinstance(result, TbforgeError):
                    log.error("[error] %s: %s: %s", item.id, type(result).__name__, result)
                    errors.append(result)
                for (handle, write), lines in zip(files, emit(item, result)):
                    if handle:
                        write(handle, lines)
                        handle.flush()
        return errors

    return run_rows


def _check_distinct(outputs, inputs) -> None:
    """No output flag may name the file of another output flag or of an
    input flag. Each is a ``(flag, path)``; a flag given no path is skipped."""
    for i, (flag, path) in enumerate(outputs):
        for other_flag, other_path in (*outputs[i + 1:], *inputs):
            if path and other_path and Path(path).resolve() == Path(other_path).resolve():
                raise ConfigError(f"{flag} and {other_flag} name one file: {path}")


def _make_output_dirs(*paths) -> None:
    """Create the parent directory of each output path given, so a path
    whose directory cannot be made fails before any work."""
    for path in paths:
        if path:
            Path(path).parent.mkdir(parents=True, exist_ok=True)


def _write_report(report: dict, out_path) -> None:
    """Write a report as indented JSON to ``out_path``, or echo it."""
    text = json.dumps(report, indent=2)
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
    else:
        click.echo(text)


def _load_specs(path, tag: str) -> tuple[list, int]:
    """The spec rows of ``path`` and how many lines were skipped, each one
    logged under ``tag``."""
    skipped = []

    def skip(lineno, msg):
        log.error("[%s] line %s skipped: %s", tag, lineno, msg)
        skipped.append(lineno)
    pairs = corpus.load_spec_code_pairs(path, on_error=skip)
    return pairs, len(skipped)


def _read_source(path) -> str:
    """The UTF-8 text of a Verilog file; text that is not UTF-8 is an IO
    error that names the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: {exc}") from exc


@click.group()
@click.option("--verbose", is_flag=True, help="Log at debug level.")
def cli(verbose):
    logging.basicConfig(stream=sys.stderr, level=logging.DEBUG if verbose else logging.INFO,
                        format="%(levelname)s %(message)s")


# ---- gen-testbench ----

@cli.command("gen-testbench")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True),
              help="Spec/code JSONL with id, spec, code fields.")
@click.option("--out", "out_path", required=True, type=click.Path(),
              help="Output testbench JSONL.")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--jobs", default=1, show_default=True, type=click.IntRange(min=1),
              help="At most this many chat requests, open chat-endpoint "
                   "connections and simulator calls at once. Twice this many "
                   "rows run, so one row simulates while another waits on "
                   "the endpoint.")
@click.option("--min-code-lines", default=0, show_default=True,
              type=click.IntRange(min=0),
              help="Skip rows whose code has at most this many real lines.")
@click.option("--trace-log", "trace_path", type=click.Path(), default=None,
              help="Write per-row stage traces to this file.")
def cmd_gen_testbench(input_path, out_path, config_path, jobs, min_code_lines,
                      trace_path):
    """Run the testbench pipeline over a spec/code corpus."""
    _check_distinct((("--out", out_path), ("--trace-log", trace_path)),
                    (("--input", input_path), ("--config", config_path)))
    config = load_config(config_path)
    run_rows = _row_runner(config, jobs, coverage=not config.pipeline.skip_coverage)

    pairs, skipped = _load_specs(input_path, "input")

    if min_code_lines > 0:
        before = len(pairs)
        pairs = [p for p in pairs if code_line_count(p.code) > min_code_lines]
        log.info("[input] %d of %d rows pass the %d-line filter",
                 len(pairs), before, min_code_lines)

    def run_row(pair, chat, simulator):
        return TestbenchPipeline(chat, simulator, config.pipeline,
                                 llm=config.llm).run(pair)

    counts = Counter()
    termination_counts = Counter()

    def emit(pair, result):
        """The row's testbench rows and trace lines."""
        if isinstance(result, TbforgeError):
            return [], [f"{pair.id} [error] {type(result).__name__}"]
        trace = [f"{pair.id} [{entry.stage.value}] {entry.action} {entry.status}"
                 for entry in result.trace]
        if isinstance(result.outcome, Finished):
            counts["finished"] += 1
            return ([corpus.testbench_row(pair.id, result.outcome.record)],
                    trace + [f"{pair.id} [finish] ok"])
        stage, attempts = result.outcome.stage.value, result.outcome.attempts
        termination_counts[stage] += 1
        log.warning("[terminated] %s at %s after %d attempts", pair.id, stage, attempts)
        return [], trace + [f"{pair.id} [terminate] {stage} attempts={attempts}"]

    errors = run_rows(pairs, run_row, emit, (out_path, corpus.write_jsonl),
                      (trace_path, lambda handle, lines: handle.writelines(
                          line + "\n" for line in lines)))

    click.echo(f"rows: {len(pairs)}  finished: {counts['finished']}  "
               f"terminated: {termination_counts.total()}  errored: {len(errors)}  "
               f"skipped_input_lines: {skipped}")
    for stage in sorted(termination_counts):
        click.echo(f"  terminated at {stage}: {termination_counts[stage]}")
    if errors:
        raise errors[0]


# ---- collect-pairs ----

@cli.command("collect-pairs")
@click.option("--specs", "specs_path", required=True, type=click.Path(exists=True))
@click.option("--testbenches", "tb_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--method", required=True, type=click.Choice(METHOD_CHOICES))
@click.option("--n", "n_candidates", default=None, type=click.IntRange(min=2),
              help="Candidates per spec (default: sampling.n from config).")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--evals-out", "evals_path", type=click.Path(), default=None,
              help="Also write per-candidate evaluation rows.")
@click.option("--jobs", default=1, show_default=True, type=click.IntRange(min=1),
              help="At most this many chat requests, open chat-endpoint "
                   "connections and simulator calls at once. Twice this many "
                   "specs run, so one spec simulates while another waits on "
                   "the endpoint.")
def cmd_collect_pairs(specs_path, tb_path, out_path, method, n_candidates,
                      config_path, evals_path, jobs):
    """Sample candidate codes and build preference pairs against testbenches."""
    _check_distinct((("--out", out_path), ("--evals-out", evals_path)),
                    (("--specs", specs_path), ("--testbenches", tb_path),
                     ("--config", config_path)))
    config = load_config(config_path)
    run_rows = _row_runner(config, jobs)
    pair_method = PairMethod(method)

    specs, skipped = _load_specs(specs_path, "specs")
    testbenches = corpus.load_testbench_rows(tb_path)

    sampling = dataclasses.replace(config.sampling, n=n_candidates or config.sampling.n)

    joined = [spec for spec in specs if spec.id in testbenches]
    missing = len(specs) - len(joined)
    if missing:
        log.info("[join] %d specs have no testbench and are skipped", missing)

    def run_row(spec, chat, simulator):
        evals = []
        # Candidate k is evaluated before k+1 is requested, so the row makes
        # one backend call at a time and ends at its first failing one.
        sample_candidates(chat, spec.spec, sampling, retries=config.llm.retries,
                          backoff=config.llm.backoff_seconds,
                          on_code=lambda code: evals.append(evaluate_candidate(
                              code, testbenches[spec.id], simulator)))
        outcomes = build_pairs(spec.spec, spec.code, evals, pair_method,
                               cap=sampling.max_pairs_per_spec)
        return evals, outcomes

    counts = Counter()
    discard_counts = Counter()

    def emit(spec, result):
        """The row's pair rows and eval rows."""
        if isinstance(result, TbforgeError):
            return [], []
        evals, outcomes = result
        pair_rows = []
        for outcome in outcomes:
            if isinstance(outcome, PreferencePair):
                pair_rows.append(corpus.pair_row(f"{spec.id}#{len(pair_rows)}", outcome))
            else:
                discard_counts[outcome.reason] += 1
        counts["pairs"] += len(pair_rows)
        return pair_rows, [corpus.eval_row(spec.id, idx, evaluation)
                           for idx, evaluation in enumerate(evals)]

    errors = run_rows(joined, run_row, emit,
                      (out_path, corpus.write_jsonl), (evals_path, corpus.write_jsonl))

    click.echo(f"specs: {len(joined)}  pairs: {counts['pairs']}  "
               f"discards: {discard_counts.total()}  errored: {len(errors)}  "
               f"method: {method}  skipped_input_lines: {skipped}")
    for reason in sorted(discard_counts):
        click.echo(f"  discarded ({reason}): {discard_counts[reason]}")
    if errors:
        raise errors[0]


# ---- passk ----

@cli.command("passk")
@click.option("--results", "results_path", required=True, type=click.Path(exists=True),
              help="Task results JSONL: task, n, c_syntax, c_function.")
@click.option("--k", "k_list", required=True,
              help="Comma-separated k values, e.g. 1,5,10.")
@click.option("--n", "default_n", default=20, show_default=True,
              type=click.IntRange(min=1),
              help="Trials per task for rows that omit n.")
@click.option("--mode", type=click.Choice(["syntax", "function"]),
              default="function", show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the metrics JSON here instead of stdout.")
def cmd_passk(results_path, k_list, default_n, mode, out_path):
    """Unbiased pass@k over per-task outcome counts."""
    parts = [part.strip() for part in k_list.split(",") if part.strip()]
    if not parts:
        raise ConfigError("empty --k list")
    if not all(part.isdecimal() and int(part) >= 1 for part in parts):
        raise ConfigError(f"bad --k list: {k_list!r}")
    ks = [int(part) for part in parts]
    _check_distinct((("--out", out_path),), (("--results", results_path),))
    _make_output_dirs(out_path)

    tasks = corpus.read_fields(
        results_path, {"task": corpus.json_id, "n": corpus.json_int,
                       "c_syntax": corpus.json_int, "c_function": corpus.json_int},
        make=TaskResults, defaults={"n": default_n}, key="task")

    summary = {"mode": mode, "tasks": len(tasks), "results": {}}
    for k in ks:
        summary["results"][f"pass@{k}"] = pass_at_k(tasks, k, mode)
    _write_report(summary, out_path)


# ---- similarity ----

@cli.command("similarity")
@click.option("--method", required=True,
              type=click.Choice([m.value for m in SIMILARITY_METHODS]))
@click.argument("file_a", type=click.Path(exists=True))
@click.argument("file_b", type=click.Path(exists=True))
def cmd_similarity(method, file_a, file_b):
    """Score FILE_A (candidate) against FILE_B (reference)."""
    pair_method = PairMethod(method)

    def form(path):
        try:
            return similarity_form(pair_method, _read_source(path))
        except TbforgeError as exc:  # code the frontend rejects
            raise TbforgeError(f"{path}: {exc}") from exc

    score = form_similarity(pair_method, form(file_a), form(file_b))
    click.echo(f"{score.value:.6f}")


# ---- dpo ----

@cli.command("dpo")
@click.option("--pairs", "pairs_path", type=click.Path(exists=True), default=None,
              help="Pair log-probability JSONL.")
@click.option("--beta", default=DEFAULT_BETA, show_default=True)
@click.option("--gradcheck", "gradcheck_seeds", type=click.IntRange(min=1),
              default=None,
              help="Run this many seeded finite-difference gradient checks.")
@click.option("--out", "out_path", type=click.Path(), default=None)
def cmd_dpo(pairs_path, beta, gradcheck_seeds, out_path):
    """Preference-loss report and optional gradient check."""
    if not 0 < beta < float("inf"):
        raise NonPositiveBeta(f"--beta must be > 0 and finite, got {beta}")
    if pairs_path is None and gradcheck_seeds is None:
        raise ConfigError("nothing to do: pass --pairs and/or --gradcheck")
    _check_distinct((("--out", out_path),), (("--pairs", pairs_path),))
    _make_output_dirs(out_path)

    report = {"beta": beta}
    if pairs_path is not None:
        fields = {field.name: corpus.json_number
                  for field in dataclasses.fields(PairLogProbs)}
        batch = corpus.read_fields(pairs_path, fields, make=PairLogProbs)
        report["pairs"] = len(batch)
        report["mean_loss"] = dpo_loss(batch, beta=beta)

    if gradcheck_seeds is not None:
        tolerance = 1e-5
        worst = max(random_grad_check(seed, beta=beta) for seed in range(gradcheck_seeds))
        report["gradcheck"] = {"seeds": gradcheck_seeds, "max_rel_error": worst,
                               "tolerance": tolerance, "pass": worst < tolerance}

    _write_report(report, out_path)


# ---- simulate ----

@cli.command("simulate")
@click.option("--dut", "dut_path", required=True, type=click.Path(exists=True))
@click.option("--tb", "tb_path", required=True, type=click.Path(exists=True))
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
def cmd_simulate(dut_path, tb_path, config_path):
    """Compile and run one DUT/testbench pair; print the parsed outcome."""
    config = load_config(config_path)
    simulator = make_simulator_factory(config)()
    outcome = simulator.run_test(_read_source(dut_path), _read_source(tb_path))
    click.echo(json.dumps(corpus.outcome_json(outcome), indent=2))


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except click.exceptions.Abort:
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return EXIT_USAGE
    except (ToolMissing, TransportError) as exc:
        print(f"backend unavailable: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (corpus.JsonlError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TbforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    """The process entry point: ``main`` with the imported modules' objects
    frozen out of the collector, which spares a walk over them at exit."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
