"""Command-line entry points tying the toolkit into batch workflows.

Outputs are JSONL (streamable, append-safe, diff-friendly); logs are
line-oriented with stage tags. Batch commands write results in input
order, so repeat runs produce byte-identical files. Their ``--jobs N``
bounds the backends, not the rows: at most N chat calls, and so N
chat-endpoint connections, and N simulator calls are in flight at once.
Both run 2N rows, each making one backend call at a time, so one row's
simulator call overlaps another row's chat call.

Exit codes: 0 success, 1 usage/config, 2 IO, 3 backend unavailable.
Per-row pipeline terminations are reported in the summary, never as a
nonzero exit. A row that raises any other toolkit error is errored: it is
left out of the outputs and counted in the summary, the other rows are still
written, and the run exits with the first errored row's code. The errors in
``_BATCH_FATAL`` end the batch at once, with no output.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import sys
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from pathlib import Path

import click

from tbforge import corpus
from tbforge.config import ChatClientFactory, load_config, \
    make_chat_client_factory, make_simulator_factory
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
# other toolkit error ends only the row that raised it.
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


class _SlottedChat:
    """A chat client whose every call holds one of the run's chat slots.
    ``complete()`` sleeps its retry backoff between calls, so a row waiting
    to retry holds no slot."""

    def __init__(self, client, slots: _Slots):
        self._client = client
        self._slots = slots

    def complete_once(self, request):
        with self._slots:
            return self._client.complete_once(request)


class _SlottedSimulator:
    """A simulator whose every call holds one of the run's simulator slots."""

    def __init__(self, simulator, slots: _Slots):
        self._simulator = simulator
        self._slots = slots

    @property
    def supports_coverage(self) -> bool:
        return self._simulator.supports_coverage

    def compile(self, dut, tb):
        with self._slots:
            return self._simulator.compile(dut, tb)

    def run_test(self, dut, tb):
        with self._slots:
            return self._simulator.run_test(dut, tb)

    def coverage(self, dut, tb):
        with self._slots:
            return self._simulator.coverage(dut, tb)


def _slotted_backends(config, jobs):
    """The config's chat-client and simulator factories, with every chat call
    holding one of ``jobs`` chat slots and every simulator call one of
    ``jobs`` simulator slots, each set shared by all rows of the run."""
    make_client = make_chat_client_factory(config)
    make_simulator = make_simulator_factory(config)
    chat_slots = _Slots(jobs)
    sim_slots = _Slots(jobs)
    return (ChatClientFactory(lambda: _SlottedChat(make_client(), chat_slots),
                              make_client.close),
            lambda: _SlottedSimulator(make_simulator(), sim_slots))


def _run_rows(items, work, jobs, client_factory):
    """Yield ``(item, work(item))`` in input order from ``2 * jobs`` threads,
    twice the slots of either backend, so one row simulates while another
    waits on the endpoint. A row's toolkit error outside ``_BATCH_FATAL`` is
    its result; any other exception ends the batch and cancels the rows not
    yet started. Closes ``client_factory``."""
    def guarded(item):
        try:
            return work(item)
        except _BATCH_FATAL:
            raise
        except TbforgeError as exc:
            return exc

    with closing(client_factory), ThreadPoolExecutor(max_workers=2 * jobs) as pool:
        yield from zip(items, pool.map(guarded, items))


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
              help="Skip rows whose code has at most this many real lines.")
@click.option("--trace-log", "trace_path", type=click.Path(), default=None,
              help="Write per-row stage traces to this file.")
def cmd_gen_testbench(input_path, out_path, config_path, jobs, min_code_lines,
                      trace_path):
    """Run the testbench pipeline over a spec/code corpus."""
    config = load_config(config_path)
    client_factory, simulator_factory = _slotted_backends(config, jobs)

    skipped_rows = []
    pairs = corpus.load_spec_code_pairs(
        input_path,
        on_error=lambda lineno, msg: skipped_rows.append((lineno, msg)))
    for lineno, msg in skipped_rows:
        log.error("[input] line %s skipped: %s", lineno, msg)

    if min_code_lines > 0:
        before = len(pairs)
        pairs = [p for p in pairs if code_line_count(p.code) > min_code_lines]
        log.info("[input] %d of %d rows pass the %d-line filter",
                 len(pairs), before, min_code_lines)

    def run_row(pair):
        pipeline = TestbenchPipeline(client_factory(), simulator_factory(),
                                     config.pipeline, llm=config.llm)
        return pipeline.run(pair)

    trace_lines = []
    rows = []
    termination_counts: dict[str, int] = {}
    errors = []
    for pair, result in _run_rows(pairs, run_row, jobs, client_factory):
        if isinstance(result, TbforgeError):
            errors.append(result)
            log.error("[error] %s: %s: %s", pair.id, type(result).__name__, result)
            trace_lines.append(f"{pair.id} [error] {type(result).__name__}")
            continue
        for entry in result.trace:
            trace_lines.append(
                f"{pair.id} [{entry.stage.value}] {entry.action} {entry.status}")
        if isinstance(result.outcome, Finished):
            rows.append(corpus.testbench_row(pair.id, result.outcome.record))
            trace_lines.append(f"{pair.id} [finish] ok")
        else:
            stage = result.outcome.stage.value
            termination_counts[stage] = termination_counts.get(stage, 0) + 1
            log.warning("[terminated] %s at %s after %d attempts", pair.id,
                        stage, result.outcome.attempts)
            trace_lines.append(
                f"{pair.id} [terminate] {stage} attempts={result.outcome.attempts}")

    corpus.write_jsonl(out_path, rows)
    if trace_path:
        Path(trace_path).write_text("\n".join(trace_lines) + "\n", encoding="utf-8")

    click.echo(f"rows: {len(pairs)}  finished: {len(rows)}  "
               f"terminated: {sum(termination_counts.values())}  errored: {len(errors)}  "
               f"skipped_input_lines: {len(skipped_rows)}")
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
@click.option("--n", "n_candidates", default=None, type=int,
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
    config = load_config(config_path)
    client_factory, simulator_factory = _slotted_backends(config, jobs)
    pair_method = PairMethod(method)

    specs = corpus.load_spec_code_pairs(
        specs_path, on_error=lambda lineno, msg: log.error(
            "[specs] line %s skipped: %s", lineno, msg))
    tb_rows = corpus.load_testbench_rows(tb_path)

    sampling = config.sampling
    if n_candidates is not None:
        sampling = dataclasses.replace(sampling, n=n_candidates)

    joined = [(spec, tb_rows[spec.id]) for spec in specs if spec.id in tb_rows]
    missing = len(specs) - len(joined)
    if missing:
        log.info("[join] %d specs have no testbench and are skipped", missing)

    def run_row(item):
        spec, tb_row = item
        simulator = simulator_factory()
        evals = []
        # Candidate k is evaluated before k+1 is requested, so the row makes
        # one backend call at a time and ends at its first failing one.
        sample_candidates(client_factory(), spec.spec, sampling,
                          retries=config.llm.retries,
                          backoff=config.llm.backoff_seconds,
                          on_code=lambda code: evals.append(
                              evaluate_candidate(code, tb_row["tb"], simulator)))
        outcomes = build_pairs(spec.spec, spec.code, evals, pair_method,
                               cap=config.max_pairs_per_spec)
        return evals, outcomes

    pair_rows = []
    eval_rows = []
    discard_counts: dict[str, int] = {}
    errors = []
    for (spec, _), result in _run_rows(joined, run_row, jobs, client_factory):
        if isinstance(result, TbforgeError):
            errors.append(result)
            log.error("[error] %s: %s: %s", spec.id, type(result).__name__, result)
            continue
        evals, outcomes = result
        for idx, evaluation in enumerate(evals):
            eval_rows.append(corpus.eval_row(spec.id, idx, evaluation))
        emitted_for_spec = 0
        for outcome in outcomes:
            if isinstance(outcome, PreferencePair):
                pair_rows.append(corpus.pair_row(f"{spec.id}#{emitted_for_spec}",
                                                 outcome))
                emitted_for_spec += 1
            else:
                discard_counts[outcome.reason] = \
                    discard_counts.get(outcome.reason, 0) + 1

    corpus.write_jsonl(out_path, pair_rows)
    if evals_path:
        corpus.write_jsonl(evals_path, eval_rows)

    click.echo(f"specs: {len(joined)}  pairs: {len(pair_rows)}  "
               f"discards: {sum(discard_counts.values())}  errored: {len(errors)}  "
               f"method: {method}")
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
              help="Trials per task for rows that omit n.")
@click.option("--mode", type=click.Choice(["syntax", "function"]),
              default="function", show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the metrics JSON here instead of stdout.")
def cmd_passk(results_path, k_list, default_n, mode, out_path):
    """Unbiased pass@k over per-task outcome counts."""
    try:
        ks = [int(part) for part in k_list.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"bad --k list: {k_list!r}")
    if not ks:
        raise ConfigError("empty --k list")

    tasks = [TaskResults(**row) for row in corpus.read_fields(
        results_path, {"task": str, "n": int, "c_syntax": int, "c_function": int},
        defaults={"n": default_n})]

    summary = {"mode": mode, "tasks": len(tasks), "results": {}}
    for k in ks:
        summary["results"][f"pass@{k}"] = pass_at_k(tasks, k, mode)
    text = json.dumps(summary, indent=2)
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
    else:
        click.echo(text)


# ---- similarity ----

@cli.command("similarity")
@click.option("--method", required=True,
              type=click.Choice([m.value for m in SIMILARITY_METHODS]))
@click.argument("file_a", type=click.Path(exists=True))
@click.argument("file_b", type=click.Path(exists=True))
def cmd_similarity(method, file_a, file_b):
    """Score FILE_A (candidate) against FILE_B (reference)."""
    pair_method = PairMethod(method)
    candidate = similarity_form(pair_method, Path(file_a).read_text(encoding="utf-8"))
    reference = similarity_form(pair_method, Path(file_b).read_text(encoding="utf-8"))
    score = form_similarity(pair_method, candidate, reference)
    click.echo(f"{score.value:.6f}")


# ---- dpo ----

@cli.command("dpo")
@click.option("--pairs", "pairs_path", type=click.Path(exists=True), default=None,
              help="Pair log-probability JSONL.")
@click.option("--beta", default=DEFAULT_BETA, show_default=True)
@click.option("--gradcheck", "gradcheck_seeds", type=int, default=None,
              help="Run this many seeded finite-difference gradient checks.")
@click.option("--out", "out_path", type=click.Path(), default=None)
def cmd_dpo(pairs_path, beta, gradcheck_seeds, out_path):
    """Preference-loss report and optional gradient check."""
    if beta <= 0:
        raise NonPositiveBeta(f"--beta must be > 0, got {beta}")
    if pairs_path is None and gradcheck_seeds is None:
        raise ConfigError("nothing to do: pass --pairs and/or --gradcheck")

    report = {"beta": beta}
    if pairs_path is not None:
        fields = {field.name: float for field in dataclasses.fields(PairLogProbs)}
        batch = [PairLogProbs(**row) for row in corpus.read_fields(pairs_path, fields)]
        report["pairs"] = len(batch)
        report["mean_loss"] = dpo_loss(batch, beta=beta)

    if gradcheck_seeds is not None:
        tolerance = 1e-5
        errors = [random_grad_check(seed, beta=beta)
                  for seed in range(gradcheck_seeds)]
        report["gradcheck"] = {
            "seeds": gradcheck_seeds,
            "max_rel_error": max(errors) if errors else 0.0,
            "tolerance": tolerance,
            "pass": bool(errors and max(errors) < tolerance),
        }

    text = json.dumps(report, indent=2)
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
    else:
        click.echo(text)


# ---- simulate ----

@cli.command("simulate")
@click.option("--dut", "dut_path", required=True, type=click.Path(exists=True))
@click.option("--tb", "tb_path", required=True, type=click.Path(exists=True))
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
def cmd_simulate(dut_path, tb_path, config_path):
    """Compile and run one DUT/testbench pair; print the parsed outcome."""
    config = load_config(config_path)
    simulator = make_simulator_factory(config)()
    outcome = simulator.run_test(Path(dut_path).read_text(encoding="utf-8"),
                                 Path(tb_path).read_text(encoding="utf-8"))
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
    except ValueError as exc:
        # e.g. duplicate ids or schema violations in input corpora
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
