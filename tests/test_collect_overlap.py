"""collect-pairs evaluates candidate k while candidate k+1 is sampled.

These run ``tbforge.cli.main`` in-process with the backend factories
replaced by thread-aware test doubles, so the tests can see which calls
overlap.
"""

import json
import threading
import time

import pytest

from tbforge import cli
from tbforge.config import ChatClientFactory
from tbforge.errors import ToolMissing, TransportError
from tbforge.sim import Report

from cli_fixtures import CANDIDATE_A, InFlight, write_collect_scripts, write_spec_rows

CONFIG = """\
[llm]
backend = mock
mock_script = {llm_script}
retries = 1
backoff_seconds = 0

[simulator]
backend = mock
mock_script = {sim_script}

[sampling]
n = {n}
"""

WAIT_S = 2.0


def collect(monkeypatch, tmp_path, chat_factory, sim_factory, specs=1, n=2,
            jobs=1):
    """Run collect-pairs over ``specs`` rows through the given factories and
    return the exit code."""
    monkeypatch.setattr(cli, "make_chat_client_factory",
                        lambda config: ChatClientFactory(chat_factory))
    monkeypatch.setattr(cli, "make_simulator_factory", lambda config: sim_factory)
    llm_script, sim_script = write_collect_scripts(tmp_path)
    config = tmp_path / "config.ini"
    config.write_text(CONFIG.format(llm_script=llm_script, sim_script=sim_script,
                                    n=n), encoding="utf-8")
    spec_path = tmp_path / "specs.jsonl"
    rows = write_spec_rows(spec_path, specs)
    tb_path = tmp_path / "tb.jsonl"
    tb_path.write_text("".join(json.dumps({"id": row["id"],
                                           "tb": f"module tb; // {row['id']}\nendmodule"})
                               + "\n" for row in rows), encoding="utf-8")
    return cli.main(["collect-pairs", "--specs", str(spec_path),
                     "--testbenches", str(tb_path),
                     "--out", str(tmp_path / "pairs.jsonl"),
                     "--method", "testbench", "--config", str(config),
                     "--jobs", str(jobs)])


class Chat:
    """Answers every request with CANDIDATE_A; ``before(k)`` runs first for
    the k-th request of this client (from 0)."""

    def __init__(self, before=None):
        self.before = before
        self.count = 0

    def complete_once(self, request):
        k = self.count
        self.count += 1
        if self.before is not None:
            self.before(k)
        return CANDIDATE_A


class Sim:
    """Runs ``action()`` for each run_test, then reports 4 of 5 passed."""

    supports_coverage = False

    def __init__(self, action=None):
        self.action = action

    def run_test(self, dut, tb):
        if self.action is not None:
            self.action()
        return Report(total_cases=5, failures=1)


def test_candidate_is_evaluated_while_next_is_sampled(monkeypatch, tmp_path):
    first_run = threading.Event()
    waits = []

    def before(k):
        if k == 1:
            waits.append(first_run.wait(timeout=WAIT_S))

    code = collect(monkeypatch, tmp_path, lambda: Chat(before),
                   lambda: Sim(first_run.set))
    assert code == cli.EXIT_OK
    assert waits == [True]


@pytest.mark.parametrize("jobs", [1, 2])
def test_in_flight_calls_bounded_by_jobs(monkeypatch, tmp_path, jobs):
    flight = InFlight()
    code = collect(monkeypatch, tmp_path,
                   lambda: Chat(lambda k: flight.hold("chat")),
                   lambda: Sim(lambda: flight.hold("sim")),
                   specs=6, n=3, jobs=jobs)
    assert code == cli.EXIT_OK
    assert 1 <= flight.peak["chat"] <= jobs
    assert 1 <= flight.peak["sim"] <= jobs


def test_simulator_error_on_lane_exits_backend_unavailable(monkeypatch, tmp_path,
                                                           capsys):
    def missing():
        raise ToolMissing("simulator not found")

    code = collect(monkeypatch, tmp_path, Chat, lambda: Sim(missing))
    assert code == cli.EXIT_BACKEND
    assert "backend unavailable: simulator not found" in capsys.readouterr().err


def test_sampling_error_cancels_queued_evaluations(monkeypatch, tmp_path, capsys):
    failed = threading.Event()
    lock = threading.Lock()
    runs = {"started": 0, "finished": 0}

    def before(k):
        if k == 3:
            failed.set()
            raise TransportError("endpoint gone")

    def evaluate():
        with lock:
            runs["started"] += 1
        failed.wait(timeout=WAIT_S)
        time.sleep(0.05)
        with lock:
            runs["finished"] += 1

    code = collect(monkeypatch, tmp_path, lambda: Chat(before),
                   lambda: Sim(evaluate), n=4)
    assert code == cli.EXIT_BACKEND
    assert "backend unavailable:" in capsys.readouterr().err
    # The evaluation running when sampling failed has finished; the two
    # queued behind it were cancelled and never start.
    assert runs == {"started": 1, "finished": 1}
    time.sleep(0.1)
    assert runs == {"started": 1, "finished": 1}


def test_batch_fatal_error_leaves_later_rows_unstarted(monkeypatch, tmp_path, capsys):
    started = []

    class RowSim(Sim):
        """No simulator for the first spec; the others take a while."""

        def run_test(self, dut, tb):
            if "design000" in tb:
                raise ToolMissing("simulator not found")
            time.sleep(0.2)
            return super().run_test(dut, tb)

    def chat():
        started.append(True)
        return Chat()

    code = collect(monkeypatch, tmp_path, chat, RowSim, specs=6, jobs=2)
    assert code == cli.EXIT_BACKEND
    assert "backend unavailable: simulator not found" in capsys.readouterr().err
    # Row 1 may start beside row 0, and the worker that row 0 frees may take
    # row 2 before the batch ends, but rows 3 to 5 never start.
    assert 1 <= len(started) <= 3
    assert not (tmp_path / "pairs.jsonl").exists()
