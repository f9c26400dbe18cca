"""collect-pairs evaluates candidate k before candidate k+1 is sampled, and
keeps the endpoint and the simulator busy with 2·jobs such rows.

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
from tbforge.errors import ToolMissing, TransportError, UnparseableLog
from tbforge.sim import Report

from cli_fixtures import (
    CANDIDATE_A,
    CANDIDATE_B,
    InFlight,
    lines_before,
    write_collect_scripts,
    write_spec_rows,
)

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


def collect(monkeypatch, tmp_path, chat_factory, sim_factory, specs=1, n=2,
            jobs=1):
    """Run collect-pairs over ``specs`` rows through the given factories,
    writing ``pairs.jsonl`` and ``evals.jsonl``, and return the exit code.
    Spec i asks for "variant i." and its testbench names ``design00i``."""
    tmp_path.mkdir(parents=True, exist_ok=True)
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
                     "--evals-out", str(tmp_path / "evals.jsonl"),
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


def test_candidate_is_evaluated_before_next_is_sampled(monkeypatch, tmp_path):
    calls = []
    code = collect(monkeypatch, tmp_path, lambda: Chat(lambda k: calls.append("chat")),
                   lambda: Sim(lambda: calls.append("sim")), n=3)
    assert code == cli.EXIT_OK
    assert calls == ["chat", "sim"] * 3


def test_one_spec_is_sampled_while_another_simulates(monkeypatch, tmp_path):
    lock = threading.Lock()
    simulating = set()  # ids of the specs with a simulator call in flight
    overlapped = []

    class SpecChat(Chat):
        def complete_once(self, request):
            spec_id = "design%03d" % int(
                request.messages[0].content.rsplit("variant ", 1)[1].rstrip("."))
            with lock:
                overlapped.append(bool(simulating - {spec_id}))
            time.sleep(0.005)
            return super().complete_once(request)

    class SpecSim(Sim):
        def run_test(self, dut, tb):
            spec_id = tb.rsplit("// ", 1)[1].split()[0]
            with lock:
                simulating.add(spec_id)
            time.sleep(0.02)
            with lock:
                simulating.discard(spec_id)
            return super().run_test(dut, tb)

    code = collect(monkeypatch, tmp_path, SpecChat, SpecSim, specs=4, n=3, jobs=1)
    assert code == cli.EXIT_OK
    assert any(overlapped)


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


def test_simulator_tool_missing_exits_backend_unavailable(monkeypatch, tmp_path,
                                                         capsys):
    def missing():
        raise ToolMissing("simulator not found")

    code = collect(monkeypatch, tmp_path, Chat, lambda: Sim(missing))
    assert code == cli.EXIT_BACKEND
    assert "backend unavailable: simulator not found" in capsys.readouterr().err


def test_simulator_error_on_first_candidate_ends_row_after_one_chat_call(
        monkeypatch, tmp_path, capsys):
    lock = threading.Lock()
    chat_calls = {}  # spec text -> chat calls made for it

    class CountingChat(Chat):
        def complete_once(self, request):
            spec = request.messages[0].content
            with lock:
                chat_calls[spec] = chat_calls.get(spec, 0) + 1
            return super().complete_once(request)

    class FirstSpecSim(Sim):
        def run_test(self, dut, tb):
            if "design000" in tb:
                raise UnparseableLog("no verdict in simulator output")
            return super().run_test(dut, tb)

    code = collect(monkeypatch, tmp_path, CountingChat, FirstSpecSim, specs=2, n=4)
    assert code == cli.EXIT_USAGE
    assert "specs: 2  pairs: 0  discards: 6  errored: 1" in capsys.readouterr().out
    assert sorted(chat_calls.values()) == [1, 4]
    assert chat_calls["Spec for a serial audio encoder, variant 0."] == 1


def test_sampling_error_leaves_only_earlier_candidates_evaluated(monkeypatch,
                                                                  tmp_path, capsys):
    calls = []

    def before(k):
        calls.append(f"chat {k}")
        if k == 3:
            raise TransportError("endpoint gone")

    def evaluate():
        calls.append("sim")

    code = collect(monkeypatch, tmp_path, lambda: Chat(before),
                   lambda: Sim(evaluate), n=6)
    assert code == cli.EXIT_BACKEND
    assert "backend unavailable:" in capsys.readouterr().err
    # Candidates 0 to 2 were evaluated before candidate 3 was requested, and
    # nothing runs once that request has failed.
    assert calls == ["chat 0", "sim", "chat 1", "sim", "chat 2", "sim", "chat 3"]
    time.sleep(0.1)
    assert len(calls) == 7


def test_outputs_identical_across_jobs(monkeypatch, tmp_path, capsys):
    class AlternatingChat(Chat):
        """Answers CANDIDATE_A, CANDIDATE_B, CANDIDATE_A, ..."""

        def complete_once(self, request):
            super().complete_once(request)
            return CANDIDATE_B if self.count % 2 == 0 else CANDIDATE_A

    class SlowEarlySim(Sim):
        """CANDIDATE_B passes 2 of 5 cases and CANDIDATE_A 4 of 5. Later
        specs simulate faster, so rows finish out of input order; design003
        has no verdict for its second candidate."""

        def run_test(self, dut, tb):
            index = int(tb.rsplit("design", 1)[1].split()[0])
            time.sleep(0.002 * (8 - index))
            if index == 3 and "~" in dut:
                raise UnparseableLog("no verdict in simulator output")
            return Report(total_cases=5, failures=3 if "~" in dut else 1)

    outputs = {}
    for jobs in (1, 2, 3):
        work = tmp_path / f"jobs{jobs}"
        code = collect(monkeypatch, work, AlternatingChat, SlowEarlySim,
                       specs=8, n=3, jobs=jobs)
        assert code == cli.EXIT_USAGE
        assert "specs: 8  pairs: 14  discards: 7  errored: 1" \
            in capsys.readouterr().out
        outputs[jobs] = [(work / name).read_bytes()
                         for name in ("pairs.jsonl", "evals.jsonl")]
    assert outputs[1] == outputs[2] == outputs[3]
    evals = [json.loads(line) for line in outputs[1][1].splitlines()]
    assert len(evals) == 21
    assert "design003" not in {row["id"] for row in evals}


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

    code = collect(monkeypatch, tmp_path, chat, RowSim, specs=10, jobs=2)
    assert code == cli.EXIT_BACKEND
    assert "backend unavailable: simulator not found" in capsys.readouterr().err
    # Rows 1 to 3 may start beside row 0, and the worker that row 0 frees may
    # take row 4 before the batch ends, but rows 5 to 9 never start.
    assert 1 <= len(started) <= 5
    assert (tmp_path / "pairs.jsonl").read_bytes() == b""


@pytest.mark.parametrize("jobs", [1, 3])
def test_batch_fatal_error_keeps_the_rows_before_it(monkeypatch, tmp_path, jobs):
    class AlternatingChat(Chat):
        """Answers CANDIDATE_A, CANDIDATE_B, CANDIDATE_A, ..."""

        def complete_once(self, request):
            super().complete_once(request)
            return CANDIDATE_B if self.count % 2 == 0 else CANDIDATE_A

    class RankingSim(Sim):
        """CANDIDATE_B passes 2 of 5 cases and CANDIDATE_A 4 of 5."""

        def run_test(self, dut, tb):
            return Report(total_cases=5, failures=3 if "~" in dut else 1)

    class NoSimForDesign003(RankingSim):
        def run_test(self, dut, tb):
            if "design003" in tb:
                raise ToolMissing("simulator not found")
            return super().run_test(dut, tb)

    assert collect(monkeypatch, tmp_path / "whole", AlternatingChat, RankingSim,
                   specs=8, jobs=jobs) == cli.EXIT_OK
    assert collect(monkeypatch, tmp_path / "stopped", AlternatingChat,
                   NoSimForDesign003, specs=8, jobs=jobs) == cli.EXIT_BACKEND
    for name in ("pairs.jsonl", "evals.jsonl"):
        whole = (tmp_path / "whole" / name).read_text(encoding="utf-8")
        stopped = (tmp_path / "stopped" / name).read_text(encoding="utf-8")
        assert "design002" in stopped
        assert stopped == lines_before(whole, "design003")
