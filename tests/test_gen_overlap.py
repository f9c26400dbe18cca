"""gen-testbench keeps the endpoint busy while its rows simulate.

``--jobs N`` bounds chat calls and simulator calls, each to N at once, and
runs 2N rows, so one row's simulator call overlaps another row's chat call.
These run ``tbforge.cli.main`` in-process with the backend factories
replaced by thread-aware test doubles, so the tests can see which calls
overlap.
"""

import itertools
import json
import sys
import threading
import time

import pytest

from tbforge import cli
from tbforge.config import ChatClientFactory
from tbforge.errors import ToolMissing, TransportError
from tbforge.sim import CompileError, CoverageReport, Report

from cli_fixtures import (
    CASES_JSON,
    POINTS_JSON,
    InFlight,
    lines_before,
    write_pipeline_scripts,
)
from fixture_data import AUDIO_ENCODER_DUT, TESTBENCH_SKELETON

CONFIG = """\
[llm]
backend = mock
mock_script = {llm_script}
retries = {retries}
backoff_seconds = {backoff}

[simulator]
backend = mock
mock_script = {sim_script}
"""

WAIT_S = 2.0


def generate(monkeypatch, tmp_path, chat_factory, sim_factory, rows=4, jobs=1,
             retries=1, backoff=0.0, blank=()):
    """Run gen-testbench over ``rows`` rows through the given factories and
    return the exit code. Row i has id ``design00i``, a spec naming
    ``design i.`` (blank for the indexes in ``blank``) and a DUT whose last
    line names its id; outputs go to tb.jsonl and trace.log."""
    monkeypatch.setattr(cli, "make_chat_client_factory",
                        lambda config: ChatClientFactory(chat_factory))
    monkeypatch.setattr(cli, "make_simulator_factory", lambda config: sim_factory)
    tmp_path.mkdir(exist_ok=True)
    llm_script, sim_script = write_pipeline_scripts(tmp_path)
    config = tmp_path / "config.ini"
    config.write_text(CONFIG.format(llm_script=llm_script, sim_script=sim_script,
                                    retries=retries, backoff=backoff),
                      encoding="utf-8")
    specs = tmp_path / "specs.jsonl"
    specs.write_text("".join(
        json.dumps({"id": f"design{i:03d}",
                    "spec": "" if i in blank else f"Spec for design {i}.",
                    "code": f"{AUDIO_ENCODER_DUT}// design{i:03d}\n"}) + "\n"
        for i in range(rows)), encoding="utf-8")
    return cli.main(["gen-testbench", "--input", str(specs),
                     "--out", str(tmp_path / "tb.jsonl"), "--config", str(config),
                     "--jobs", str(jobs), "--trace-log", str(tmp_path / "trace.log")])


class Chat:
    """Answers one row's pipeline requests: function points, test cases, then
    a testbench for every later request. ``before(request)`` runs first and
    may raise."""

    REPLIES = [POINTS_JSON, CASES_JSON]

    def __init__(self, before=None):
        self.before = before
        self.answered = 0

    def complete_once(self, request):
        if self.before is not None:
            self.before(request)
        k = self.answered
        self.answered += 1
        return self.REPLIES[k] if k < len(self.REPLIES) \
            else f"```verilog\n{TESTBENCH_SKELETON}```"


class Sim:
    """Compiles everything, measures 95% coverage and passes every case;
    ``action(dut)`` runs first and may raise."""

    supports_coverage = True

    def __init__(self, action=None):
        self.action = action

    def _act(self, dut):
        if self.action is not None:
            self.action(dut)

    def compile(self, dut, tb):
        self._act(dut)
        return None

    def coverage(self, dut, tb):
        self._act(dut)
        return CoverageReport("m", 100, 95, 95.0)

    def run_test(self, dut, tb):
        self._act(dut)
        return Report(total_cases=5, failures=0)


@pytest.mark.parametrize("jobs", [1, 2])
def test_in_flight_calls_bounded_by_jobs(monkeypatch, tmp_path, jobs):
    flight = InFlight()
    code = generate(monkeypatch, tmp_path,
                    lambda: Chat(lambda request: flight.hold("chat")),
                    lambda: Sim(lambda dut: flight.hold("sim")), rows=8, jobs=jobs)
    assert code == cli.EXIT_OK
    assert 1 <= flight.peak["chat"] <= jobs
    assert 1 <= flight.peak["sim"] <= jobs


def test_one_row_calls_the_endpoint_while_another_simulates(monkeypatch, tmp_path):
    flight = InFlight()
    overlapped = []

    def chat_call(request):
        # A row makes one call at a time, so a simulator call in flight
        # during this chat call is another row's.
        overlapped.append(flight.now["sim"] > 0)
        flight.hold("chat")
        overlapped.append(flight.now["sim"] > 0)

    code = generate(monkeypatch, tmp_path, lambda: Chat(chat_call),
                    lambda: Sim(lambda dut: flight.hold("sim", 0.02)), rows=4, jobs=1)
    assert code == cli.EXIT_OK
    assert any(overlapped)
    assert flight.peak == {"chat": 1, "sim": 1}


def test_row_in_retry_backoff_holds_no_chat_slot(monkeypatch, tmp_path):
    lock = threading.Lock()
    calls = []  # the client of each chat call, in call order
    clients = itertools.count()
    failed = threading.Event()

    def chat():
        client = next(clients)
        if client == 1:
            # The other row starts once client 0's first call has failed.
            failed.wait(WAIT_S)

        def before(request):
            with lock:
                calls.append(client)
                first_of_client_0 = calls.count(0) == 1
            if client == 0 and first_of_client_0:
                failed.set()
                raise TransportError("endpoint busy")

        return Chat(before)

    code = generate(monkeypatch, tmp_path, chat, Sim, rows=2, jobs=1,
                    retries=2, backoff=0.5)
    assert code == cli.EXIT_OK
    failed = calls.index(0)
    retried = calls.index(0, failed + 1)
    # While client 0 sleeps before its retry, the other row uses the slot.
    assert 1 in calls[failed + 1:retried]


def test_outputs_identical_across_jobs(monkeypatch, tmp_path, capsys):
    def chat_call(request):
        if "design 5." in request.messages[0].content:
            raise TransportError("endpoint gone")

    class DraftFailsSim(Sim):
        """Later rows simulate faster, so rows finish out of input order;
        design004 never compiles."""

        def compile(self, dut, tb):
            super().compile(dut, tb)
            return CompileError("syntax error") if "design004" in dut else None

    def sim_call(dut):
        time.sleep(0.002 * (8 - int(dut.rsplit("design", 1)[1].strip())))

    outputs = {}
    for jobs in (1, 2, 3):
        work = tmp_path / f"jobs{jobs}"
        code = generate(monkeypatch, work, lambda: Chat(chat_call),
                        lambda: DraftFailsSim(sim_call), rows=8, jobs=jobs,
                        blank={2})
        assert code == cli.EXIT_BACKEND
        assert "rows: 8  finished: 5  terminated: 2  errored: 1" \
            in capsys.readouterr().out
        outputs[jobs] = [(work / name).read_bytes() for name in ("tb.jsonl", "trace.log")]
    assert outputs[1] == outputs[2] == outputs[3]
    trace = outputs[1][1].decode("utf-8").splitlines()
    assert "design002 [terminate] Analyze attempts=0" in trace
    assert "design004 [terminate] DraftCompile attempts=3" in trace
    assert "design005 [error] TransportError" in trace


def test_batch_fatal_error_leaves_later_rows_unstarted(monkeypatch, tmp_path, capsys):
    started = []

    def sim_call(dut):
        if "design000" in dut:
            raise ToolMissing("simulator not found")
        time.sleep(0.2)

    def chat():
        started.append(True)
        return Chat()

    code = generate(monkeypatch, tmp_path, chat, lambda: Sim(sim_call), rows=10,
                    jobs=2)
    assert code == cli.EXIT_BACKEND
    assert "backend unavailable: simulator not found" in capsys.readouterr().err
    # Rows 1 to 3 may start beside row 0, and the worker that row 0 frees may
    # take row 4 before the batch ends, but rows 5 to 9 never start.
    assert 1 <= len(started) <= 5
    assert (tmp_path / "tb.jsonl").read_bytes() == b""


@pytest.mark.parametrize("jobs", [1, 3])
def test_batch_fatal_error_keeps_the_rows_before_it(monkeypatch, tmp_path, jobs):
    def sim_call(dut):
        if "design003" in dut:
            raise ToolMissing("simulator not found")

    assert generate(monkeypatch, tmp_path / "whole", Chat, Sim, rows=8,
                    jobs=jobs) == cli.EXIT_OK
    assert generate(monkeypatch, tmp_path / "stopped", Chat, lambda: Sim(sim_call),
                    rows=8, jobs=jobs) == cli.EXIT_BACKEND
    for name in ("tb.jsonl", "trace.log"):
        whole = (tmp_path / "whole" / name).read_text(encoding="utf-8")
        stopped = (tmp_path / "stopped" / name).read_text(encoding="utf-8")
        assert "design002" in stopped
        assert stopped == lines_before(whole, "design003")


def test_slots_bound_holders_and_serve_waiters_under_contention():
    slots = cli._Slots(3)
    lock = threading.Lock()
    state = {"now": 0, "peak": 0, "entries": 0}

    def worker():
        for _ in range(200):
            with slots:
                with lock:
                    state["now"] += 1
                    state["peak"] = max(state["peak"], state["now"])
                    state["entries"] += 1
                time.sleep(0.0001)
                with lock:
                    state["now"] -= 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WAIT_S * 5)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert state["peak"] <= 3
    assert (state["now"], state["entries"]) == (0, 16 * 200)
