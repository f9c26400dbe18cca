"""Stub chat-completions endpoint for the tbforge benchmark.

The server runs in the benchmark process on 127.0.0.1 and speaks the wire
format ``tbforge.llm.client.HttpChatClient`` posts: a JSON body with a
``messages`` array, answered by ``choices[0].message.content``. A
responder decides each answer from the row tag in the first user message
and the row's plan, sleeps the planned latency, and the server records
service time, request and response bytes, status and row for every
request.

Requests are served by a fixed pool of handler threads. Each keep-alive
connection holds one thread, so the pool is never smaller than the
number of client connections the CLI opens (one per worker).
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, HTTPServer

import inputs

_TAG = re.compile(r"\[bench-row ([A-Za-z0-9_-]+)\]")


@dataclass(frozen=True)
class Answer:
    status: int
    content: str
    latency: float
    row: str


@dataclass(frozen=True)
class Record:
    arrival: float          # perf_counter when the request was parsed
    service: float          # seconds from arrival to the response written
    request_bytes: int
    response_bytes: int
    row: str
    status: int


@dataclass
class Session:
    """Everything the stub sees during one CLI invocation."""
    responder: object
    records: list[Record] = field(default_factory=list)
    violations: list[tuple[str, str]] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def first_arrival(self) -> float | None:
        with self.lock:
            return min((r.arrival for r in self.records), default=None)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 60

    def setup(self):
        super().setup()
        # Without this, Nagle's algorithm and delayed ACKs stall every
        # header/body write pair by tens of milliseconds.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def log_message(self, format, *args):
        pass

    def do_POST(self):
        arrival = time.perf_counter()
        session: Session = self.server.session
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        try:
            answer = session.responder.answer(json.loads(body), session)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            answer = Answer(400, f"stub cannot answer: {exc!r}", 0.0, "")
            with session.lock:
                session.violations.append(("", answer.content))
        if answer.latency > 0:
            time.sleep(answer.latency)
        if answer.status == 200:
            payload = {"object": "chat.completion",
                       "choices": [{"index": 0, "finish_reason": "stop",
                                    "message": {"role": "assistant",
                                                "content": answer.content}}]}
        else:
            payload = {"error": {"message": answer.content}}
        out = json.dumps(payload).encode("utf-8")
        self.send_response(answer.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(out)))
        self.end_headers()
        self.wfile.write(out)
        record = Record(arrival, time.perf_counter() - arrival, len(body), len(out),
                        answer.row, answer.status)
        with session.lock:
            session.records.append(record)


class _PooledServer(HTTPServer):
    """An HTTPServer whose connections run on a bounded thread pool."""

    def __init__(self, threads: int):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.pool = ThreadPoolExecutor(max_workers=threads, thread_name_prefix="stub")
        self.session: Session | None = None

    def process_request(self, request, client_address):
        self.pool.submit(self._serve, request, client_address)

    def _serve(self, request, client_address):
        try:
            self.finish_request(request, client_address)
        except OSError:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)


class StubServer:
    def __init__(self, threads: int):
        self._server = _PooledServer(threads)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05})

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def begin(self, responder) -> Session:
        session = Session(responder)
        self._server.session = session
        return session

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._thread.join()
        self._server.server_close()
        self._server.pool.shutdown(wait=True)


# ------------------------------------------------------------ responders

def _prompt_kind(text: str) -> str:
    """Which pipeline prompt a user message is, by phrases of the shipped
    templates and feedback messages."""
    if text.startswith("Design specification:"):
        return "draft"
    for kind, needle in (("points", "functional points"),
                         ("cases", "most important testcases"),
                         ("reask", "could not be parsed"),
                         ("scaffold_feedback", "scaffolding"),
                         ("improve_feedback", "improved testbench failed to compile"),
                         ("draft_feedback", "failed to compile"),
                         ("improve", "line coverage is below"),
                         ("rectify", "simulation output")):
        if needle in text:
            return kind
    return "other"


def _points(row) -> str:
    m = row.module
    body = ",\n".join(
        f'  {i}: {{"Point": "{s.target} update", '
        f'"Scenario": "{s.target} loads a function of its sources on each rising '
        f'edge of clk while rst is low", "Application": "datapath stage {i}"}}'
        for i, s in enumerate(m.seq[:3], start=1))
    return f"Here are the top three function points of {m.name}:\n{{\n{body}\n}}\n"


def _cases(row) -> str:
    m = row.module
    cases = {str(i): {"Title": f"{m.name} case {i}",
                      "Objective": f"Check {m.outputs[i % len(m.outputs)]} after "
                                   f"{i} clock cycles",
                      "Setup": f"Assert rst, release it, drive {', '.join(m.data_inputs)} "
                               f"with pattern {i} and wait {i} cycles",
                      "Coverage": "reset path, register updates and output wiring"}
             for i in range(1, 6)}
    return "```json\n" + json.dumps(cases, indent=2) + "\n```\n"


_NOT_JSON = ("I need more detail about the reset behaviour before I can list "
             "the items you asked for. Could you describe the clock domain?")


class TbgenResponder:
    """Answers gen-testbench conversations from each row's plan.

    The reply index is the number of user turns in the conversation, so a
    retried request gets the same reply. A prompt kind the plan does not
    expect at that turn is recorded as a violation of the row.
    """

    def __init__(self, rows):
        self.rows = {r.id: r for r in rows}
        self._served_503: set = set()

    def answer(self, payload, session: Session) -> Answer:
        users = [m["content"] for m in payload["messages"] if m["role"] == "user"]
        row = self.rows[_TAG.search(users[0]).group(1)]
        conv = "main" if users[0].startswith("Design specification:") else "analyze"
        k = len(users) - 1
        expected = (row.expected.main_prompts if conv == "main"
                    else row.expected.analyze_prompts)
        kind = _prompt_kind(users[-1])
        if k >= len(expected) or expected[k] != kind:
            message = f"{conv} turn {k}: got {kind} prompt, plan {expected}"
            with session.lock:
                session.violations.append((row.id, message))
            return Answer(400, message, 0.0, row.id)
        with session.lock:
            if (conv, k) in row.transient_503 and (row.id, conv, k) not in self._served_503:
                self._served_503.add((row.id, conv, k))
                return Answer(503, "overloaded, retry", 0.0, row.id)
        latency = row.chat_latency[(conv, k)]
        if conv == "analyze":
            reply = row.analyze[k]
            text = {"points": _points, "cases": _cases}.get(
                reply.kind, lambda r: _NOT_JSON)(row)
        else:
            text = ("Here is the testbench.\n```verilog\n"
                    + inputs.tbgen_testbench(row, k) + "```\n")
        return Answer(200, text, latency, row.id)


class PairsResponder:
    """Serves each spec's candidates in order. ``sample_candidates`` sends
    identical requests for candidates i and i+3, so a per-spec counter,
    not the request, picks the candidate."""

    def __init__(self, rows):
        self.rows = {r.id: r for r in rows}
        self._served: dict[str, int] = {}

    def answer(self, payload, session: Session) -> Answer:
        users = [m["content"] for m in payload["messages"] if m["role"] == "user"]
        row = self.rows[_TAG.search(users[0]).group(1)]
        with session.lock:
            k = self._served.get(row.id, 0)
            if len(users) != 1 or users[0] != row.spec or k >= len(row.candidates):
                message = f"unexpected sampling request {k} for {row.id}"
                session.violations.append((row.id, message))
                return Answer(400, message, 0.0, row.id)
            self._served[row.id] = k + 1
        text = "```verilog\n" + row.candidates[k] + "```\n"
        return Answer(200, text, row.chat_latency[k], row.id)
