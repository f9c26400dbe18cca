"""Chat-completion clients: HTTP endpoint and deterministic scripted mock.

The wire protocol is the widely deployed chat-completions convention: a
JSON body with a messages array (role/content), temperature, and max_tokens;
the response carries the assistant message text. The API key is read from an
environment variable named in the [llm] settings, never from files.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import ssl
import threading
import time
import urllib.request
from dataclasses import dataclass
from typing import Sequence, Union
from urllib.parse import unquote, urlsplit

from tbforge.corpus import json_string
from tbforge.errors import (
    ConfigError,
    RateLimited,
    RequestRejected,
    ScriptExhausted,
    TransportError,
)

_ROLES = ("system", "user", "assistant")


@dataclass(frozen=True)
class Message:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in _ROLES:
            raise ValueError(f"unknown role {self.role!r}")


@dataclass(frozen=True)
class ChatRequest:
    messages: tuple[Message, ...]
    temperature: float = 0.0
    max_tokens: int = 4096
    top_p: float | None = None
    top_k: int | None = None

    def __post_init__(self):
        if not any(m.role == "user" for m in self.messages):
            raise ValueError("chat request needs at least one user message")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be > 0")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


@dataclass(frozen=True)
class LlmSettings:
    """The [llm] config section: which chat backend, and how to call it."""

    backend: str = "http"  # http | mock
    endpoint: str = ""
    model: str = ""
    api_key_env: str = "TBFORGE_API_KEY"
    max_tokens: int = 4096
    retries: int = 3
    backoff_seconds: float = 0.5
    temperature: float = 0.0  # pipeline prompts run deterministically
    request_timeout: float = 120.0
    mock_script: str = ""

    def __post_init__(self):
        if self.backend not in ("http", "mock"):
            raise ConfigError(f"llm backend must be http or mock, got {self.backend!r}")
        if self.backend == "mock" and not self.mock_script:
            raise ConfigError("llm backend mock needs mock_script")
        for key, ok, rule in (("retries", self.retries >= 1, ">= 1"),
                              ("request_timeout", self.request_timeout > 0, "> 0"),
                              ("backoff_seconds", self.backoff_seconds >= 0, ">= 0"),
                              ("max_tokens", self.max_tokens >= 1, ">= 1"),
                              ("temperature", self.temperature >= 0, ">= 0")):
            if not ok:
                raise ConfigError(f"llm {key} must be {rule}")


class HttpChatClient:
    """Posts chat requests over a pool of idle keep-alive connections.

    A call takes the most recently returned idle connection, or opens one
    when none is idle, and returns it after the reply, so a run never holds
    more connections than it has calls in flight. Proxies come from the
    ``HTTP(S)_PROXY``/``NO_PROXY`` environment and certificates from the
    system store (or ``SSL_CERT_FILE``/``SSL_CERT_DIR``).
    """

    def __init__(self, settings: LlmSettings):
        self.settings = settings
        try:  # a malformed port or IPv6 host, in the endpoint or a proxy URL
            url = urlsplit(settings.endpoint)
            if url.scheme not in ("http", "https") or not url.hostname:
                raise ConfigError(
                    f"llm endpoint must be an http(s) URL, got {settings.endpoint!r}")
            self._context = ssl.create_default_context() if url.scheme == "https" else None
            self._address = (url.hostname, url.port)
            self._tunnel = None
            self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
            self._headers = {"Content-Type": "application/json", "User-Agent": "tbforge"}
            proxy = urllib.request.getproxies().get(url.scheme)
            if proxy and not urllib.request.proxy_bypass(url.netloc.rpartition("@")[2]):
                proxy = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
                proxy_headers = {}
                if proxy.username:
                    credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
                    proxy_headers["Proxy-Authorization"] = \
                        "Basic " + base64.b64encode(credentials.encode()).decode()
                if self._context:
                    # TLS to the endpoint runs inside a CONNECT tunnel.
                    self._tunnel = (url.hostname, url.port, proxy_headers)
                else:
                    self._path = settings.endpoint
                    self._headers.update(proxy_headers)
                self._address = (proxy.hostname, proxy.port)
        except ValueError as exc:
            raise ConfigError(f"bad llm endpoint or proxy URL: {exc}") from None
        self._lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []

    def _open(self) -> http.client.HTTPConnection:
        timeout = self.settings.request_timeout
        if self._context is None:
            return http.client.HTTPConnection(*self._address, timeout=timeout)
        conn = http.client.HTTPSConnection(*self._address, timeout=timeout,
                                           context=self._context)
        if self._tunnel:
            conn.set_tunnel(*self._tunnel)
        return conn

    def _checkout(self) -> http.client.HTTPConnection:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        return self._open()

    def _post(self, body: bytes, headers: dict) -> tuple[int, bytes]:
        conn = self._checkout()
        reused = conn.sock is not None
        try:
            conn.request("POST", self._path, body, headers)
            response = conn.getresponse()
            reply = response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            # The server may close an idle keep-alive connection at any
            # time; that costs one resend on another connection, not a retry.
            if reused and isinstance(exc, ConnectionError):
                return self._post(body, headers)
            raise TransportError(f"chat endpoint unreachable: {exc}") from exc
        except BaseException:
            conn.close()
            raise
        with self._lock:
            self._idle.append(conn)
        return reply

    def close(self) -> None:
        """Close every idle connection; call it once no call is in flight."""
        with self._lock:
            for conn in self._idle:
                conn.close()
            self._idle.clear()

    def complete_once(self, request: ChatRequest) -> str:
        payload = {
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        if self.settings.model:
            payload["model"] = self.settings.model
        if request.top_p is not None:
            payload["top_p"] = request.top_p
        if request.top_k is not None:
            payload["top_k"] = request.top_k

        headers = dict(self._headers)
        api_key = os.environ.get(self.settings.api_key_env, "")
        if api_key:
            if not (api_key.isascii() and api_key.isprintable()):
                raise ConfigError(f"{self.settings.api_key_env} holds a character "
                                  "that is not printable ASCII")
            headers["Authorization"] = f"Bearer {api_key}"

        status, body = self._post(json.dumps(payload).encode("utf-8"), headers)
        if status == 429:
            raise RateLimited("chat endpoint rate limited")
        if status >= 500:
            raise TransportError(f"chat endpoint error {status}")
        if status != 200:
            error = RequestRejected if 400 <= status < 500 and status != 408 \
                else TransportError
            raise error(f"chat endpoint rejected request ({status}): "
                        f"{body.decode('utf-8', 'replace')[:200]}")
        try:
            return json_string(json.loads(body)["choices"][0]["message"]["content"])
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed chat response: {exc}") from exc


ScriptItem = Union[str, Exception]


class MockChatClient:
    """Returns scripted responses in order; Exception entries are raised.

    Records every request in ``calls`` so tests can assert call counts and
    prompt contents.
    """

    def __init__(self, script: Sequence[ScriptItem]):
        if not script:
            raise ValueError("mock chat script must be nonempty")
        self._script = list(script)
        self._cursor = 0
        self._lock = threading.Lock()
        self.calls: list[ChatRequest] = []

    def complete_once(self, request: ChatRequest) -> str:
        with self._lock:
            self.calls.append(request)
            if self._cursor >= len(self._script):
                raise ScriptExhausted("mock chat script exhausted")
            item = self._script[self._cursor]
            self._cursor += 1
        if isinstance(item, Exception):
            raise item
        return item


def complete(client, request: ChatRequest, retries: int, backoff: float) -> str:
    """Issue a chat completion in at most ``retries`` attempts, retrying
    transport failures, rate limiting (429) included, with bounded
    exponential backoff; this is the one layer that retries. A rejected
    request (a 4xx other than 408 and 429) would get the same answer again,
    so it is re-raised at once."""
    last: TransportError | None = None
    for attempt in range(retries):
        try:
            return client.complete_once(request)
        except RequestRejected:
            raise
        except TransportError as exc:
            last = exc
            if attempt + 1 < retries and backoff > 0:
                time.sleep(backoff * (2 ** attempt))
    raise TransportError(f"chat completion failed after {retries} attempts: {last}")
