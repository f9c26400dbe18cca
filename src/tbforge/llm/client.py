"""Chat-completion clients: HTTP endpoint and deterministic scripted mock.

The wire protocol is the widely deployed chat-completions convention: a
JSON body with a messages array (role/content), temperature, and max_tokens;
the response carries the assistant message text. The API key is read from an
environment variable named in the [llm] settings, never from files.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Sequence, Union

import requests

from tbforge.errors import ConfigError, RateLimited, ScriptExhausted, TransportError

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


class HttpChatClient:
    def __init__(self, settings: LlmSettings):
        self.settings = settings
        self._session = requests.Session()

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

        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.settings.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        try:
            response = self._session.post(
                self.settings.endpoint, json=payload, headers=headers,
                timeout=self.settings.request_timeout,
            )
        except requests.RequestException as exc:
            raise TransportError(f"chat endpoint unreachable: {exc}") from exc

        if response.status_code == 429:
            raise RateLimited("chat endpoint rate limited")
        if response.status_code >= 500:
            raise TransportError(f"chat endpoint error {response.status_code}")
        if response.status_code != 200:
            raise TransportError(
                f"chat endpoint rejected request ({response.status_code}): "
                f"{response.text[:200]}")
        try:
            body = response.json()
            return body["choices"][0]["message"]["content"]
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
    """Issue a chat completion, retrying transient transport failures.

    Rate limiting is surfaced distinctly and never retried here; the caller
    may defer and resubmit.
    """
    attempts = max(1, retries)
    last: TransportError | None = None
    for attempt in range(attempts):
        try:
            return client.complete_once(request)
        except RateLimited:
            raise
        except TransportError as exc:
            last = exc
            if attempt + 1 < attempts and backoff > 0:
                time.sleep(backoff * (2 ** attempt))
    raise TransportError(f"chat completion failed after {attempts} attempts: {last}")
