"""The replay behind both mock backends: one script entry per call, in
order, so a run over mocks is deterministic at any worker count."""

import threading
from typing import Sequence

from tbforge.errors import ScriptExhausted


class Replay:
    """Hands out one entry of a nonempty script per call, in order, under a
    lock, and records each call in ``calls``; the call after the last entry
    raises ScriptExhausted. The script is only read, so replays may share it."""

    def __init__(self, script: Sequence):
        if not script:
            raise ValueError(f"{type(self).__name__} script must be nonempty")
        self._script = script
        self._lock = threading.Lock()
        self.calls: list = []

    def _next(self, call):
        with self._lock:
            self.calls.append(call)
            if len(self.calls) > len(self._script):
                raise ScriptExhausted(f"{type(self).__name__} script exhausted "
                                      f"after {len(self._script)} entries")
            return self._script[len(self.calls) - 1]
