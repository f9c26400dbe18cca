"""Toolkit configuration: a simple INI file with strict key validation.

Each section fills the settings dataclass of the ``Config`` field of the
same name, and that dataclass is the only place a key, its type and its
default are written. Two keys sit in another section than their field:
``[paths] workdir_root`` fills the simulator settings, and ``[sampling]
max_pairs_per_spec`` fills ``Config`` itself. An empty value means the
default.

Secrets never live in the file; the LLM API key is read from the
environment variable named by ``llm.api_key_env``. Mock backends are
configured with JSON script files and are instantiated fresh per pipeline
row, so batch runs stay deterministic at any worker count.
"""

from __future__ import annotations

import configparser
import json
import types
from collections import defaultdict
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

from tbforge.corpus import json_string
from tbforge.errors import ConfigError
from tbforge.llm.client import HttpChatClient, LlmSettings, MockChatClient
from tbforge.pipeline import PipelineConfig
from tbforge.preference import DEFAULT_PAIR_CAP, SamplingParams
from tbforge.sim.backends import CommandSimulator, MockSimulator
from tbforge.sim.config import SimulatorConfig
from tbforge.sim.outcomes import CompileError, Report, RuntimeAbort


@dataclass(frozen=True)
class Config:
    llm: LlmSettings = field(default_factory=LlmSettings)
    simulator: SimulatorConfig = field(default_factory=SimulatorConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    sampling: SamplingParams = field(default_factory=SamplingParams)
    max_pairs_per_spec: int = DEFAULT_PAIR_CAP


def ini_schema() -> dict[str, dict[str, tuple[str, object]]]:
    """Each INI section's keys, mapped to (the ``Config`` field whose
    dataclass the key fills, or "" for a field of ``Config`` itself, the
    key's type)."""
    owners = get_type_hints(Config)
    schema = {owner: {key: (owner, hint) for key, hint in get_type_hints(cls).items()}
              for owner, cls in owners.items() if is_dataclass(cls)}
    schema["paths"] = {"workdir_root": schema["simulator"].pop("workdir_root")}
    schema["sampling"]["max_pairs_per_spec"] = ("", owners["max_pairs_per_spec"])
    return schema


def _typed(key: str, raw: str, hint):
    """Cast one non-empty INI value to its field's type."""
    if isinstance(hint, types.UnionType):  # ``T | None``: the value is a T
        hint = next(arg for arg in get_args(hint) if arg is not type(None))
    try:
        if hint == tuple[float, ...]:  # comma-separated sampling temperatures
            return tuple(float(part) for part in raw.split(",") if part.strip())
        if hint is bool:
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return hint(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def load_config(path) -> Config:
    """Parse and validate the INI config; unknown sections/keys reject."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"bad config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")

    schema = ini_schema()
    for section in parser.sections():
        if section not in schema:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = set(parser[section]) - set(schema[section])
        if unknown:
            raise ConfigError(
                f"unknown keys in [{section}]: {', '.join(sorted(unknown))}")

    found: dict[str, dict] = defaultdict(dict)
    for section, keys in schema.items():
        for key, (owner, hint) in keys.items():
            raw = parser.get(section, key, fallback="")
            if raw:
                found[owner][key] = (raw, hint)

    def typed(owner: str) -> dict:
        return {key: _typed(key, raw, hint) for key, (raw, hint) in found[owner].items()}

    settings = {owner: cls(**typed(owner))
                for owner, cls in get_type_hints(Config).items() if is_dataclass(cls)}
    return Config(**settings, **typed(""))


# -- backend factories --

def _load_script(path, backend: str, read_entry) -> list:
    """A mock script: a nonempty JSON list, each entry read by ``read_entry``.
    Any fault, a bad entry included, is a ConfigError that names the file."""
    try:
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(entries, list) or not entries:
            raise ValueError("not a nonempty JSON list")
        return [read_entry(entry) for entry in entries]
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
        problem = f"entry lacks {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"bad {backend} mock script {path}: {problem}") from exc


def _sim_entry(entry):
    if not isinstance(entry, dict):
        raise TypeError(f"entry is not an object: {entry!r}")
    kind = entry.get("kind")
    if kind == "compile":
        return "ok" if entry.get("ok", True) \
            else CompileError(log=entry.get("log", "compile failed"))
    if kind == "run":
        if "abort" in entry:
            return RuntimeAbort(reason=entry["abort"], log=entry.get("log", ""))
        return Report(total_cases=int(entry["total"]), failures=int(entry["failures"]))
    if kind == "coverage":
        percent = float(entry["percent"])
        if not 0 <= percent <= 100:
            raise ValueError(f"coverage percent out of range: {percent}")
        return percent
    raise ValueError(f"unknown entry kind {kind!r}")


def make_simulator_factory(config: Config):
    """Returns a zero-arg callable producing a simulator backend. Mock
    backends are fresh per call so each pipeline row replays the script
    from the top."""
    if config.simulator.backend == "mock":
        script = _load_script(config.simulator.mock_script, "simulator", _sim_entry)
        return lambda: MockSimulator(list(script))
    shared = CommandSimulator(config.simulator)
    return lambda: shared


class ChatClientFactory:
    """A zero-arg callable producing a chat client, plus ``close()``, which
    closes the connections the clients it made opened."""

    def __init__(self, make, close=lambda: None):
        self._make = make
        self.close = close

    def __call__(self):
        return self._make()


def make_chat_client_factory(config: Config) -> ChatClientFactory:
    """Mock clients are fresh per call, like mock simulators; every call
    shares one HTTP client and its pool of idle connections."""
    if config.llm.backend == "mock":
        script = _load_script(config.llm.mock_script, "llm", json_string)
        return ChatClientFactory(lambda: MockChatClient(list(script)))
    if not config.llm.endpoint:
        raise ConfigError("llm backend http needs an endpoint URL")
    shared = HttpChatClient(config.llm)
    return ChatClientFactory(lambda: shared, shared.close)
