"""Toolkit configuration: a simple INI file with strict key validation.

Each section fills the settings dataclass of the ``Config`` field of the
same name, and that dataclass is the only place a key, its type, its
default and its range are written. One key sits in another section than
its field: ``[paths] workdir_root`` fills the simulator settings. An empty
value means the default, and ``none`` leaves an optional field unset.

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
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_args, get_type_hints

from tbforge.corpus import json_int, json_number, json_string
from tbforge.errors import ConfigError
from tbforge.llm.client import HttpChatClient, LlmSettings, MockChatClient
from tbforge.pipeline import PipelineConfig
from tbforge.preference import SamplingParams
from tbforge.sim.backends import CommandSimulator, MockSimulator
from tbforge.sim.config import SimulatorConfig
from tbforge.sim.outcomes import CompileError, Report, RuntimeAbort


@dataclass(frozen=True)
class Config:
    llm: LlmSettings = field(default_factory=LlmSettings)
    simulator: SimulatorConfig = field(default_factory=SimulatorConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    sampling: SamplingParams = field(default_factory=SamplingParams)


def ini_schema() -> dict[str, dict[str, tuple[str, object]]]:
    """Each INI section's keys, mapped to (the ``Config`` field whose
    dataclass the key fills, the key's type)."""
    schema = {owner: {key: (owner, hint) for key, hint in get_type_hints(cls).items()}
              for owner, cls in get_type_hints(Config).items()}
    schema["paths"] = {"workdir_root": schema["simulator"].pop("workdir_root")}
    return schema


def _typed(key: str, raw: str, hint):
    """Cast one non-empty INI value to its field's type."""
    if isinstance(hint, types.UnionType):  # ``T | None``: ``none`` or a T
        if raw.strip().lower() == "none":
            return None
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

    values: dict[str, dict] = defaultdict(dict)
    for section, keys in schema.items():
        for key, (owner, hint) in keys.items():
            raw = parser.get(section, key, fallback="")
            if raw:
                values[owner][key] = _typed(key, raw, hint)
    return Config(**{owner: cls(**values[owner])
                     for owner, cls in get_type_hints(Config).items()})


# -- backend factories --

def _load_script(path, backend: str, read_entry) -> tuple:
    """A mock script: a nonempty JSON list, each entry read by ``read_entry``.
    Any fault, a bad entry included, is a ConfigError that names the file."""
    try:
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(entries, list) or not entries:
            raise ValueError("not a nonempty JSON list")
        return tuple(read_entry(entry) for entry in entries)
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
        problem = f"entry lacks {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"bad {backend} mock script {path}: {problem}") from exc


def _sim_entry(entry):
    if not isinstance(entry, dict):
        raise TypeError(f"entry is not an object: {entry!r}")
    kind = entry.get("kind")
    if kind == "compile":
        ok = entry.get("ok", True)
        if not isinstance(ok, bool):
            raise TypeError(f"not a boolean: {ok!r}")
        return "ok" if ok else CompileError(log=json_string(entry.get("log", "compile failed")))
    if kind == "run":
        log = json_string(entry.get("log", ""))
        if "abort" in entry:
            return RuntimeAbort(reason=json_string(entry["abort"]), log=log)
        return Report(json_int(entry["total"]), json_int(entry["failures"]), log=log)
    if kind == "coverage":
        percent = json_number(entry["percent"])
        if not 0 <= percent <= 100:
            raise ValueError(f"coverage percent out of range: {percent}")
        return percent
    raise ValueError(f"unknown entry kind {kind!r}")


def make_simulator_factory(config: Config, coverage: bool = False):
    """Returns a zero-arg callable producing a simulator backend. Mock
    backends are fresh per call so each pipeline row replays the script
    from the top. A missing compile or run program fails now; with
    ``coverage``, so do a command backend with no coverage command and a
    missing coverage program."""
    settings = config.simulator
    if settings.backend == "mock":
        script = _load_script(settings.mock_script, "simulator", _sim_entry)
        return lambda: MockSimulator(script)
    if coverage:
        if settings.coverage_command is None:
            raise ConfigError("coverage measurement unavailable; configure a "
                              "coverage command or set skip_coverage")
        settings.check_programs(settings.coverage_command)
    settings.check_programs(settings.compile_command, settings.run_command)
    shared = CommandSimulator(settings)
    return lambda: shared


@contextmanager
def make_chat_client_factory(config: Config):
    """Yields a zero-arg callable producing a chat client. Mock clients are
    fresh per call, like mock simulators; every call shares one HTTP client
    and its pool of idle connections, which close on exit."""
    if config.llm.backend == "mock":
        script = _load_script(config.llm.mock_script, "llm", json_string)
        yield lambda: MockChatClient(script)
        return
    if not config.llm.endpoint:
        raise ConfigError("llm backend http needs an endpoint URL")
    with closing(HttpChatClient(config.llm)) as shared:
        yield lambda: shared
