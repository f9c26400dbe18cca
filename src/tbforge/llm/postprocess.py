"""Post-processing of chat responses: code-block and JSON extraction."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from tbforge.errors import MalformedJson

FUNCTION_POINT_CAP = 3
TESTCASE_CAP = 5

_FENCE = re.compile(r"```([A-Za-z0-9_+-]*)[ \t]*\n(.*?)```", re.DOTALL)
_MODULE_SPAN = re.compile(r"\bmodule\b.*\bendmodule\b", re.DOTALL)
# {1: ...} style keys are not valid JSON; quote them before parsing.
_BARE_INT_KEY = re.compile(r"([{,]\s*)(\d+)\s*:")


@dataclass(frozen=True)
class FunctionPoint:
    point: str
    scenario: str
    application: str


@dataclass(frozen=True)
class TestCaseSpec:
    title: str
    objective: str
    setup: str
    coverage: str


def extract_code_block(response: str, language: str = "verilog") -> str:
    """Return the first fenced block matching the language hint, else the
    first fenced block, else a bare module...endmodule span, else "" (also
    returned for a blank block)."""
    fences = _FENCE.findall(response)
    body = None
    for lang, content in fences:
        if lang.lower() == language.lower():
            body = content
            break
    if body is None and fences:
        body = fences[0][1]
    if body is None:
        m = _MODULE_SPAN.search(response)
        body = m.group() if m else ""
    return body.strip("\n").rstrip() + "\n" if body.strip() else ""


def parse_json_points(response: str, cap: int) -> list[dict]:
    """Parse an object keyed 1..N out of a response, tolerating surrounding
    prose, and truncate to the cap."""
    start = response.find("{")
    end = response.rfind("}")
    if start == -1 or end == -1 or end <= start:
        raise MalformedJson("no JSON object in response")
    span = response[start:end + 1]
    try:
        obj = json.loads(span)
    except ValueError:
        try:
            obj = json.loads(_BARE_INT_KEY.sub(r'\1"\2":', span))
        except ValueError as exc:
            raise MalformedJson(f"unparseable JSON object: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedJson("top-level JSON value is not an object")

    entries = []
    for key, value in obj.items():
        try:
            order = int(key)
        except (TypeError, ValueError):
            raise MalformedJson(f"non-numeric top-level key {key!r}")
        if not isinstance(value, dict):
            raise MalformedJson(f"entry {key!r} is not an object")
        entries.append((order, value))
    entries.sort(key=lambda pair: pair[0])
    return [value for _, value in entries[:cap]]


def parse_function_points(response: str) -> list[FunctionPoint]:
    return [
        FunctionPoint(
            point=str(entry.get("Point", "")),
            scenario=str(entry.get("Scenario", "")),
            application=str(entry.get("Application", "")),
        )
        for entry in parse_json_points(response, FUNCTION_POINT_CAP)
    ]


def parse_testcases(response: str) -> list[TestCaseSpec]:
    return [
        TestCaseSpec(
            title=str(entry.get("Title", "")),
            objective=str(entry.get("Objective", "")),
            setup=str(entry.get("Setup", "")),
            coverage=str(entry.get("Coverage", "")),
        )
        for entry in parse_json_points(response, TESTCASE_CAP)
    ]
