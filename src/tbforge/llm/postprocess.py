"""Post-processing of chat responses: code-block and JSON extraction.

Analyze's entries parse to dicts of the keys their template asks for, in
template order, and Draft quotes the test cases as they were parsed.
"""

from __future__ import annotations

import json
import re

from tbforge.errors import MalformedJson

FUNCTION_POINT_CAP = 3
TESTCASE_CAP = 5
FUNCTION_POINT_KEYS = ("Point", "Scenario", "Application")
TESTCASE_KEYS = ("Title", "Objective", "Setup", "Coverage")
CODE_LANGUAGE = "verilog"

_FENCE = re.compile(r"```([A-Za-z0-9_+-]*)[ \t]*\n(.*?)```", re.DOTALL)
_MODULE_SPAN = re.compile(r"\bmodule\b.*\bendmodule\b", re.DOTALL)
# {1: ...} style keys are not valid JSON; quote them before parsing.
_BARE_INT_KEY = re.compile(r"([{,]\s*)(\d+)\s*:")


def extract_code_block(response: str) -> str:
    """Return the first fenced block tagged verilog, else the first fenced
    block, else a bare module...endmodule span, else "" (also returned for a
    blank block)."""
    fences = _FENCE.findall(response)
    body = None
    for lang, content in fences:
        if lang.lower() == CODE_LANGUAGE:
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
        try:
            obj = json.loads(span)
        except ValueError:
            obj = json.loads(_BARE_INT_KEY.sub(r'\1"\2":', span))
    except ValueError as exc:
        raise MalformedJson(f"unparseable JSON object: {exc}") from exc
    except RecursionError:
        raise MalformedJson("JSON object nested too deeply") from None
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


def _entries(response: str, cap: int, keys: tuple[str, ...]) -> list[dict]:
    """The first ``cap`` entries, each as ``keys`` in order with its values
    as strings; a missing key gives "" and any other key is dropped."""
    return [{key: str(entry.get(key, "")) for key in keys}
            for entry in parse_json_points(response, cap)]


def parse_function_points(response: str) -> list[dict]:
    return _entries(response, FUNCTION_POINT_CAP, FUNCTION_POINT_KEYS)


def parse_testcases(response: str) -> list[dict]:
    return _entries(response, TESTCASE_CAP, TESTCASE_KEYS)
