"""Corpus row schemas and JSONL persistence.

Every dataset is a JSONL file: one UTF-8 JSON object per line, unique ids
per file. JSONL keeps long batch runs streamable and append-safe, and
fixture diffs readable. ``read_fields`` reads every row file, and reports a
bad row, a repeated id included, at its line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator


@dataclass(frozen=True)
class SpecCodePair:
    id: str
    spec: str
    code: str


class JsonlError(ValueError):
    def __init__(self, path, lineno: int, msg: str):
        super().__init__(f"{path}:{lineno}: {msg}")
        self.lineno = lineno


def iter_jsonl(path, on_error=None) -> Iterator[tuple[int, dict]]:
    """Yield (lineno, object) pairs. A malformed line, one that is not UTF-8
    included, raises JsonlError, or, when on_error is given, is reported as
    on_error(lineno, message) and skipped."""
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
            except ValueError as exc:
                problem = f"bad JSON: {exc}"
            else:
                if isinstance(obj, dict):
                    yield lineno, obj
                    continue
                problem = "row is not a JSON object"
            if on_error is None:
                raise JsonlError(path, lineno, problem)
            on_error(lineno, problem)


def read_jsonl(path) -> list[dict]:
    return [obj for _, obj in iter_jsonl(path)]


def read_fields(path, casts: dict[str, Callable], make: Callable = dict,
                defaults: dict | None = None, on_error=None) -> list:
    """Each row as ``make(**{field: cast(row[field])})`` for the fields of
    ``casts``, a missing field taking its value from ``defaults``; an ``id``
    field is the row's key, compared after its cast. A malformed line, a
    missing field with no default, a value its cast rejects, a ValueError
    from ``make`` or a repeated id raises JsonlError, or, when on_error is
    given, is reported as on_error(lineno, message) and skipped."""
    defaults = defaults or {}
    records, ids = [], set()

    def accept(obj) -> str | None:  # the problem that keeps obj's record out
        row = {}
        for field, cast in casts.items():
            if field not in obj and field not in defaults:
                return f"row missing field {field!r}"
            value = obj.get(field, defaults.get(field))
            try:
                row[field] = cast(value)
            except (TypeError, ValueError, OverflowError):
                return f"bad value for field {field!r}: {value!r}"
        if "id" in row and row["id"] in ids:
            return f"duplicate id {row['id']!r}"
        try:
            records.append(make(**row))
        except ValueError as exc:
            return f"bad row: {exc}"
        ids.add(row.get("id"))

    for lineno, obj in iter_jsonl(path, on_error):
        problem = accept(obj)
        if problem is None:
            continue
        if on_error is None:
            raise JsonlError(path, lineno, problem)
        on_error(lineno, problem)
    return records


def write_jsonl(handle, rows: Iterable[dict]) -> None:
    """Append rows as JSONL to an open text handle. Field order is preserved,
    so identical inputs produce byte-identical files."""
    handle.writelines(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)


def load_testbench_rows(path) -> dict[str, str]:
    """Each row's tb keyed by its id, a string as in ``load_spec_code_pairs``
    (``5`` and ``"5"`` are one id); any bad row raises, as in ``read_fields``."""
    return {row["id"]: row["tb"]
            for row in read_fields(path, {"id": _id, "tb": json_string})}


def testbench_row(pair_id: str, record) -> dict:
    """Serialize a pipeline TestbenchRecord; coverage_percent is omitted
    when coverage was skipped."""
    row = {
        "id": pair_id,
        "tb": record.testbench,
        "testcase_count": record.testcase_count,
    }
    if record.coverage_percent is not None:
        row["coverage_percent"] = record.coverage_percent
    row["provenance"] = {
        "draft_attempts": record.provenance.draft_attempts,
        "improve_rounds": record.provenance.improve_rounds,
        "rectify_iterations": record.provenance.rectify_iterations,
    }
    return row


def eval_row(pair_id: str, candidate_idx: int, evaluation) -> dict:
    if evaluation.no_code:
        status = "no_code"
    elif not evaluation.compile_ok:
        status = "compile_error"
    elif evaluation.aborted:
        status = evaluation.outcome.reason if evaluation.outcome else "crash"
    else:
        status = "report"
    return {
        "id": pair_id,
        "candidate_idx": candidate_idx,
        "compile_ok": evaluation.compile_ok,
        "passed": evaluation.passed,
        "total": evaluation.total,
        "status": status,
    }


def pair_row(pair_id: str, pair) -> dict:
    return {
        "id": pair_id,
        "method": pair.method.value,
        "spec": pair.spec,
        "chosen": pair.chosen,
        "rejected": pair.rejected,
        "chosen_passed": pair.chosen_passed,
        "rejected_passed": pair.rejected_passed,
    }


def outcome_json(outcome) -> dict:
    """Render a SimOutcome as a JSON-friendly dict for the CLI."""
    from tbforge.sim.outcomes import CompileError, Report, RuntimeAbort

    if isinstance(outcome, Report):
        return {
            "status": "report",
            "total_cases": outcome.total_cases,
            "failures": outcome.failures,
            "passed": outcome.passed,
            "inconsistent": outcome.inconsistent,
            "case_lines": [
                {"case": c.case, "expected": c.expected, "actual": c.actual}
                for c in outcome.case_lines
            ],
        }
    if isinstance(outcome, CompileError):
        return {"status": "compile_error", "log": outcome.log}
    if isinstance(outcome, RuntimeAbort):
        return {"status": "runtime_abort", "reason": outcome.reason,
                "log": outcome.log}
    raise TypeError(f"not a simulation outcome: {outcome!r}")


def json_string(value) -> str:
    """A JSON string as is; any other value is rejected, not stringified, as
    is a string with a lone surrogate escape, which no output could hold."""
    if not isinstance(value, str):
        raise TypeError(f"not a string: {value!r}")
    value.encode("utf-8")  # UnicodeEncodeError, a ValueError, for a surrogate
    return value


def _id(value) -> str:
    """A string or integer id as a string. Any other value, ``true``
    included, is rejected: its text would join or collide with a string
    id, as ``null`` would with ``"None"``."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise TypeError(f"not a string or integer: {value!r}")
    return json_string(str(value))


def load_spec_code_pairs(path, on_error=None) -> list[SpecCodePair]:
    """Spec/code rows, read as in ``read_fields``: ids as strings (integer
    ids are valid), while an id that is neither, or a spec or code that is
    not a string, is a bad value, and a repeated id a bad row."""
    return read_fields(path, {"id": _id, "spec": json_string, "code": json_string},
                       make=SpecCodePair, on_error=on_error)
