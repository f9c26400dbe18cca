"""Corpus row schemas and JSONL persistence.

Every dataset is a JSONL file: one UTF-8 JSON object per line, unique ids
per file. JSONL keeps long batch runs streamable and append-safe, and
fixture diffs readable.
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
    """Yield (lineno, object) pairs. A malformed line raises JsonlError, or,
    when on_error is given, is reported as on_error(lineno, message) and
    skipped."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
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


def read_fields(path, casts: dict[str, Callable], defaults: dict | None = None,
                on_error=None) -> list[dict]:
    """Each row as ``{field: cast(row[field])}`` for the fields of ``casts``,
    a missing field taking its value from ``defaults``. A malformed line, a
    row missing a field with no default, or a value its cast rejects raises
    JsonlError, or, when on_error is given, is reported as
    on_error(lineno, message) and skipped, as in ``iter_jsonl``."""
    defaults = defaults or {}
    rows = []
    for lineno, obj in iter_jsonl(path, on_error):
        row, problem = {}, None
        for field, cast in casts.items():
            if field not in obj and field not in defaults:
                problem = f"row missing field {field!r}"
                break
            value = obj.get(field, defaults.get(field))
            try:
                row[field] = cast(value)
            except (TypeError, ValueError, OverflowError):
                problem = f"bad value for field {field!r}: {value!r}"
                break
        if problem is None:
            rows.append(row)
        elif on_error is None:
            raise JsonlError(path, lineno, problem)
        else:
            on_error(lineno, problem)
    return rows


def write_jsonl(path, rows: Iterable[dict]) -> int:
    """Write rows as JSONL; returns the row count. Field order is preserved,
    so identical inputs produce byte-identical files."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False))
            handle.write("\n")
            count += 1
    return count


def check_unique_ids(rows: list[dict], key: str = "id") -> None:
    seen = set()
    for row in rows:
        value = row.get(key)
        if value in seen:
            raise ValueError(f"duplicate {key} in corpus: {value!r}")
        seen.add(value)


def load_testbench_rows(path) -> dict:
    """Testbench rows keyed by ``str(id)``, the form spec ids take in
    ``load_spec_code_pairs``, so ``5`` and ``"5"`` name the same row. A row
    without an id or a tb, an id that is not a string or an integer, a tb
    that is not a string, or a repeated id, is an input error (ValueError)."""
    rows = []
    for lineno, row in iter_jsonl(path):
        for field in ("id", "tb"):
            if field not in row:
                raise ValueError(f"{path}:{lineno}: testbench row missing field {field!r}")
        for field, check in (("id", _id), ("tb", _string)):
            try:
                check(row[field])
            except TypeError:
                raise ValueError(f"{path}:{lineno}: bad value for field {field!r}: "
                                 f"{row[field]!r}") from None
        rows.append(row)
    check_unique_ids([{"id": str(row["id"])} for row in rows])
    return {str(row["id"]): row for row in rows}


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


def _string(value) -> str:
    """A JSON string as is; any other value is rejected, not stringified."""
    if not isinstance(value, str):
        raise TypeError(f"not a string: {value!r}")
    return value


def _id(value) -> str:
    """A string or integer id as a string. Any other value, ``true``
    included, is rejected: its text would join or collide with a string
    id, as ``null`` would with ``"None"``."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise TypeError(f"not a string or integer: {value!r}")
    return str(value)


def load_spec_code_pairs(path, on_error=None) -> list[SpecCodePair]:
    """Spec/code rows, read as in ``read_fields``: ids as strings (integer
    ids are valid), while an id that is neither, or a spec or code that is
    not a string, is a bad value."""
    pairs = [SpecCodePair(**row) for row in read_fields(
        path, {"id": _id, "spec": _string, "code": _string}, on_error=on_error)]
    check_unique_ids([{"id": p.id} for p in pairs])
    return pairs
