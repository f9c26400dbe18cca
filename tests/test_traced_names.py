import json
import subprocess
import sys
from pathlib import Path

import pytest

from cli_fixtures import write_collect_scripts, write_config, write_spec_rows

TRACED = Path(__file__).resolve().parent.parent / "bench" / "traced.py"


def test_traced_finds_every_wrapped_name(tmp_path):
    # bench/traced.py wraps functions by name and lists the names it could
    # not find; a rename must fail here rather than blank a per-layer metric.
    # The two simulator `run` entries are stale wraps of a deleted method.
    spans = tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, str(TRACED), str(spans), "--", "--help"],
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    missing = json.loads(spans.read_text(encoding="utf-8"))["missing"]
    assert missing == ["CommandSimulator.run", "MockSimulator.run"]


def _ancestors(spans):
    """Each span id's chain of ancestor names, nearest first."""
    by_id = {span[0]: span for span in spans}
    chains = {}
    for span_id, parent, *_ in spans:
        chain = []
        while parent in by_id:
            chain.append(by_id[parent][2])
            parent = by_id[parent][1]
        chains[span_id] = chain
    return chains


@pytest.mark.parametrize("method,layers", [
    ("bleu", {"frontend.lex", "similarity.bleu"}),
    ("ast", {"frontend.lex", "frontend.parse", "similarity.ast"}),
    ("dfg", {"frontend.lex", "frontend.parse", "frontend.dfg", "similarity.dfg"}),
])
def test_similarity_layers_are_traced_inside_build_pairs(tmp_path, method, layers):
    # The per-layer metrics read these spans; a refactor that binds a
    # frontend or similarity function where the tracer cannot replace it
    # would leave them empty without any name going missing.
    specs = tmp_path / "specs.jsonl"
    write_spec_rows(specs, 1)
    testbenches = tmp_path / "testbenches.jsonl"
    testbenches.write_text(json.dumps({"id": "design000", "tb": "t"}) + "\n",
                           encoding="utf-8")
    config = write_config(tmp_path, *write_collect_scripts(tmp_path))
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACED), str(spans_path), "--", "collect-pairs",
         "--specs", str(specs), "--testbenches", str(testbenches),
         "--out", str(tmp_path / "pairs.jsonl"), "--method", method,
         "--config", str(config)],
        capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    chains = _ancestors(spans)
    names = {span[2] for span in spans}
    assert layers | {"preference.sample", "preference.evaluate"} <= names
    for span_id, _, name, *_ in spans:
        if name.startswith(("frontend.", "similarity.")):
            assert "preference.build_pairs" in chains[span_id], name
        if name in ("preference.sample", "preference.evaluate",
                    "preference.build_pairs"):
            assert "cli.row" in chains[span_id], name
