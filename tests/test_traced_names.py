import json
import subprocess
import sys
from pathlib import Path

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
