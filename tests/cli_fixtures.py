"""Builders for fully scripted CLI workspaces: spec corpora, mock backend
scripts, and config files."""

import json
import sys
import threading
import time

from fixture_data import AUDIO_ENCODER_DUT, TESTBENCH_SKELETON

POINTS_JSON = json.dumps({
    "1": {"Point": "reset", "Scenario": "reset during shift", "Application": "init"},
    "2": {"Point": "shift", "Scenario": "valid data shifts", "Application": "stream"},
    "3": {"Point": "underrun", "Scenario": "no data", "Application": "error"},
})

CASES_JSON = json.dumps({
    str(i): {"Title": f"case {i}", "Objective": "check", "Setup": "drive",
             "Coverage": "dims"}
    for i in range(1, 6)
})

CANDIDATE_A = """\
```verilog
module candidate(input clk, input [15:0] audio_in, output i_ready);
assign i_ready = audio_in[0];
endmodule
```
"""

CANDIDATE_B = """\
```verilog
module candidate(input clk, input [15:0] audio_in, output i_ready);
assign i_ready = ~audio_in[0];
endmodule
```
"""

CONFIG_TEMPLATE = """\
[llm]
backend = mock
mock_script = {llm_script}

[simulator]
backend = mock
mock_script = {sim_script}

[pipeline]
coverage_threshold = 90.0

[sampling]
n = 2
"""


def write_spec_rows(path, count):
    rows = []
    for i in range(count):
        rows.append({"id": f"design{i:03d}",
                     "spec": f"Spec for a serial audio encoder, variant {i}.",
                     "code": AUDIO_ENCODER_DUT})
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return rows


def write_pipeline_scripts(tmp_path):
    """Per-row scripts for an all-green pipeline run."""
    llm_script = tmp_path / "llm_pipeline.json"
    llm_script.write_text(json.dumps([
        POINTS_JSON,
        CASES_JSON,
        f"```verilog\n{TESTBENCH_SKELETON}```",
    ]), encoding="utf-8")
    sim_script = tmp_path / "sim_pipeline.json"
    sim_script.write_text(json.dumps([
        {"kind": "compile", "ok": True},
        {"kind": "coverage", "percent": 95.0},
        {"kind": "compile", "ok": True},
        {"kind": "run", "total": 5, "failures": 0},
    ]), encoding="utf-8")
    return llm_script, sim_script


def write_collect_scripts(tmp_path):
    """Per-row scripts for two candidates passing 4/5 and 2/5 cases."""
    llm_script = tmp_path / "llm_collect.json"
    llm_script.write_text(json.dumps([CANDIDATE_A, CANDIDATE_B]), encoding="utf-8")
    sim_script = tmp_path / "sim_collect.json"
    sim_script.write_text(json.dumps([
        {"kind": "compile", "ok": True},
        {"kind": "run", "total": 5, "failures": 1},
        {"kind": "compile", "ok": True},
        {"kind": "run", "total": 5, "failures": 3},
    ]), encoding="utf-8")
    return llm_script, sim_script


def write_config(tmp_path, llm_script, sim_script, name="config.ini"):
    path = tmp_path / name
    path.write_text(CONFIG_TEMPLATE.format(llm_script=llm_script,
                                           sim_script=sim_script),
                    encoding="utf-8")
    return path


def lines_before(text, row_id):
    """The lines of ``text`` before the first line that names ``row_id``."""
    lines = text.splitlines(keepends=True)
    return "".join(lines[:next(i for i, line in enumerate(lines) if row_id in line)])


def cli_argv(*args):
    return [sys.executable, "-m", "tbforge", *args]


class InFlight:
    """Counts calls in flight per kind across threads, keeping the peak."""

    def __init__(self):
        self._lock = threading.Lock()
        self.now = {"chat": 0, "sim": 0}
        self.peak = {"chat": 0, "sim": 0}

    def hold(self, kind, seconds=0.005):
        with self._lock:
            self.now[kind] += 1
            self.peak[kind] = max(self.peak[kind], self.now[kind])
        try:
            time.sleep(seconds)
        finally:
            with self._lock:
                self.now[kind] -= 1
