import gc
import json
import math
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

import click
import pytest

from tbforge import cli, corpus
from tbforge.config import load_config, make_simulator_factory
from tbforge.corpus import read_jsonl
from tbforge.errors import ConfigError, RequestRejected, ToolMissing, TransportError
from tbforge.llm import HttpChatClient, MockChatClient

from cli_fixtures import (
    CANDIDATE_A,
    CANDIDATE_B,
    cli_argv,
    write_collect_scripts,
    write_config,
    write_pipeline_scripts,
    write_spec_rows,
)
from fixture_data import (
    AUDIO_ENCODER_DUT,
    SIM_LOG_FIVE_FAILURES,
)


def run_cli(*args, cwd=None):
    return subprocess.run(cli_argv(*args), capture_output=True, text=True, cwd=cwd)


@pytest.fixture
def pipeline_workspace(tmp_path):
    specs = tmp_path / "specs.jsonl"
    write_spec_rows(specs, 4)
    llm_script, sim_script = write_pipeline_scripts(tmp_path)
    config = write_config(tmp_path, llm_script, sim_script)
    return tmp_path, specs, config


def batch_inputs(command, tmp_path, specs, count=4):
    """The input flags of a batch command over ``specs``; collect-pairs gets
    a testbench for each of the first ``count`` specs."""
    if command == "gen-testbench":
        return ["--input", str(specs)]
    testbenches = tmp_path / "testbenches.jsonl"
    testbenches.write_text("".join(json.dumps({"id": f"design{i:03d}", "tb": "t"}) + "\n"
                                   for i in range(count)), encoding="utf-8")
    return ["--specs", str(specs), "--testbenches", str(testbenches),
            "--method", "testbench"]


# ---- gen-testbench ----

def test_gen_testbench_all_green(pipeline_workspace):
    tmp_path, specs, config = pipeline_workspace
    out = tmp_path / "tb.jsonl"
    proc = run_cli("gen-testbench", "--input", str(specs), "--out", str(out),
                   "--config", str(config))
    assert proc.returncode == 0, proc.stderr
    rows = read_jsonl(out)
    assert len(rows) == 4
    assert rows[0]["id"] == "design000"
    assert rows[0]["testcase_count"] == 5
    assert rows[0]["coverage_percent"] == 95.0
    assert rows[0]["provenance"]["draft_attempts"] == 1
    assert "finished: 4" in proc.stdout


def test_gen_testbench_skips_malformed_lines(pipeline_workspace):
    tmp_path, specs, config = pipeline_workspace
    with open(specs, "a", encoding="utf-8") as handle:
        handle.write("this is not json\n")
        handle.write(json.dumps({"id": "extra", "spec": "s",
                                 "code": AUDIO_ENCODER_DUT}) + "\n")
    out = tmp_path / "tb.jsonl"
    proc = run_cli("gen-testbench", "--input", str(specs), "--out", str(out),
                   "--config", str(config))
    assert proc.returncode == 0
    assert len(read_jsonl(out)) == 5
    assert "skipped_input_lines: 1" in proc.stdout


def test_gen_testbench_terminations_do_not_fail_run(tmp_path):
    specs = tmp_path / "specs.jsonl"
    write_spec_rows(specs, 2)
    llm_script, _ = write_pipeline_scripts(tmp_path)
    sim_script = tmp_path / "sim_fail.json"
    sim_script.write_text(json.dumps(
        [{"kind": "compile", "ok": False, "log": "boom"}] * 3), encoding="utf-8")
    config = write_config(tmp_path, llm_script, sim_script)
    # drafts always fail to compile -> every row terminates, exit still 0
    llm_script.write_text(json.dumps([
        json.loads(llm_script.read_text())[0],
        json.loads(llm_script.read_text())[1],
    ] + [json.loads(llm_script.read_text())[2]] * 3), encoding="utf-8")
    out = tmp_path / "tb.jsonl"
    proc = run_cli("gen-testbench", "--input", str(specs), "--out", str(out),
                   "--config", str(config))
    assert proc.returncode == 0, proc.stderr
    assert read_jsonl(out) == []
    assert "terminated: 2" in proc.stdout
    assert "terminated at DraftCompile: 2" in proc.stdout


def _gen_testbench_with_run(tmp_path, printed):
    """gen-testbench over two rows whose every run prints ``printed``;
    returns (the process, the testbench rows written)."""
    specs = tmp_path / "specs.jsonl"
    write_spec_rows(specs, 2)
    llm_script, _ = write_pipeline_scripts(tmp_path)
    llm = json.loads(llm_script.read_text(encoding="utf-8"))
    llm_script.write_text(json.dumps(llm + llm[-1:] * 3), encoding="utf-8")
    tools = _fake_tools(tmp_path, run=f"printf '{printed}'\n")
    config = tmp_path / "config.ini"
    config.write_text(
        f"[llm]\nbackend = mock\nmock_script = {llm_script}\n\n"
        "[simulator]\ncompile_command = true {out} {dut} {tb}\n"
        f"run_command = {tools}/run {{out}}\n\n[pipeline]\nskip_coverage = true\n",
        encoding="utf-8")
    out = tmp_path / "tb.jsonl"
    proc = run_cli("gen-testbench", "--input", str(specs), "--out", str(out),
                   "--config", str(config))
    return proc, read_jsonl(out)


def test_a_passing_testbench_whose_only_case_is_numbered_0_counts_one_case(tmp_path):
    # The run's cases are its distinct case numbers, here only 0.
    proc, rows = _gen_testbench_with_run(
        tmp_path, "Test Case 0. Expected 1\\nTest Case 0. Actual 1\\n"
                  "Your Design Passed\\n")
    assert proc.returncode == 0, proc.stderr
    assert [row["testcase_count"] for row in rows] == [1, 1]


def test_a_run_that_reports_no_case_is_not_a_pass(tmp_path):
    # A pass marker with no case line verifies nothing: Rectify re-prompts
    # until its bound, and no testbench of 0 cases is written.
    proc, rows = _gen_testbench_with_run(tmp_path, "Your Design Passed\\n")
    assert proc.returncode == 0, proc.stderr
    assert "rows: 2  finished: 0  terminated: 2" in proc.stdout
    assert "terminated at RectifyVerify: 2" in proc.stdout
    assert rows == []


def test_gen_testbench_min_code_lines_filter(pipeline_workspace):
    tmp_path, specs, config = pipeline_workspace
    out = tmp_path / "tb.jsonl"
    proc = run_cli("gen-testbench", "--input", str(specs), "--out", str(out),
                   "--config", str(config), "--min-code-lines", "1000")
    assert proc.returncode == 0
    assert read_jsonl(out) == []


def test_gen_testbench_trace_log(pipeline_workspace):
    tmp_path, specs, config = pipeline_workspace
    out = tmp_path / "tb.jsonl"
    trace = tmp_path / "trace.log"
    proc = run_cli("gen-testbench", "--input", str(specs), "--out", str(out),
                   "--config", str(config), "--trace-log", str(trace))
    assert proc.returncode == 0
    content = trace.read_text()
    assert "design000 [analyze] function_points pass" in content
    assert "design000 [rectify] verify pass" in content
    assert "design000 [finish] ok" in content


def test_gen_testbench_trace_log_in_a_new_directory(pipeline_workspace):
    tmp_path, specs, config = pipeline_workspace
    trace = tmp_path / "logs" / "trace.log"
    proc = run_cli("gen-testbench", "--input", str(specs),
                   "--out", str(tmp_path / "tb.jsonl"), "--config", str(config),
                   "--trace-log", str(trace))
    assert proc.returncode == 0, proc.stderr
    assert "rows: 4  finished: 4" in proc.stdout
    assert "design003 [finish] ok" in trace.read_text(encoding="utf-8")


def test_gen_testbench_trace_log_over_zero_rows_is_empty(pipeline_workspace):
    tmp_path, specs, config = pipeline_workspace
    out = tmp_path / "tb.jsonl"
    trace = tmp_path / "trace.log"
    proc = run_cli("gen-testbench", "--input", str(specs), "--out", str(out),
                   "--config", str(config), "--min-code-lines", "100000",
                   "--trace-log", str(trace))
    assert proc.returncode == 0, proc.stderr
    assert "rows: 0  finished: 0" in proc.stdout
    assert out.read_bytes() == b""
    assert trace.read_bytes() == b""


@pytest.mark.parametrize("command,option", [
    ("gen-testbench", "--out"), ("gen-testbench", "--trace-log"),
    ("collect-pairs", "--out"), ("collect-pairs", "--evals-out")])
def test_output_under_a_regular_file_fails_before_any_chat_call(
        pipeline_workspace, monkeypatch, capsys, command, option):
    tmp_path, specs, config = pipeline_workspace
    client = MockChatClient(["unused"])
    monkeypatch.setattr(cli, "make_chat_client_factory",
                        lambda config: nullcontext(lambda: client))
    testbenches = tmp_path / "testbenches.jsonl"
    testbenches.write_text("".join(json.dumps({"id": f"design{i:03d}", "tb": "t"}) + "\n"
                                   for i in range(4)), encoding="utf-8")
    inputs = (["--input", str(specs)] if command == "gen-testbench" else
              ["--specs", str(specs), "--testbenches", str(testbenches),
               "--method", "testbench"])
    out = tmp_path / "out.jsonl"
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n", encoding="utf-8")
    outputs = {"--out": str(out), option: str(blocker / "out.jsonl")}
    code = cli.main([command, *inputs, "--config", str(config),
                     *(arg for item in outputs.items() for arg in item)])
    assert code == cli.EXIT_IO
    assert "io error: " in capsys.readouterr().err
    assert client.calls == []
    assert not out.exists()


@pytest.mark.parametrize("command,option", [
    ("gen-testbench", "--trace-log"), ("collect-pairs", "--evals-out")])
def test_two_output_flags_naming_one_file_is_a_usage_error(
        pipeline_workspace, monkeypatch, capsys, command, option):
    tmp_path, specs, config = pipeline_workspace
    client = MockChatClient(["unused"])
    monkeypatch.setattr(cli, "make_chat_client_factory",
                        lambda config: nullcontext(lambda: client))
    out = tmp_path / "out.jsonl"
    code = cli.main([command, *batch_inputs(command, tmp_path, specs),
                     "--config", str(config), "--out", str(out),
                     option, str(tmp_path / "sub" / ".." / "out.jsonl")])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: --out and {option} name one file: {out}\n"
    assert client.calls == []
    assert not out.exists()


@pytest.mark.parametrize("command,output,input_flag", [
    ("gen-testbench", "--out", "--input"), ("gen-testbench", "--trace-log", "--config"),
    ("collect-pairs", "--out", "--specs"), ("collect-pairs", "--evals-out", "--testbenches"),
    ("collect-pairs", "--out", "--config"), ("passk", "--out", "--results"),
    ("dpo", "--out", "--pairs")])
def test_an_output_flag_naming_an_input_file_is_a_usage_error(
        pipeline_workspace, monkeypatch, capsys, command, output, input_flag):
    tmp_path, specs, config = pipeline_workspace
    client = MockChatClient(["unused"])
    monkeypatch.setattr(cli, "make_chat_client_factory",
                        lambda config: nullcontext(lambda: client))
    results = tmp_path / "results.jsonl"
    results.write_text(json.dumps({"task": "t", "n": 2, "c_syntax": 1, "c_function": 1})
                       + "\n", encoding="utf-8")
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(json.dumps({"policy_chosen": -1.0, "ref_chosen": -1.0,
                                 "policy_rejected": -2.0, "ref_rejected": -2.0})
                     + "\n", encoding="utf-8")
    if command in ("gen-testbench", "collect-pairs"):
        args = [*batch_inputs(command, tmp_path, specs), "--config", str(config),
                "--out", str(tmp_path / "out.jsonl")]
    else:
        args = {"passk": ["--results", str(results), "--k", "1"],
                "dpo": ["--pairs", str(pairs)]}[command]
    target = Path(dict(zip(args[::2], args[1::2]))[input_flag])
    before = target.read_bytes()
    alias = str(tmp_path / "sub" / ".." / target.name)
    assert cli.main([command, *args, output, alias]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == \
        f"error: {output} and {input_flag} name one file: {alias}\n"
    assert target.read_bytes() == before
    assert client.calls == []


KILL_WHEN_WRITTEN = """\
import os, signal, sys, time
from pathlib import Path
from tbforge import cli
from tbforge.llm import MockChatClient

watched = Path(sys.argv[1])
answer = MockChatClient.complete_once

def complete_once(self, request):
    # Specs 5 to 7 wait until a row is on disk, then kill the process.
    if int(request.messages[0].content.rsplit("variant ", 1)[1][0]) >= 5:
        deadline = time.monotonic() + 30
        while b"\\n" not in (watched.read_bytes() if watched.exists() else b""):
            if time.monotonic() > deadline:
                sys.exit(99)
            time.sleep(0.001)
        os.kill(os.getpid(), signal.SIGKILL)
    return answer(self, request)

if sys.argv[1] != "-":
    MockChatClient.complete_once = complete_once
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("jobs", ["1", "3"])
@pytest.mark.parametrize("command", ["gen-testbench", "collect-pairs"])
def test_killed_batch_keeps_the_rows_written_before_the_kill(tmp_path, command, jobs):
    specs = tmp_path / "specs.jsonl"
    write_spec_rows(specs, 8)
    scripts = write_pipeline_scripts if command == "gen-testbench" else \
        write_collect_scripts
    config = write_config(tmp_path, *scripts(tmp_path))
    inputs = batch_inputs(command, tmp_path, specs, count=8)
    # The second output is written after the first within each row.
    second = "--trace-log" if command == "gen-testbench" else "--evals-out"
    outputs = {}
    for run in ("whole", "killed"):
        paths = {"--out": tmp_path / run / "out.jsonl",
                 second: tmp_path / run / "second.log"}
        argv = [command, *inputs, "--config", str(config), "--jobs", jobs,
                *(arg for flag, path in paths.items() for arg in (flag, str(path)))]
        proc = subprocess.run(
            [sys.executable, "-c", KILL_WHEN_WRITTEN,
             str(paths[second]) if run == "killed" else "-", *argv],
            capture_output=True, text=True)
        outputs[run] = {flag: path.read_text(encoding="utf-8")
                        for flag, path in paths.items()}
        if run == "whole":
            assert proc.returncode == 0, proc.stderr
        else:
            assert proc.returncode == -signal.SIGKILL, proc.stderr
    for flag, whole in outputs["whole"].items():
        killed = outputs["killed"][flag]
        assert "design000" in killed
        assert killed.endswith("\n")
        assert whole.startswith(killed)
        assert "design007" in whole[len(killed):]


def test_gen_testbench_bad_config_exit_1(pipeline_workspace):
    tmp_path, specs, config = pipeline_workspace
    config.write_text(config.read_text() + "\n[bogus]\nx = 1\n", encoding="utf-8")
    proc = run_cli("gen-testbench", "--input", str(specs),
                   "--out", str(tmp_path / "o.jsonl"), "--config", str(config))
    assert proc.returncode == 1
    assert "bogus" in proc.stderr


PREVIOUS_RUN = b'{"id": "old", "n": 1}\n'


def test_gen_testbench_without_coverage_fails_before_any_chat_call(
        tmp_path, monkeypatch):
    specs = tmp_path / "specs.jsonl"
    write_spec_rows(specs, 3)
    llm_script, _ = write_pipeline_scripts(tmp_path)
    config = tmp_path / "config.ini"
    config.write_text(
        f"[llm]\nbackend = mock\nmock_script = {llm_script}\n\n"
        "[simulator]\nbackend = command\n"
        "compile_command = true {out} {dut} {tb}\nrun_command = true {out}\n\n"
        "[pipeline]\nskip_coverage = false\n", encoding="utf-8")
    client = MockChatClient(json.loads(llm_script.read_text(encoding="utf-8")))
    monkeypatch.setattr(cli, "make_chat_client_factory",
                        lambda config: nullcontext(lambda: client))
    out = tmp_path / "tb.jsonl"
    out.write_bytes(PREVIOUS_RUN)
    code = cli.main(["gen-testbench", "--input", str(specs), "--out", str(out),
                     "--config", str(config), "--jobs", "2"])
    assert code == cli.EXIT_USAGE
    assert client.calls == []
    # The settings are checked before the output file is opened.
    assert out.read_bytes() == PREVIOUS_RUN

# Settings that can never work, each with the sections it puts in the config
# and the exit code and stderr it ends the run with.
NEVER_WORKS = {
    "coverage": (
        "[simulator]\nbackend = command\ncompile_command = true {out} {dut} {tb}\n"
        "run_command = true {out}\n\n[pipeline]\nskip_coverage = false\n",
        cli.EXIT_USAGE, "error: coverage measurement unavailable; configure a "
        "coverage command or set skip_coverage\n"),
    "api-key": (
        "[llm]\nbackend = http\nendpoint = http://127.0.0.1:9/v1\n\n"
        "[simulator]\nbackend = mock\nmock_script = {sim_script}\n",
        cli.EXIT_USAGE,
        "error: TBFORGE_API_KEY holds a character that is not printable ASCII\n"),
    "compiler": (
        "[simulator]\nbackend = command\n"
        "compile_command = no-such-compiler-xyz {out} {dut} {tb}\n"
        "run_command = true {out}\n\n[pipeline]\nskip_coverage = true\n",
        cli.EXIT_BACKEND, "backend unavailable: simulator command not found: "
        "no-such-compiler-xyz\n"),
}


@pytest.mark.parametrize("jobs", ["1", "3"])
@pytest.mark.parametrize("command,fault", [
    ("gen-testbench", "coverage"), ("gen-testbench", "api-key"),
    ("collect-pairs", "api-key"), ("gen-testbench", "compiler"),
    ("collect-pairs", "compiler")])
def test_settings_that_can_never_work_leave_outputs_untouched(
        tmp_path, monkeypatch, capsys, command, fault, jobs):
    specs = tmp_path / "specs.jsonl"
    write_spec_rows(specs, 4)
    scripts = write_pipeline_scripts if command == "gen-testbench" else \
        write_collect_scripts
    llm_script, sim_script = scripts(tmp_path)
    sections, exit_code, stderr = NEVER_WORKS[fault]
    config = tmp_path / "config.ini"
    config.write_text(sections.replace("{sim_script}", str(sim_script)), encoding="utf-8")
    clients, posted = [], []
    if fault == "api-key":
        monkeypatch.setenv("TBFORGE_API_KEY", "sk-x\n")
        monkeypatch.setattr(HttpChatClient, "_post",
                            lambda self, body, headers: posted.append(body))
    else:
        script = json.loads(llm_script.read_text(encoding="utf-8"))
        monkeypatch.setattr(cli, "make_chat_client_factory", lambda config: nullcontext(
            lambda: clients.append(MockChatClient(script)) or clients[-1]))
    second = "--trace-log" if command == "gen-testbench" else "--evals-out"
    outputs = {"--out": tmp_path / "out.jsonl", second: tmp_path / "second.txt"}
    for path in outputs.values():
        path.write_bytes(PREVIOUS_RUN)
    code = cli.main([command, *batch_inputs(command, tmp_path, specs),
                     "--config", str(config), "--jobs", jobs,
                     *(arg for flag, path in outputs.items() for arg in (flag, str(path)))])
    assert (code, capsys.readouterr().err) == (exit_code, stderr)
    assert posted == [] and all(client.calls == [] for client in clients)
    assert all(path.read_bytes() == PREVIOUS_RUN for path in outputs.values())


def test_missing_coverage_program_fails_only_the_command_that_measures_coverage(
        pipeline_workspace, monkeypatch, capsys):
    tmp_path, specs, _ = pipeline_workspace
    config = tmp_path / "config.ini"
    config.write_text(
        "[simulator]\nbackend = command\ncompile_command = true {out} {dut} {tb}\n"
        "run_command = true {out}\ncoverage_command = no-such-coverage-xyz {dut} {tb}\n",
        encoding="utf-8")
    client = MockChatClient(["unused"])
    monkeypatch.setattr(cli, "make_chat_client_factory",
                        lambda config: nullcontext(lambda: client))
    out = tmp_path / "out.jsonl"
    assert cli.main(["gen-testbench", "--input", str(specs), "--out", str(out),
                     "--config", str(config)]) == cli.EXIT_BACKEND
    assert capsys.readouterr().err == \
        "backend unavailable: simulator command not found: no-such-coverage-xyz\n"
    assert client.calls == [] and not out.exists()
    # collect-pairs never measures coverage, so its simulator is built.
    assert make_simulator_factory(load_config(config))() is not None


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", ["gen-testbench", "collect-pairs"])
def test_jobs_below_one_is_a_usage_error(pipeline_workspace, monkeypatch, capsys,
                                         command, jobs):
    tmp_path, specs, config = pipeline_workspace
    client = MockChatClient(["unused"])
    monkeypatch.setattr(cli, "make_chat_client_factory",
                        lambda config: nullcontext(lambda: client))
    out = tmp_path / "out.jsonl"
    inputs = (["--input", str(specs)] if command == "gen-testbench" else
              ["--specs", str(specs), "--testbenches", str(specs),
               "--method", "testbench"])
    code = cli.main([command, *inputs, "--out", str(out), "--config", str(config),
                     "--jobs", jobs])
    assert code == cli.EXIT_USAGE
    assert "Invalid value for '--jobs'" in capsys.readouterr().err
    assert client.calls == []
    assert not out.exists()


class FailingRowChat(MockChatClient):
    """Replays ``script``, except that every request of the row whose spec
    contains ``marker`` fails in transport."""

    def __init__(self, script, marker):
        super().__init__(script)
        self.marker = marker

    def complete_once(self, request):
        if any(self.marker in m.content for m in request.messages):
            raise TransportError("endpoint gone")
        return super().complete_once(request)


def test_gen_testbench_transport_error_ends_only_its_row(pipeline_workspace,
                                                       monkeypatch, capsys):
    tmp_path, specs, config = pipeline_workspace
    config.write_text(config.read_text().replace(
        "[llm]\n", "[llm]\nretries = 1\nbackoff_seconds = 0\n"), encoding="utf-8")
    llm_script, _ = write_pipeline_scripts(tmp_path)
    script = json.loads(llm_script.read_text(encoding="utf-8"))
    monkeypatch.setattr(cli, "make_chat_client_factory", lambda config: nullcontext(
        lambda: FailingRowChat(script, "variant 1.")))
    out = tmp_path / "tb.jsonl"
    trace = tmp_path / "trace.log"
    code = cli.main(["gen-testbench", "--input", str(specs), "--out", str(out),
                     "--config", str(config), "--jobs", "2", "--trace-log", str(trace)])
    assert code == cli.EXIT_BACKEND
    captured = capsys.readouterr()
    assert "backend unavailable: chat completion failed" in captured.err
    assert "rows: 4  finished: 3  terminated: 0  errored: 1" in captured.out
    assert [row["id"] for row in read_jsonl(out)] == \
        ["design000", "design002", "design003"]
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert [line for line in lines if line.startswith("design001 ")] == \
        ["design001 [error] TransportError"]
    assert "design002 [finish] ok" in lines


class ReverseFailingChat(MockChatClient):
    """Replays ``script``, except that the rows of variants 0 and 2 fail in
    transport, variant 0 only after variant 2 has failed, so the two errored
    rows finish in the reverse of input order."""

    def __init__(self, script, second_failed):
        super().__init__(script)
        self.second_failed = second_failed

    def complete_once(self, request):
        text = " ".join(m.content for m in request.messages)
        if "variant 2." in text:
            self.second_failed.set()
            raise TransportError("variant 2 gone")
        if "variant 0." in text:
            assert self.second_failed.wait(5.0)
            time.sleep(0.1)  # past the moment variant 2's row returns
            raise TransportError("variant 0 gone")
        return super().complete_once(request)


@pytest.mark.parametrize("command", ["gen-testbench", "collect-pairs"])
def test_errored_rows_are_logged_in_input_order(pipeline_workspace, monkeypatch,
                                                 caplog, command):
    # Rows run on worker threads, but their [error] lines are logged as the
    # rows are yielded, in input order, whatever order the rows finish in.
    tmp_path, specs, config = pipeline_workspace
    if command == "gen-testbench":
        llm_script, _ = write_pipeline_scripts(tmp_path)
        inputs = ["--input", str(specs)]
    else:
        llm_script, sim_script = write_collect_scripts(tmp_path)
        config = write_config(tmp_path, llm_script, sim_script, name="collect.ini")
        testbenches = tmp_path / "testbenches.jsonl"
        testbenches.write_text("".join(json.dumps({"id": f"design{i:03d}", "tb": "t"})
                                       + "\n" for i in range(4)), encoding="utf-8")
        inputs = ["--specs", str(specs), "--testbenches", str(testbenches),
                  "--method", "testbench"]
    config.write_text(config.read_text().replace(
        "[llm]\n", "[llm]\nretries = 1\nbackoff_seconds = 0\n"), encoding="utf-8")
    script = json.loads(llm_script.read_text(encoding="utf-8"))
    second_failed = threading.Event()
    monkeypatch.setattr(cli, "make_chat_client_factory", lambda config: nullcontext(
        lambda: ReverseFailingChat(script, second_failed)))
    code = cli.main([command, *inputs, "--out", str(tmp_path / "out.jsonl"),
                     "--config", str(config), "--jobs", "3"])
    assert code == cli.EXIT_BACKEND
    errors = [record.getMessage() for record in caplog.records
              if record.getMessage().startswith("[error]")]
    assert errors == [
        "[error] design000: TransportError: "
        "chat completion failed after 1 attempts: variant 0 gone",
        "[error] design002: TransportError: "
        "chat completion failed after 1 attempts: variant 2 gone"]


@pytest.mark.parametrize("failure", ["second row", "full disk"])
@pytest.mark.parametrize("command", ["gen-testbench", "collect-pairs"])
def test_a_failed_write_cancels_the_rows_not_started_and_exits_2(
        tmp_path, monkeypatch, capsys, command, failure):
    # A write fails: the rows not yet started are cancelled, the running ones
    # finish before main returns, and the first row's --out line stays. The
    # batch's threads are gone even while the error is still referenced, by
    # this test or by a failed close that chains to it.
    specs = tmp_path / "specs.jsonl"
    write_spec_rows(specs, 20)
    scripts = write_pipeline_scripts if command == "gen-testbench" else \
        write_collect_scripts
    llm_script, sim_script = scripts(tmp_path)
    config = write_config(tmp_path, llm_script, sim_script)
    script = json.loads(llm_script.read_text(encoding="utf-8"))
    calls = []

    class SlowChat(MockChatClient):
        def complete_once(self, request):
            calls.append(request)
            time.sleep(0.02)
            return super().complete_once(request)

    monkeypatch.setattr(cli, "make_chat_client_factory",
                        lambda config: nullcontext(lambda: SlowChat(script)))
    second_output = []
    if failure == "second row":
        write, writes, error = corpus.write_jsonl, [], OSError("disk full")

        def write_once(handle, rows):
            writes.append(rows)
            if len(writes) > 1:
                raise error
            write(handle, rows)
        monkeypatch.setattr(corpus, "write_jsonl", write_once)
    elif Path("/dev/full").exists():
        second_output = ["--trace-log" if command == "gen-testbench" else "--evals-out",
                         "/dev/full"]
    else:
        pytest.skip("no /dev/full")
    out = tmp_path / "out.jsonl"
    threads = threading.active_count()
    code = cli.main([command, *batch_inputs(command, tmp_path, specs, count=20),
                     "--config", str(config), "--jobs", "2", "--out", str(out),
                     *second_output])
    returned = len(calls)
    assert threading.active_count() == threads
    assert code == cli.EXIT_IO
    assert capsys.readouterr().err.endswith(
        "io error: disk full\n" if failure == "second row" else
        "io error: [Errno 28] No space left on device\n")
    assert [row["id"] for row in read_jsonl(out)] == \
        ["design000" if command == "gen-testbench" else "design000#0"]
    time.sleep(0.2)
    gc.collect()
    assert len(calls) == returned < 20 * len(script)


def test_batch_fatal_errors_are_the_ones_every_row_would_hit():
    assert set(cli._BATCH_FATAL) == {ConfigError, RequestRejected, ToolMissing}


def _fake_tools(tmp_path, **scripts):
    """Executable shell scripts under tmp_path, one per keyword: name=body."""
    for name, body in scripts.items():
        tool = tmp_path / name
        tool.write_text("#!/bin/sh\n" + body, encoding="utf-8")
        tool.chmod(0o755)
    return tmp_path


def test_gen_testbench_spec_with_a_repeated_id_is_skipped(pipeline_workspace):
    tmp_path, specs, config = pipeline_workspace
    rows = specs.read_text(encoding="utf-8").splitlines()
    specs.write_text("\n".join(rows[:3] + [rows[0]]) + "\n", encoding="utf-8")
    out = tmp_path / "tb.jsonl"
    proc = run_cli("gen-testbench", "--input", str(specs), "--out", str(out),
                   "--config", str(config))
    assert proc.returncode == 0, proc.stderr
    assert "skipped_input_lines: 1" in proc.stdout
    assert "[input] line 4 skipped: duplicate id 'design000'" in proc.stderr
    assert [row["id"] for row in read_jsonl(out)] == \
        ["design000", "design001", "design002"]


def test_gen_testbench_coverage_above_100_percent_errors_only_its_row(tmp_path):
    specs = tmp_path / "specs.jsonl"
    specs.write_text("".join(json.dumps({
        "id": f"design{i:03d}", "spec": f"Spec {i}.",
        "code": AUDIO_ENCODER_DUT + ("// over\n" if i == 1 else "")}) + "\n"
        for i in range(3)), encoding="utf-8")
    llm_script, _ = write_pipeline_scripts(tmp_path)
    tools = _fake_tools(
        tmp_path,
        cover='echo "Line Coverage for Module : m"\n'
              'if grep -q "// over" "$1"; then echo "TOTAL 2 3 150"; '
              'else echo "TOTAL 3 3 100.0"; fi\n',
        run='echo "Test Case 1. Expected 1"\necho "Test Case 1. Actual 1"\n'
            'echo "Your Design Passed"\n')
    config = tmp_path / "config.ini"
    config.write_text(
        f"[llm]\nbackend = mock\nmock_script = {llm_script}\n\n"
        "[simulator]\ncompile_command = true {out} {dut} {tb}\n"
        f"run_command = {tools}/run {{out}}\n"
        f"coverage_command = {tools}/cover {{dut}} {{tb}}\n", encoding="utf-8")
    out = tmp_path / "tb.jsonl"
    proc = run_cli("gen-testbench", "--input", str(specs), "--out", str(out),
                   "--config", str(config), "--jobs", "2")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "rows: 3  finished: 2  terminated: 0  errored: 1" in proc.stdout
    assert proc.stderr.endswith("error: TOTAL row 3/2 at 150% is out of range\n")
    assert [row["id"] for row in read_jsonl(out)] == ["design000", "design002"]


# ---- collect-pairs ----

def test_collect_pairs_simulator_output_that_is_not_utf8_still_parses(tmp_path):
    specs = tmp_path / "specs.jsonl"
    rows = write_spec_rows(specs, 3)
    testbenches = tmp_path / "tb.jsonl"
    testbenches.write_text("".join(json.dumps({
        "id": row["id"], "tb": "module tb; // raw\nendmodule" if i == 1 else
        "module tb; endmodule"}) + "\n" for i, row in enumerate(rows)),
        encoding="utf-8")
    llm_script, _ = write_collect_scripts(tmp_path)
    # Candidate A fails one case of two, B both; the row whose testbench
    # says "raw" prints a byte that is not UTF-8 inside a case line.
    tools = _fake_tools(tmp_path, run=(
        "fails=1\ngrep -q '~audio_in' dut.v && fails=2\n"
        'echo "Test Case 1. Expected 1"\n'
        "if grep -q raw tb.v; then printf 'Test Case 1. Actual \\377\\n'; "
        'else echo "Test Case 1. Actual 0"; fi\n'
        'echo "Test Case 2. Expected 1"\necho "Test Case 2. Actual 0"\n'
        'echo "Test with $fails failures"\n'))
    config = tmp_path / "config.ini"
    config.write_text(
        f"[llm]\nbackend = mock\nmock_script = {llm_script}\n\n"
        "[simulator]\ncompile_command = true {out} {dut} {tb}\n"
        f"run_command = {tools}/run {{out}}\n", encoding="utf-8")
    pairs_out, evals_out = tmp_path / "pairs.jsonl", tmp_path / "evals.jsonl"
    proc = run_cli("collect-pairs", "--specs", str(specs),
                   "--testbenches", str(testbenches), "--out", str(pairs_out),
                   "--evals-out", str(evals_out), "--method", "testbench",
                   "--config", str(config))
    assert proc.returncode == 0, proc.stderr
    assert "specs: 3  pairs: 3  discards: 0  errored: 0" in proc.stdout
    assert [row["id"] for row in read_jsonl(pairs_out)] == \
        ["design000#0", "design001#0", "design002#0"]
    assert [(row["passed"], row["total"]) for row in read_jsonl(evals_out)] == \
        [(1, 2), (0, 2)] * 3


def test_collect_pairs_counts_the_spec_lines_it_skips(tmp_path):
    specs = tmp_path / "specs.jsonl"
    rows = write_spec_rows(specs, 2)
    with open(specs, "a", encoding="utf-8") as handle:
        handle.write("this is not json\n")
    testbenches = tmp_path / "tb.jsonl"
    testbenches.write_text("".join(json.dumps({"id": row["id"], "tb": "module tb; endmodule"})
                                   + "\n" for row in rows), encoding="utf-8")
    config = write_config(tmp_path, *write_collect_scripts(tmp_path))
    proc = run_cli("collect-pairs", "--specs", str(specs), "--testbenches", str(testbenches),
                   "--out", str(tmp_path / "pairs.jsonl"), "--method", "testbench",
                   "--config", str(config))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == ("specs: 2  pairs: 2  discards: 0  errored: 0  "
                                           "method: testbench  skipped_input_lines: 1")
    assert "[specs] line 3 skipped: bad JSON" in proc.stderr


@pytest.mark.parametrize("section,line,message", [
    ("sampling", "temperatures = 0.2, -0.5",
     "sampling temperatures must be one or more finite values >= 0"),
    ("sampling", "temperatures = 0.2, nan",
     "sampling temperatures must be one or more finite values >= 0"),
    ("sampling", "top_p = 7", "sampling top_p must be in [0, 1]"),
    ("sampling", "max_tokens = 0", "sampling max_tokens must be >= 1"),
    ("sampling", "max_pairs_per_spec = 0", "sampling max_pairs_per_spec must be >= 1"),
    ("simulator", "timeout = inf", "simulator timeout must be in (0, 2147483.647]"),
    ("llm", "request_timeout = 1e30", "llm request_timeout must be in (0, 2147483.647]"),
    ("llm", "backoff_seconds = inf", "llm backoff_seconds must be in [0, 2147483.647]"),
    ("llm", "temperature = inf", "llm temperature must be >= 0 and finite"),
    ("simulator", 'compile_command = cc "-o {out} {dut} {tb}',
     """bad compile_command 'cc "-o {out} {dut} {tb}': No closing quotation"""),
    ("simulator", "run_command = run {out} {log}",
     "bad run_command 'run {out} {log}': 'log'"),
])
def test_bad_setting_fails_before_any_chat_call(tmp_path, monkeypatch, capsys,
                                                section, line, message):
    specs = tmp_path / "specs.jsonl"
    write_spec_rows(specs, 4)
    config = tmp_path / "config.ini"
    config.write_text(f"[{section}]\n{line}\n", encoding="utf-8")
    client = MockChatClient([CANDIDATE_A, CANDIDATE_B])
    monkeypatch.setattr(cli, "make_chat_client_factory",
                        lambda config: nullcontext(lambda: client))
    testbenches = tmp_path / "testbenches.jsonl"
    testbenches.write_text("".join(json.dumps({"id": f"design{i:03d}", "tb": "t"}) + "\n"
                                   for i in range(4)), encoding="utf-8")
    assert cli.main(["collect-pairs", "--specs", str(specs), "--testbenches",
                     str(testbenches), "--out", str(tmp_path / "pairs.jsonl"),
                     "--method", "testbench", "--config", str(config)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert client.calls == []
    assert not (tmp_path / "pairs.jsonl").exists()


@pytest.mark.parametrize("backend,script,problem", [
    ("simulator", ["ok"], "entry is not an object: 'ok'"),
    ("simulator", [{"kind": "run", "failures": 1}], "entry lacks 'total'"),
    ("simulator", [{"kind": "run", "total": 1, "failures": 2}],
     "failures exceed total_cases"),
    ("simulator", [{"kind": "coverage", "percent": 150}],
     "coverage percent out of range: 150.0"),
    ("simulator", [{"kind": "link"}], "unknown entry kind 'link'"),
    ("simulator", [], "not a nonempty JSON list"),
    ("llm", [], "not a nonempty JSON list"),
    ("llm", ["ok", 1], "not a string: 1"),
    ("simulator", [{"kind": "run", "total": 1, "failures": 1, "log": 5}],
     "not a string: 5"),
    ("simulator", [{"kind": "compile", "ok": False, "log": ["e"]}],
     "not a string: ['e']"),
    # Each field has one JSON type; nothing is converted.
    ("simulator", [{"kind": "compile", "ok": "false"}], "not a boolean: 'false'"),
    ("simulator", [{"kind": "compile", "ok": 0}], "not a boolean: 0"),
    ("simulator", [{"kind": "run", "total": 2.9, "failures": 1}], "not an integer: 2.9"),
    ("simulator", [{"kind": "run", "total": 2, "failures": True}], "not an integer: True"),
    ("simulator", [{"kind": "run", "total": "5", "failures": 0}], "not an integer: '5'"),
    ("simulator", [{"kind": "run", "abort": 5}], "not a string: 5"),
    ("simulator", [{"kind": "coverage", "percent": "55"}], "not a number: '55'"),
    ("simulator", [{"kind": "coverage", "percent": True}], "not a number: True"),
])
def test_bad_mock_script_is_a_config_error_naming_it(pipeline_workspace, backend,
                                                     script, problem):
    tmp_path, specs, config = pipeline_workspace
    path = tmp_path / ("sim_pipeline.json" if backend == "simulator"
                       else "llm_pipeline.json")
    path.write_text(json.dumps(script), encoding="utf-8")
    out = tmp_path / "tb.jsonl"
    # The backends are built before any input is read, so the error is all
    # that is printed, also when no gen-testbench row passes the filter.
    for command in (["gen-testbench"], ["gen-testbench", "--min-code-lines", "99"],
                    ["collect-pairs"]):
        proc = run_cli(*command, *batch_inputs(command[0], tmp_path, specs),
                       "--out", str(out), "--config", str(config))
        assert proc.returncode == 1
        assert proc.stderr == f"error: bad {backend} mock script {path}: {problem}\n"
        assert not out.exists()


@pytest.fixture
def collected(tmp_path):
    specs = tmp_path / "specs.jsonl"
    write_spec_rows(specs, 3)
    llm_p, sim_p = write_pipeline_scripts(tmp_path)
    config_p = write_config(tmp_path, llm_p, sim_p, name="pipeline.ini")
    tb_out = tmp_path / "tb.jsonl"
    proc = run_cli("gen-testbench", "--input", str(specs), "--out", str(tb_out),
                   "--config", str(config_p))
    assert proc.returncode == 0, proc.stderr

    llm_c, sim_c = write_collect_scripts(tmp_path)
    config_c = write_config(tmp_path, llm_c, sim_c, name="collect.ini")
    return tmp_path, specs, tb_out, config_c


def test_collect_pairs_testbench_method(collected):
    tmp_path, specs, tb_out, config = collected
    pairs_out = tmp_path / "pairs.jsonl"
    evals_out = tmp_path / "evals.jsonl"
    proc = run_cli("collect-pairs", "--specs", str(specs),
                   "--testbenches", str(tb_out), "--out", str(pairs_out),
                   "--method", "testbench", "--config", str(config),
                   "--evals-out", str(evals_out))
    assert proc.returncode == 0, proc.stderr
    pairs = read_jsonl(pairs_out)
    assert [row["id"] for row in pairs] == ["design000#0", "design001#0", "design002#0"]
    for row in pairs:
        assert row["method"] == "testbench"
        assert row["chosen_passed"] == 4
        assert row["rejected_passed"] == 2
        assert row["chosen_passed"] > row["rejected_passed"]
    evals = read_jsonl(evals_out)
    assert len(evals) == 6
    assert {e["candidate_idx"] for e in evals} == {0, 1}
    assert "pairs: 3" in proc.stdout


@pytest.mark.parametrize("method", ["testbench", "bleu", "ast", "dfg",
                                    "tb-with-fails"])
def test_collect_pairs_outputs_identical_across_jobs(collected, method):
    # five candidates per spec: two that pass 4/5 and 2/5, a prose reply
    # (no code), the reference itself passing 5/5, and one that does not
    # compile
    tmp_path, specs, tb_out, _ = collected
    llm_c = tmp_path / "llm_five.json"
    llm_c.write_text(json.dumps([CANDIDATE_A, CANDIDATE_B, "no code here",
                                 f"```verilog\n{AUDIO_ENCODER_DUT}```",
                                 CANDIDATE_A.replace("[0]", "[1]")]),
                     encoding="utf-8")
    sim_c = tmp_path / "sim_five.json"
    sim_c.write_text(json.dumps([
        {"kind": "compile", "ok": True},
        {"kind": "run", "total": 5, "failures": 1},
        {"kind": "compile", "ok": True},
        {"kind": "run", "total": 5, "failures": 3},
        {"kind": "compile", "ok": True},
        {"kind": "run", "total": 5, "failures": 0},
        {"kind": "compile", "ok": False, "log": "syntax error"},
    ]), encoding="utf-8")
    config_c = write_config(tmp_path, llm_c, sim_c, name="five.ini")
    outputs = []
    for jobs in (1, 2, 3):
        pairs_out = tmp_path / f"pairs{jobs}.jsonl"
        evals_out = tmp_path / f"evals{jobs}.jsonl"
        proc = run_cli("collect-pairs", "--specs", str(specs),
                       "--testbenches", str(tb_out), "--out", str(pairs_out),
                       "--method", method, "--n", "5", "--config", str(config_c),
                       "--evals-out", str(evals_out), "--jobs", str(jobs))
        assert proc.returncode == 0, proc.stderr
        outputs.append((pairs_out.read_bytes(), evals_out.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(read_jsonl(tmp_path / "pairs1.jsonl")) >= 6
    assert [(row["candidate_idx"], row["passed"], row["status"])
            for row in read_jsonl(tmp_path / "evals1.jsonl")][:5] == \
        [(0, 4, "report"), (1, 2, "report"), (2, 0, "no_code"),
         (3, 5, "report"), (4, 0, "compile_error")]


def test_collect_pairs_id_counts_emitted_pairs_only(collected):
    # three candidates: one pair plus two abort discards per spec
    tmp_path, specs, tb_out, _ = collected
    llm_c = tmp_path / "llm_three.json"
    llm_c.write_text(json.dumps([CANDIDATE_A, CANDIDATE_B, CANDIDATE_A]),
                     encoding="utf-8")
    sim_c = tmp_path / "sim_three.json"
    sim_c.write_text(json.dumps([
        {"kind": "compile", "ok": True},
        {"kind": "run", "total": 5, "failures": 1},
        {"kind": "compile", "ok": True},
        {"kind": "run", "total": 5, "failures": 3},
        {"kind": "compile", "ok": True},
        {"kind": "run", "abort": "timeout"},
    ]), encoding="utf-8")
    config_c = write_config(tmp_path, llm_c, sim_c, name="three.ini")
    pairs_out = tmp_path / "pairs.jsonl"
    proc = run_cli("collect-pairs", "--specs", str(specs),
                   "--testbenches", str(tb_out), "--out", str(pairs_out),
                   "--method", "testbench", "--n", "3", "--config", str(config_c))
    assert proc.returncode == 0, proc.stderr
    assert [row["id"] for row in read_jsonl(pairs_out)] == \
        ["design000#0", "design001#0", "design002#0"]
    assert "discarded (aborted): 6" in proc.stdout


@pytest.mark.parametrize("jobs", [1, 3])
def test_collect_pairs_blank_spec_ends_only_its_row(collected, jobs):
    tmp_path, specs, tb_out, config = collected
    rows = read_jsonl(specs)
    others = tmp_path / "others.jsonl"
    others.write_text("".join(json.dumps(r) + "\n" for r in (rows[0], rows[2])),
                      encoding="utf-8")
    rows[1]["spec"] = "  "
    specs.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    runs = []
    for name, spec_path in (("all", specs), ("others", others)):
        pairs_out = tmp_path / f"{name}.pairs.jsonl"
        evals_out = tmp_path / f"{name}.evals.jsonl"
        proc = run_cli("collect-pairs", "--specs", str(spec_path),
                       "--testbenches", str(tb_out), "--out", str(pairs_out),
                       "--method", "testbench", "--config", str(config),
                       "--evals-out", str(evals_out), "--jobs", str(jobs))
        runs.append((proc, pairs_out.read_bytes(), evals_out.read_bytes()))
    (blank, *blank_outputs), (clean, *clean_outputs) = runs
    assert clean.returncode == 0, clean.stderr
    assert blank.returncode == 1
    assert "error: empty specification" in blank.stderr
    assert "specs: 3  pairs: 2  discards: 0  errored: 1" in blank.stdout
    assert blank_outputs == clean_outputs
    assert len(read_jsonl(tmp_path / "all.pairs.jsonl")) == 2


def test_collect_pairs_all_ties_all_discarded(tmp_path):
    specs = tmp_path / "specs.jsonl"
    write_spec_rows(specs, 2)
    llm_p, sim_p = write_pipeline_scripts(tmp_path)
    config_p = write_config(tmp_path, llm_p, sim_p, name="pipeline.ini")
    tb_out = tmp_path / "tb.jsonl"
    run_cli("gen-testbench", "--input", str(specs), "--out", str(tb_out),
            "--config", str(config_p))

    llm_c, _ = write_collect_scripts(tmp_path)
    sim_tie = tmp_path / "sim_tie.json"
    sim_tie.write_text(json.dumps([
        {"kind": "compile", "ok": True},
        {"kind": "run", "total": 5, "failures": 2},
        {"kind": "compile", "ok": True},
        {"kind": "run", "total": 5, "failures": 2},
    ]), encoding="utf-8")
    config_c = write_config(tmp_path, llm_c, sim_tie, name="collect.ini")
    pairs_out = tmp_path / "pairs.jsonl"
    proc = run_cli("collect-pairs", "--specs", str(specs),
                   "--testbenches", str(tb_out), "--out", str(pairs_out),
                   "--method", "testbench", "--config", str(config_c))
    assert proc.returncode == 0, proc.stderr
    assert read_jsonl(pairs_out) == []
    assert "pairs: 0" in proc.stdout
    assert "discarded (tie): 2" in proc.stdout


@pytest.mark.parametrize("depth,summary", [
    (3, "discarded (tie): 1"),
    (300, "discarded (parse): 1"),
])
def test_collect_pairs_dfg_deeply_nested_candidate_is_a_parse_discard(tmp_path, depth,
                                                                     summary):
    # The second candidate is the first with its right-hand side wrapped in
    # `depth` parentheses: the same dataflow, so a tie, until the nesting is
    # too deep to parse.
    specs = tmp_path / "specs.jsonl"
    write_spec_rows(specs, 1)
    llm_p, sim_p = write_pipeline_scripts(tmp_path)
    config_p = write_config(tmp_path, llm_p, sim_p, name="pipeline.ini")
    tb_out = tmp_path / "tb.jsonl"
    run_cli("gen-testbench", "--input", str(specs), "--out", str(tb_out),
            "--config", str(config_p))

    nested = CANDIDATE_A.replace("audio_in[0]", "(" * depth + "audio_in[0]" + ")" * depth)
    llm_c = tmp_path / "llm_nested.json"
    llm_c.write_text(json.dumps([CANDIDATE_A, nested]), encoding="utf-8")
    sim_c = tmp_path / "sim_nested.json"
    sim_c.write_text(json.dumps([
        {"kind": "compile", "ok": True},
        {"kind": "run", "total": 5, "failures": 0},
    ] * 2), encoding="utf-8")
    config_c = write_config(tmp_path, llm_c, sim_c, name="collect.ini")
    proc = run_cli("collect-pairs", "--specs", str(specs),
                   "--testbenches", str(tb_out), "--out", str(tmp_path / "pairs.jsonl"),
                   "--method", "dfg", "--config", str(config_c))
    assert proc.returncode == 0, proc.stderr
    assert "specs: 1  pairs: 0  discards: 1  errored: 0" in proc.stdout
    assert summary in proc.stdout


def test_collect_pairs_with_fails_method(tmp_path):
    specs = tmp_path / "specs.jsonl"
    write_spec_rows(specs, 1)
    llm_p, sim_p = write_pipeline_scripts(tmp_path)
    config_p = write_config(tmp_path, llm_p, sim_p, name="pipeline.ini")
    tb_out = tmp_path / "tb.jsonl"
    run_cli("gen-testbench", "--input", str(specs), "--out", str(tb_out),
            "--config", str(config_p))

    llm_c, _ = write_collect_scripts(tmp_path)
    sim_mixed = tmp_path / "sim_mixed.json"
    sim_mixed.write_text(json.dumps([
        {"kind": "compile", "ok": True},
        {"kind": "run", "total": 5, "failures": 0},
        {"kind": "compile", "ok": False, "log": "syntax error"},
    ]), encoding="utf-8")
    config_c = write_config(tmp_path, llm_c, sim_mixed, name="collect.ini")
    pairs_out = tmp_path / "pairs.jsonl"
    proc = run_cli("collect-pairs", "--specs", str(specs),
                   "--testbenches", str(tb_out), "--out", str(pairs_out),
                   "--method", "tb-with-fails", "--config", str(config_c))
    assert proc.returncode == 0, proc.stderr
    pairs = read_jsonl(pairs_out)
    assert len(pairs) == 1
    assert pairs[0]["method"] == "tb-with-fails"


def _collect_with_testbench_rows(tmp_path, tb_rows, spec_id=None):
    specs = tmp_path / "specs.jsonl"
    if spec_id is None:
        write_spec_rows(specs, 1)
    else:
        specs.write_text(json.dumps({"id": spec_id, "spec": "s",
                                     "code": AUDIO_ENCODER_DUT}) + "\n",
                         encoding="utf-8")
    llm_c, sim_c = write_collect_scripts(tmp_path)
    config_c = write_config(tmp_path, llm_c, sim_c)
    tb_path = tmp_path / "tb.jsonl"
    tb_path.write_text("".join(json.dumps(row) + "\n" for row in tb_rows),
                       encoding="utf-8")
    pairs_out = tmp_path / "pairs.jsonl"
    proc = run_cli("collect-pairs", "--specs", str(specs),
                   "--testbenches", str(tb_path), "--out", str(pairs_out),
                   "--method", "testbench", "--config", str(config_c))
    return proc, pairs_out


def test_collect_pairs_duplicate_testbench_id_exit_1(tmp_path):
    proc, pairs_out = _collect_with_testbench_rows(
        tmp_path, [{"id": "design000", "tb": "first"},
                   {"id": "design000", "tb": "second"}])
    assert proc.returncode == 2
    assert proc.stderr == f"io error: {tmp_path / 'tb.jsonl'}:2: duplicate id 'design000'\n"
    assert not pairs_out.exists()


def test_collect_pairs_joins_integer_ids(tmp_path):
    proc, pairs_out = _collect_with_testbench_rows(
        tmp_path, [{"id": 5, "tb": "t"}], spec_id=5)
    assert proc.returncode == 0, proc.stderr
    assert "specs: 1  pairs: 1" in proc.stdout
    assert [row["id"] for row in read_jsonl(pairs_out)] == ["5#0"]


def test_collect_pairs_integer_and_string_testbench_id_exit_1(tmp_path):
    proc, pairs_out = _collect_with_testbench_rows(
        tmp_path, [{"id": 5, "tb": "first"}, {"id": "5", "tb": "second"}],
        spec_id=5)
    assert proc.returncode == 2
    assert proc.stderr == f"io error: {tmp_path / 'tb.jsonl'}:2: duplicate id '5'\n"
    assert not pairs_out.exists()


def test_collect_pairs_testbench_row_without_id_exit_1(tmp_path):
    proc, pairs_out = _collect_with_testbench_rows(
        tmp_path, [{"id": "design000", "tb": "t"}, {"tb": "no id"}])
    assert proc.returncode == 2
    assert proc.stderr == f"io error: {tmp_path / 'tb.jsonl'}:2: row missing field 'id'\n"
    assert "Traceback" not in proc.stderr
    assert not pairs_out.exists()


def test_collect_pairs_testbench_that_is_not_a_string_exit_1(tmp_path):
    proc, pairs_out = _collect_with_testbench_rows(
        tmp_path, [{"id": "design000", "tb": None}])
    assert proc.returncode == 2
    assert proc.stderr == \
        f"io error: {tmp_path / 'tb.jsonl'}:1: bad value for field 'tb': None\n"
    assert "Traceback" not in proc.stderr
    assert not pairs_out.exists()


@pytest.mark.parametrize("bad_id", [None, {"a": 1}, True])
def test_collect_pairs_testbench_id_that_is_not_a_string_or_integer_exit_1(tmp_path,
                                                                        bad_id):
    proc, pairs_out = _collect_with_testbench_rows(
        tmp_path, [{"id": "design000", "tb": "t"}, {"id": bad_id, "tb": "t"}])
    assert proc.returncode == 2
    assert proc.stderr == \
        f"io error: {tmp_path / 'tb.jsonl'}:2: bad value for field 'id': {bad_id!r}\n"
    assert "Traceback" not in proc.stderr
    assert not pairs_out.exists()


# ---- passk ----

def write_task_results(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def test_passk_closed_form(tmp_path):
    results = tmp_path / "results.jsonl"
    write_task_results(results, [
        {"task": "t1", "n": 20, "c_syntax": 20, "c_function": 10},
        {"task": "t2", "n": 20, "c_syntax": 10, "c_function": 0},
    ])
    proc = run_cli("passk", "--results", str(results), "--k", "1,5")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["mode"] == "function"
    assert summary["results"]["pass@1"] == pytest.approx(0.25)
    assert list(summary["results"]) == ["pass@1", "pass@5"]


def test_passk_syntax_mode_and_default_n(tmp_path):
    results = tmp_path / "results.jsonl"
    write_task_results(results, [{"task": "t", "c_syntax": 10, "c_function": 5}])
    proc = run_cli("passk", "--results", str(results), "--k", "1",
                   "--mode", "syntax")
    summary = json.loads(proc.stdout)
    assert summary["results"]["pass@1"] == pytest.approx(0.5)  # n defaults to 20


def test_passk_k_exceeds_n(tmp_path):
    results = tmp_path / "results.jsonl"
    write_task_results(results, [{"task": "t", "n": 5, "c_syntax": 1, "c_function": 1}])
    proc = run_cli("passk", "--results", str(results), "--k", "6")
    assert proc.returncode == 1
    assert "exceeds" in proc.stderr


def test_passk_multi_k_ordering_stable(tmp_path):
    results = tmp_path / "results.jsonl"
    write_task_results(results, [{"task": "t", "n": 10, "c_syntax": 5, "c_function": 3}])
    proc = run_cli("passk", "--results", str(results), "--k", "5,1,2")
    summary = json.loads(proc.stdout)
    assert list(summary["results"]) == ["pass@5", "pass@1", "pass@2"]


def test_passk_row_missing_a_field_is_an_io_error(tmp_path):
    results = tmp_path / "results.jsonl"
    write_task_results(results, [{"task": "t", "n": 5, "c_syntax": 3, "c_function": 1},
                                 {"task": "u", "n": 5, "c_syntax": 3}])
    proc = run_cli("passk", "--results", str(results), "--k", "1")
    assert proc.returncode == 2
    assert proc.stderr == f"io error: {results}:2: row missing field 'c_function'\n"


@pytest.mark.parametrize("k_list", ["0", "1,0", "-1", "x"])
def test_passk_k_below_one_is_a_usage_error(tmp_path, k_list):
    results = tmp_path / "results.jsonl"
    write_task_results(results, [{"task": "t", "n": 5, "c_syntax": 3, "c_function": 1}])
    proc = run_cli("passk", "--results", str(results), "--k", k_list)
    assert proc.returncode == 1
    assert proc.stderr == f"error: bad --k list: {k_list!r}\n"


def test_passk_record_error_is_an_io_error_at_its_line(tmp_path):
    results = tmp_path / "results.jsonl"
    write_task_results(results, [{"task": "t", "n": 5, "c_syntax": 3, "c_function": 1},
                                 {"task": "u", "n": 5, "c_syntax": 6, "c_function": 1}])
    proc = run_cli("passk", "--results", str(results), "--k", "1")
    assert proc.returncode == 2
    assert proc.stderr == (f"io error: {results}:2: bad row: need 0 <= c_function "
                           "<= c_syntax <= n, got (1, 6, 5)\n")


def test_passk_repeated_task_is_an_io_error_at_its_line(tmp_path):
    # task rows are keyed by task, so a second row for one task must not
    # count that task twice in pass@k
    results = tmp_path / "results.jsonl"
    write_task_results(results, [{"task": "a", "n": 2, "c_syntax": 2, "c_function": 2},
                                 {"task": "a", "n": 2, "c_syntax": 0, "c_function": 0}])
    proc = run_cli("passk", "--results", str(results), "--k", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"io error: {results}:2: duplicate task 'a'\n"


def test_passk_line_that_is_not_utf8_is_an_io_error_at_its_line(tmp_path):
    results = tmp_path / "results.jsonl"
    results.write_bytes(b'{"task": "t", "n": 5, "c_syntax": 3, "c_function": 1}\n'
                        b'{"task": "\xff", "n": 5, "c_syntax": 3, "c_function": 1}\n')
    proc = run_cli("passk", "--results", str(results), "--k", "1")
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"io error: {results}:2: bad JSON: ")
    assert "can't decode byte 0xff" in proc.stderr
    assert proc.stderr.count("\n") == 1


# ---- similarity ----

def test_similarity_identical_files(tmp_path):
    f = tmp_path / "m.v"
    f.write_text(AUDIO_ENCODER_DUT, encoding="utf-8")
    for method in ("bleu", "ast", "dfg"):
        proc = run_cli("similarity", "--method", method, str(f), str(f))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1.000000"


def test_similarity_unparseable_ast_exit_1(tmp_path):
    good = tmp_path / "good.v"
    good.write_text(AUDIO_ENCODER_DUT, encoding="utf-8")
    bad = tmp_path / "bad.v"
    bad.write_text("module m; generate endgenerate endmodule", encoding="utf-8")
    for files in ((bad, good), (good, bad)):  # the candidate, then the reference
        proc = run_cli("similarity", "--method", "ast", *map(str, files))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {bad}: L1: ")
        assert "generate" in proc.stderr


@pytest.mark.parametrize("content", ["", "// nothing but a comment\n"],
                         ids=["empty", "comment-only"])
@pytest.mark.parametrize("method", ["bleu", "ast", "dfg"])
def test_similarity_file_with_no_tokens_is_named(tmp_path, capsys, method, content):
    good = tmp_path / "good.v"
    good.write_text(AUDIO_ENCODER_DUT, encoding="utf-8")
    empty = tmp_path / "empty.v"
    empty.write_text(content, encoding="utf-8")
    for files in ((empty, good), (good, empty)):  # the candidate, then the reference
        assert cli.main(["similarity", "--method", method, *map(str, files)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {empty}: ")
        assert err.endswith("empty input\n")


def test_similarity_file_that_is_not_utf8_is_an_io_error(tmp_path):
    good = tmp_path / "good.v"
    good.write_text(AUDIO_ENCODER_DUT, encoding="utf-8")
    bad = tmp_path / "bad.v"
    bad.write_bytes(b"module m; // \xff\nendmodule\n")
    proc = run_cli("similarity", "--method", "bleu", str(bad), str(good))
    assert proc.returncode == 2
    assert proc.stderr == (f"io error: {bad}: 'utf-8' codec can't decode byte 0xff "
                           "in position 13: invalid start byte\n")


# ---- dpo ----

def test_dpo_zero_margin_file(tmp_path):
    pairs = tmp_path / "pairs.jsonl"
    rows = [{"id": f"p{i}", "policy_chosen": -5.0, "ref_chosen": -5.0,
             "policy_rejected": -7.0, "ref_rejected": -7.0} for i in range(3)]
    with open(pairs, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    proc = run_cli("dpo", "--pairs", str(pairs), "--beta", "0.1")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["pairs"] == 3
    assert report["mean_loss"] == pytest.approx(math.log(2), abs=1e-12)


@pytest.mark.parametrize("row,problem", [
    ({"policy_chosen": -5.0, "policy_rejected": -7.0, "ref_rejected": -7.0},
     "row missing field 'ref_chosen'"),
    ({"policy_chosen": -5.0, "ref_chosen": "low", "policy_rejected": -7.0,
      "ref_rejected": -7.0}, "bad value for field 'ref_chosen': 'low'"),
])
def test_dpo_bad_row_is_an_io_error(tmp_path, row, problem):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(json.dumps(row) + "\n", encoding="utf-8")
    proc = run_cli("dpo", "--pairs", str(pairs))
    assert proc.returncode == 2
    assert proc.stderr == f"io error: {pairs}:1: {problem}\n"


GOOD_TASK = {"task": "a", "n": 4, "c_syntax": 2, "c_function": 1}
GOOD_LOGPROBS = {"policy_chosen": -5.0, "ref_chosen": -5, "policy_rejected": -7.0,
                 "ref_rejected": -7.0}


@pytest.mark.parametrize("command,row,problem", [
    ("passk", {"task": None}, "bad value for field 'task': None"),
    ("passk", {"task": [1, 2]}, "bad value for field 'task': [1, 2]"),
    ("passk", {"task": True}, "bad value for field 'task': True"),
    ("passk", {"n": "4"}, "bad value for field 'n': '4'"),
    ("passk", {"n": 4.0}, "bad value for field 'n': 4.0"),
    ("passk", {"c_syntax": 2.9}, "bad value for field 'c_syntax': 2.9"),
    ("passk", {"c_syntax": True}, "bad value for field 'c_syntax': True"),
    ("passk", {"c_function": False}, "bad value for field 'c_function': False"),
    ("dpo", {"policy_chosen": "-3.5"}, "bad value for field 'policy_chosen': '-3.5'"),
    ("dpo", {"ref_rejected": True}, "bad value for field 'ref_rejected': True"),
], ids=["task-null", "task-list", "task-true", "n-string", "n-float", "c_syntax-float",
       "c_syntax-true", "c_function-false", "logprob-string", "logprob-true"])
def test_field_of_the_wrong_json_type_is_an_io_error(tmp_path, command, row, problem):
    # The bad row follows a good one, so its line is 2; an integer is a
    # JSON number, so the good dpo row's -5 is read.
    path = tmp_path / "rows.jsonl"
    if command == "passk":
        rows = [GOOD_TASK, {**GOOD_TASK, "task": "b", **row}]
        args = ["passk", "--results", str(path), "--k", "1"]
    else:
        rows = [GOOD_LOGPROBS, {**GOOD_LOGPROBS, **row}]
        args = ["dpo", "--pairs", str(path)]
    write_task_results(path, rows)
    proc = run_cli(*args)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"io error: {path}:2: {problem}\n"


def test_dpo_record_error_is_an_io_error_at_its_line(tmp_path):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text('{"policy_chosen": NaN, "ref_chosen": -5.0, '
                     '"policy_rejected": -7.0, "ref_rejected": -7.0}\n', encoding="utf-8")
    proc = run_cli("dpo", "--pairs", str(pairs))
    assert proc.returncode == 2
    assert proc.stderr == f"io error: {pairs}:1: bad row: policy_chosen must be finite\n"


def test_dpo_gradcheck(tmp_path):
    proc = run_cli("dpo", "--gradcheck", "5")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["gradcheck"]["pass"] is True
    assert report["gradcheck"]["max_rel_error"] < 1e-5


def test_dpo_gradcheck_is_byte_identical_across_runs_without_numpy():
    # numpy blocked: the check runs on the standard library, and each seed
    # draws from its own random.Random, whatever the process's hash seed.
    probe = ("import sys; sys.modules['numpy'] = None; "
             "sys.argv = ['tbforge', 'dpo', '--gradcheck', '3']; "
             "from tbforge.cli import entry; entry()")
    runs = [subprocess.run([sys.executable, "-c", probe], capture_output=True)
            for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["gradcheck"]["pass"] is True


@pytest.mark.parametrize("command", ["passk", "dpo"])
def test_report_out_in_a_new_directory(tmp_path, command):
    results = tmp_path / "results.jsonl"
    write_task_results(results, [{"task": "t", "c_syntax": 10, "c_function": 5}])
    out = tmp_path / "reports" / "out.json"
    args = (["passk", "--results", str(results), "--k", "1"] if command == "passk"
            else ["dpo", "--gradcheck", "1"])
    assert cli.main([*args, "--out", str(out)]) == cli.EXIT_OK
    report = json.loads(out.read_text(encoding="utf-8"))
    assert ("results" if command == "passk" else "gradcheck") in report


def test_dpo_nonpositive_beta_exit_1(tmp_path):
    proc = run_cli("dpo", "--gradcheck", "1", "--beta", "0")
    assert proc.returncode == 1


@pytest.mark.parametrize("beta", ["nan", "inf"])
def test_dpo_beta_that_is_not_finite_exit_1(tmp_path, beta):
    proc = run_cli("dpo", "--gradcheck", "1", "--beta", beta)
    assert proc.returncode == 1
    assert proc.stderr == f"error: --beta must be > 0 and finite, got {beta}\n"


# ---- simulate ----

def test_simulate_outputs_outcome_json(tmp_path):
    dut = tmp_path / "dut.v"
    dut.write_text(AUDIO_ENCODER_DUT, encoding="utf-8")
    tb = tmp_path / "tb.v"
    tb.write_text("module tb; endmodule", encoding="utf-8")
    sim_script = tmp_path / "sim.json"
    sim_script.write_text(json.dumps([
        {"kind": "compile", "ok": True},
        {"kind": "run", "total": 5, "failures": 5},
    ]), encoding="utf-8")
    llm_script = tmp_path / "llm.json"
    llm_script.write_text(json.dumps(["unused"]), encoding="utf-8")
    config = write_config(tmp_path, llm_script, sim_script)
    proc = run_cli("simulate", "--dut", str(dut), "--tb", str(tb),
                   "--config", str(config))
    assert proc.returncode == 0, proc.stderr
    outcome = json.loads(proc.stdout)
    assert outcome["status"] == "report"
    assert outcome["failures"] == 5
    assert outcome["passed"] == 0


@pytest.mark.parametrize("bad_option", ["--dut", "--tb"])
def test_simulate_file_that_is_not_utf8_is_an_io_error(tmp_path, bad_option):
    files = {}
    for option in ("--dut", "--tb"):
        files[option] = tmp_path / f"{option[2:]}.v"
        files[option].write_bytes(b"module m; // \xff\nendmodule\n"
                                  if option == bad_option else b"module m; endmodule\n")
    llm_script, sim_script = write_pipeline_scripts(tmp_path)
    config = write_config(tmp_path, llm_script, sim_script)
    proc = run_cli("simulate", "--dut", str(files["--dut"]), "--tb", str(files["--tb"]),
                   "--config", str(config))
    assert proc.returncode == 2
    assert proc.stderr == (f"io error: {files[bad_option]}: 'utf-8' codec can't decode "
                           "byte 0xff in position 13: invalid start byte\n")


def test_simulate_tool_missing_exit_3(tmp_path):
    dut = tmp_path / "dut.v"
    dut.write_text("module m; endmodule", encoding="utf-8")
    tb = tmp_path / "tb.v"
    tb.write_text(SIM_LOG_FIVE_FAILURES, encoding="utf-8")
    config = tmp_path / "config.ini"
    config.write_text(
        "[simulator]\nbackend = command\n"
        "compile_command = missing-compiler-xyz {out} {dut} {tb}\n"
        "run_command = missing-runner-xyz {out}\n", encoding="utf-8")
    proc = run_cli("simulate", "--dut", str(dut), "--tb", str(tb),
                   "--config", str(config))
    assert proc.returncode == 3
    assert "backend unavailable" in proc.stderr


def test_simulate_with_an_infinite_timeout_is_a_config_error(tmp_path):
    dut = tmp_path / "dut.v"
    dut.write_text("module m; endmodule", encoding="utf-8")
    config = tmp_path / "config.ini"
    config.write_text("[simulator]\ncompile_command = true {out} {dut} {tb}\n"
                      "run_command = true {out}\ntimeout = inf\n", encoding="utf-8")
    proc = run_cli("simulate", "--dut", str(dut), "--tb", str(dut),
                   "--config", str(config))
    assert proc.returncode == 1
    assert proc.stderr == "error: simulator timeout must be in (0, 2147483.647]\n"


def test_only_the_process_entry_point_freezes_the_collector(capsys):
    # Frozen objects are never collected, so in-process callers of main keep
    # normal collection; the process entry freezes what its imports made.
    assert cli.main(["--help"]) == cli.EXIT_OK
    assert gc.get_freeze_count() == 0
    probe = ("import atexit, gc, runpy, sys; sys.argv = ['tbforge', '--help']; "
             "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0)); "
             "runpy.run_module('tbforge', run_name='__main__')")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("frozen: True\n")


def test_cli_import_loads_no_heavy_dependencies():
    # Start-up time: the chat client and the dpo math are built on the
    # standard library, so nothing heavy loads with the CLI.
    heavy = ["requests", "urllib3", "charset_normalizer", "idna", "numpy"]
    probe = f"import sys, tbforge.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command,flag,value", [
    ("passk", "--n", "0"), ("passk", "--n", "-1"),
    ("dpo", "--gradcheck", "0"), ("dpo", "--gradcheck", "-2"),
    ("gen-testbench", "--min-code-lines", "-1"),
    ("collect-pairs", "--n", "1"), ("collect-pairs", "--n", "-3"),
])
def test_count_flag_out_of_range_is_a_usage_error(pipeline_workspace, monkeypatch,
                                                  capsys, command, flag, value):
    tmp_path, specs, config = pipeline_workspace
    client = MockChatClient(["unused"])
    monkeypatch.setattr(cli, "make_chat_client_factory",
                        lambda config: nullcontext(lambda: client))
    reads = []
    monkeypatch.setattr(corpus, "iter_jsonl", lambda path, *args: reads.append(path))
    out = tmp_path / "out.jsonl"
    inputs = {
        "passk": ["--results", str(specs), "--k", "1"],
        "dpo": ["--pairs", str(specs)],
        "gen-testbench": ["--input", str(specs), "--config", str(config)],
        "collect-pairs": ["--specs", str(specs), "--testbenches", str(specs),
                          "--method", "testbench", "--config", str(config)],
    }[command]
    code = cli.main([command, *inputs, "--out", str(out), flag, value])
    assert code == cli.EXIT_USAGE
    assert f"Invalid value for '{flag}'" in capsys.readouterr().err
    assert reads == []
    assert client.calls == []
    assert not out.exists()


def test_every_integer_option_is_range_checked():
    # An integer flag without a range lets zero or a negative count reach
    # the command, which then fails late, blames an input file, or silently
    # does nothing; click.IntRange rejects it as a usage error first.
    integers = {f"{name} {param.opts[0]}": param.type
                for name, command in cli.cli.commands.items()
                for param in command.params
                if isinstance(param, click.Option)
                and isinstance(param.type, click.types.IntParamType)}
    assert len(integers) >= 6
    assert [name for name, kind in integers.items()
            if not isinstance(kind, click.IntRange)] == []


def test_usage_error_exit_1():
    proc = run_cli("passk")  # missing required options
    assert proc.returncode == 1
