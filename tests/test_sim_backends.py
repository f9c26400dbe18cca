import contextlib
import dataclasses
import os
import signal
import stat
import threading
import time
from pathlib import Path

import pytest

from tbforge.errors import (
    LONGEST_WAIT,
    ConfigError,
    ScriptExhausted,
    ToolMissing,
    UnparseableReport,
)
from tbforge.sim import (
    CaseLine,
    CommandSimulator,
    CompileError,
    MockSimulator,
    Report,
    RuntimeAbort,
    SimulatorBackend,
    SimulatorConfig,
    parse_coverage,
)

from fixture_data import AUDIO_ENCODER_DUT, TESTBENCH_SKELETON


# ---- mock backend ----

def test_mock_scripted_compile_sequence():
    mock = MockSimulator([CompileError("e1"), CompileError("e2"), "ok"])
    assert mock.compile("d", "t") == CompileError("e1")
    assert mock.compile("d", "t") == CompileError("e2")
    assert mock.compile("d", "t") is None


def test_mock_run_sequence():
    mock = MockSimulator(["ok", Report(5, 5)])
    outcome = mock.run_test("d", "t")
    assert outcome == Report(5, 5)
    assert mock.calls == ["compile", "run"]


def test_mock_run_test_stops_at_compile_error():
    mock = MockSimulator([CompileError("e"), Report(5, 5)])
    assert mock.run_test("d", "t") == CompileError("e")
    assert mock.calls == ["compile"]


def test_mock_exhaustion():
    mock = MockSimulator(["ok"])
    mock.compile("d", "t")
    with pytest.raises(ScriptExhausted):
        mock.compile("d", "t")


def test_mock_empty_script_rejected():
    with pytest.raises(ValueError):
        MockSimulator([])


def test_mock_coverage_from_float():
    mock = MockSimulator([83.87])
    cov = mock.coverage("d", "t")
    assert cov.percent == 83.87


@pytest.mark.parametrize("percent", [0, 83.87, 99.999, 100])
def test_mock_coverage_text_is_a_report_that_parses_back(percent):
    cov = MockSimulator([percent]).coverage("d", "t")
    assert parse_coverage(cov.text) == cov
    assert cov.text.endswith(f"TOTAL\t\t10000\t{cov.covered_lines}\t{percent:.2f}")


def test_mock_coverage_past_100_percent_is_an_unparseable_report():
    with pytest.raises(UnparseableReport, match="out of range"):
        MockSimulator([150]).coverage("d", "t")


def test_mock_wrong_entry_type_is_an_error():
    mock = MockSimulator([Report(1, 0)])
    with pytest.raises(ConfigError):
        mock.compile("d", "t")


def test_mock_thread_safety_consumes_each_entry_once():
    script = ["ok"] * 64
    mock = MockSimulator(script)
    results = []

    def worker():
        for _ in range(8):
            results.append(mock.compile("d", "t"))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 64
    with pytest.raises(ScriptExhausted):
        mock.compile("d", "t")


# ---- command backend against tiny stand-in tools ----

@pytest.fixture
def fake_tools(tmp_path):
    """A 'compiler' that logs its directory and concatenates the sources,
    failing when the testbench mentions an undeclared signal; a 'runner'
    that needs the compiled file and prints a canned log; a coverage tool
    that prints a one-decimal TOTAL row; and a tool that outlives any
    timeout the tests set."""
    compiler = tmp_path / "fakecomp"
    compiler.write_text(
        "#!/bin/sh\n"
        f'pwd >> "{tmp_path}/dirs.log"\n'
        'if grep -q undeclared_signal "$3"; then\n'
        '  echo "error: undeclared_signal is not declared" >&2; exit 1\n'
        "fi\n"
        'cat "$2" "$3" > "$1"\n'
    )
    runner = tmp_path / "fakerun"
    runner.write_text(
        "#!/bin/sh\n"
        'test -f "$1" || exit 1\n'
        'echo "Test Case 1. Expected x: 1"\n'
        'echo "Test Case 1. Actual x: 1"\n'
        'echo "Your Design Passed"\n'
    )
    coverer = tmp_path / "fakecov"
    coverer.write_text(
        "#!/bin/sh\n"
        'echo "Line Coverage for Module : m"\n'
        'printf "TOTAL\\t3\\t2\\t66.7\\n"\n'
    )
    sleeper = tmp_path / "fakesleep"
    sleeper.write_text("#!/bin/sh\nsleep 5\n")
    for tool in (compiler, runner, coverer, sleeper):
        tool.chmod(tool.stat().st_mode | stat.S_IEXEC)
    return tmp_path


def _config(tools, tmp_path, compile="fakecomp", run="fakerun", cover="fakecov",
            timeout=10.0):
    return SimulatorConfig(
        compile_command=f"{tools}/{compile} {{out}} {{dut}} {{tb}}",
        run_command=f"{tools}/{run} {{out}}",
        coverage_command=f"{tools}/{cover} {{dut}} {{tb}}",
        timeout=timeout,
        workdir_root=str(tmp_path / "work"),
    )


def _workdirs_left(tmp_path):
    return sorted(p.name for p in (tmp_path / "work").glob("sim-*"))


def test_command_compile_ok(fake_tools, tmp_path):
    sim = CommandSimulator(_config(fake_tools, tmp_path))
    assert sim.compile(AUDIO_ENCODER_DUT, TESTBENCH_SKELETON) is None
    assert _workdirs_left(tmp_path) == []


def test_command_compile_error_captures_log(fake_tools, tmp_path):
    sim = CommandSimulator(_config(fake_tools, tmp_path))
    bad_tb = "module tb; assign x = undeclared_signal; endmodule"
    outcome = sim.compile(AUDIO_ENCODER_DUT, bad_tb)
    assert isinstance(outcome, CompileError)
    assert "undeclared_signal" in outcome.log
    assert _workdirs_left(tmp_path) == []


def test_command_run_parses_log(fake_tools, tmp_path):
    sim = CommandSimulator(_config(fake_tools, tmp_path))
    outcome = sim.run_test(AUDIO_ENCODER_DUT, TESTBENCH_SKELETON)
    assert outcome == Report(1, 0, outcome.case_lines)
    assert outcome.passed == 1
    assert _workdirs_left(tmp_path) == []


def test_command_output_that_is_not_utf8_still_parses(fake_tools, tmp_path):
    runner = fake_tools / "rawrun"
    runner.write_text("#!/bin/sh\nprintf 'Test Case 1. Expected \\377\\n'\n"
                      "printf 'Test Case 1. Actual \\377\\n'\necho 'Your Design Passed'\n")
    runner.chmod(runner.stat().st_mode | stat.S_IEXEC)
    sim = CommandSimulator(_config(fake_tools, tmp_path, run="rawrun"))
    outcome = sim.run_test(AUDIO_ENCODER_DUT, TESTBENCH_SKELETON)
    assert outcome == Report(1, 0, (CaseLine(1, "\ufffd", "\ufffd"),))


def test_command_coverage_parses_report(fake_tools, tmp_path):
    config = _config(fake_tools, tmp_path)
    assert config.supports_coverage
    report = CommandSimulator(config).coverage(AUDIO_ENCODER_DUT, TESTBENCH_SKELETON)
    assert (report.total_lines, report.covered_lines, report.percent) == (3, 2, 66.7)
    assert _workdirs_left(tmp_path) == []


def test_command_runs_under_the_longest_timeout(fake_tools, tmp_path):
    sim = CommandSimulator(_config(fake_tools, tmp_path, timeout=LONGEST_WAIT))
    outcome = sim.run_test(AUDIO_ENCODER_DUT, TESTBENCH_SKELETON)
    assert outcome == Report(1, 0, outcome.case_lines)


def test_command_compile_timeout(fake_tools, tmp_path):
    sim = CommandSimulator(_config(fake_tools, tmp_path, compile="fakesleep",
                                   timeout=0.2))
    outcome = sim.compile(AUDIO_ENCODER_DUT, TESTBENCH_SKELETON)
    assert isinstance(outcome, CompileError)
    assert "timeout" in outcome.log
    assert sim.run_test(AUDIO_ENCODER_DUT, TESTBENCH_SKELETON) == outcome
    assert _workdirs_left(tmp_path) == []


def test_command_timeout(fake_tools, tmp_path):
    sim = CommandSimulator(_config(fake_tools, tmp_path, run="fakesleep",
                                   timeout=0.2))
    outcome = sim.run_test(AUDIO_ENCODER_DUT, TESTBENCH_SKELETON)
    assert outcome == RuntimeAbort(reason="timeout", log=outcome.log)
    assert _workdirs_left(tmp_path) == []


def test_command_timeout_kills_what_the_command_started(tmp_path):
    # The run command leaves a background sleep holding its output pipe and
    # writes the sleep's pid outside the work dir, which is removed.
    pid_file = tmp_path / "sleep.pid"
    sim = CommandSimulator(SimulatorConfig(
        compile_command="true {out} {dut} {tb}",
        run_command=f"sh -c 'sleep 30 & echo $! > {pid_file}; wait' {{out}}",
        timeout=0.5, workdir_root=str(tmp_path / "work")))
    with _killed_on_exit(pid_file):
        outcome = sim.run_test(AUDIO_ENCODER_DUT, TESTBENCH_SKELETON)
        assert outcome == RuntimeAbort(reason="timeout", log=outcome.log)
        assert _settled_state(int(pid_file.read_text())) in (None, "Z")


@pytest.mark.parametrize("call, then", [
    ("compile", "true"),
    ("run_test", 'echo "Your Design Passed"'),
    ("coverage", 'printf "TOTAL 3 2 66.7\\n"'),
], ids=["compile", "run_test", "coverage"])
def test_command_that_exits_on_time_ends_what_it_started(tmp_path, call, then):
    # The command leaves a background sleep that does not hold its output
    # pipe, so the call returns at once; the sleep must not outlive it.
    pid_file = tmp_path / "sleep.pid"
    starts_sleep = f"sh -c 'sleep 30 >/dev/null 2>&1 & echo $! > {pid_file}; {then}'"
    commands = {"compile": "true {out} {dut} {tb}", "run_test": "true {out}",
                "coverage": "true {dut} {tb}"}
    commands[call] = f"{starts_sleep} {commands[call]}"
    sim = CommandSimulator(SimulatorConfig(
        compile_command=commands["compile"], run_command=commands["run_test"],
        coverage_command=commands["coverage"], workdir_root=str(tmp_path / "work")))
    with _killed_on_exit(pid_file):
        outcome = getattr(sim, call)(AUDIO_ENCODER_DUT, TESTBENCH_SKELETON)
        assert not isinstance(outcome, (CompileError, RuntimeAbort))
        assert _settled_state(int(pid_file.read_text())) in (None, "Z")


def test_command_log_keeps_stdout_and_stderr_in_printed_order(tmp_path):
    lines = ["Test Case 1. Expected 1", "runtime error at tb.v:9",
             "Test Case 1. Actual 2", "Test with 1 failures"]
    prints = 'echo "{}"; echo "{}" >&2; echo "{}"; echo "{}"'.format(*lines)
    sim = CommandSimulator(SimulatorConfig(
        compile_command="true {out} {dut} {tb}",
        run_command=f"sh -c '{prints}' {{out}}", workdir_root=str(tmp_path / "work")))
    report = sim.run_test(AUDIO_ENCODER_DUT, TESTBENCH_SKELETON)
    assert report == Report(1, 1, report.case_lines, log=report.log)
    assert report.log.splitlines() == lines


def test_compile_log_keeps_stdout_and_stderr_in_printed_order(tmp_path):
    lines = ["tb.v:3: warning: implicit net", "tb.v:9: error: no such port",
             "1 error(s) during elaboration."]
    prints = 'echo "{}"; echo "{}" >&2; echo "{}"; exit 1'.format(*lines)
    sim = CommandSimulator(SimulatorConfig(
        compile_command=f"sh -c '{prints}' {{out}} {{dut}} {{tb}}",
        workdir_root=str(tmp_path / "work")))
    error = sim.compile(AUDIO_ENCODER_DUT, TESTBENCH_SKELETON)
    assert isinstance(error, CompileError)
    assert error.log.splitlines() == lines


@contextlib.contextmanager
def _killed_on_exit(pid_file):
    """Kill the process whose pid the command wrote, if it is still alive,
    so a failing test leaves nothing behind."""
    try:
        yield
    finally:
        with contextlib.suppress(OSError, ValueError):
            pid = int(pid_file.read_text())
            if _process_state(pid) not in (None, "Z"):
                os.kill(pid, signal.SIGKILL)


def _settled_state(pid, wait=2.0):
    """The state of a process once it is gone or a zombie, or after
    ``wait`` seconds: SIGKILL is delivered, not awaited."""
    deadline = time.monotonic() + wait
    while _process_state(pid) not in (None, "Z") and time.monotonic() < deadline:
        time.sleep(0.01)
    return _process_state(pid)


def _process_state(pid):
    """The one-letter state of a process, or None when it is gone."""
    try:
        stat_line = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat_line.rpartition(")")[2].split()[0]


def test_command_coverage_timeout(fake_tools, tmp_path):
    sim = CommandSimulator(_config(fake_tools, tmp_path, cover="fakesleep",
                                   timeout=0.2))
    with pytest.raises(UnparseableReport, match="timeout"):
        sim.coverage(AUDIO_ENCODER_DUT, TESTBENCH_SKELETON)
    assert _workdirs_left(tmp_path) == []


def test_command_tool_missing(tmp_path):
    sim = CommandSimulator(SimulatorConfig(
        compile_command="definitely-not-a-real-tool {out} {dut} {tb}",
        run_command="also-missing {out}",
        workdir_root=str(tmp_path),
    ))
    with pytest.raises(ToolMissing):
        sim.compile("module m; endmodule", "module tb; endmodule")


def test_fresh_isolated_directories(fake_tools, tmp_path):
    sim = CommandSimulator(_config(fake_tools, tmp_path))
    assert sim.compile(AUDIO_ENCODER_DUT, TESTBENCH_SKELETON) is None
    assert sim.compile(AUDIO_ENCODER_DUT, TESTBENCH_SKELETON) is None
    a, b = (tmp_path / "dirs.log").read_text().split()
    assert a != b
    assert _workdirs_left(tmp_path) == []


def test_compile_log_is_the_same_on_every_call(fake_tools, tmp_path):
    # Commands get file names relative to their work dir, so a compiler that
    # names the testbench in its error logs the same bytes on every call.
    failing = fake_tools / "failcomp"
    failing.write_text('#!/bin/sh\necho "$3:7: syntax error" >&2\nexit 1\n')
    failing.chmod(failing.stat().st_mode | stat.S_IEXEC)
    sim = CommandSimulator(_config(fake_tools, tmp_path, compile="failcomp"))
    logs = [sim.compile(AUDIO_ENCODER_DUT, TESTBENCH_SKELETON).log for _ in range(2)]
    assert logs[0] == logs[1]
    assert "tb.v:7: syntax error" in logs[0]
    assert str(tmp_path) not in logs[0]


def test_backends_satisfy_the_protocol(fake_tools, tmp_path):
    assert isinstance(CommandSimulator(_config(fake_tools, tmp_path)), SimulatorBackend)
    assert isinstance(MockSimulator(["ok"]), SimulatorBackend)


def test_coverage_requires_configuration(fake_tools, tmp_path):
    config = dataclasses.replace(_config(fake_tools, tmp_path), coverage_command=None)
    assert not config.supports_coverage
    with pytest.raises(ConfigError):
        CommandSimulator(config).coverage("module m; endmodule", "module tb; endmodule")


def test_argv_splits_and_fills_a_template():
    config = SimulatorConfig()
    assert config.argv("cc -o '{out} x' {dut} {tb}", "/w") == \
        ["cc", "-o", "sim.out x", "dut.v", "tb.v"]
    assert config.argv("{workdir}/sim {out}", "/w") == ["/w/sim", "sim.out"]


def test_check_programs_finds_a_bare_program_missing_from_path(fake_tools, monkeypatch):
    monkeypatch.setenv("PATH", str(fake_tools))
    config = SimulatorConfig()
    config.check_programs("fakecomp {out} {dut} {tb}", "fakerun {out}")
    # A program given as a path runs from each call's work directory, so
    # only the call can tell whether it is there.
    config.check_programs("./not-here {out}", "{workdir}/not-here {out}")
    with pytest.raises(ToolMissing, match="^simulator command not found: not-here-xyz$"):
        config.check_programs("fakerun {out}", "not-here-xyz {out}")
    # The mock runs no program.
    SimulatorConfig(backend="mock", mock_script="sim.json").check_programs(
        "not-here-xyz {out}")


def test_config_validates_placeholders():
    with pytest.raises(ConfigError):
        SimulatorConfig(compile_command="cc {dut} {tb}")  # no {out}
    with pytest.raises(ConfigError):
        SimulatorConfig(run_command="run")  # no {out}
    with pytest.raises(ConfigError):
        SimulatorConfig(timeout=0)
