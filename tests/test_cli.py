import json
import math
import subprocess
import sys

import pytest

from tbforge import cli
from tbforge.config import ChatClientFactory
from tbforge.corpus import read_jsonl
from tbforge.errors import ConfigError, RequestRejected, ToolMissing, TransportError
from tbforge.llm import MockChatClient

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


def test_gen_testbench_bad_config_exit_1(pipeline_workspace):
    tmp_path, specs, config = pipeline_workspace
    config.write_text(config.read_text() + "\n[bogus]\nx = 1\n", encoding="utf-8")
    proc = run_cli("gen-testbench", "--input", str(specs),
                   "--out", str(tmp_path / "o.jsonl"), "--config", str(config))
    assert proc.returncode == 1
    assert "bogus" in proc.stderr


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
                        lambda config: ChatClientFactory(lambda: client))
    out = tmp_path / "tb.jsonl"
    code = cli.main(["gen-testbench", "--input", str(specs), "--out", str(out),
                     "--config", str(config), "--jobs", "2"])
    assert code == cli.EXIT_USAGE
    assert client.calls == []
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", ["gen-testbench", "collect-pairs"])
def test_jobs_below_one_is_a_usage_error(pipeline_workspace, monkeypatch, capsys,
                                         command, jobs):
    tmp_path, specs, config = pipeline_workspace
    client = MockChatClient(["unused"])
    monkeypatch.setattr(cli, "make_chat_client_factory",
                        lambda config: ChatClientFactory(lambda: client))
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
    monkeypatch.setattr(cli, "make_chat_client_factory", lambda config: ChatClientFactory(
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


def test_batch_fatal_errors_are_the_ones_every_row_would_hit():
    assert set(cli._BATCH_FATAL) == {ConfigError, RequestRejected, ToolMissing}


# ---- collect-pairs ----

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
    assert proc.returncode == 1
    assert "error: duplicate id in corpus: 'design000'" in proc.stderr
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
    assert proc.returncode == 1
    assert "error: duplicate id in corpus: '5'" in proc.stderr
    assert not pairs_out.exists()


def test_collect_pairs_testbench_row_without_id_exit_1(tmp_path):
    proc, pairs_out = _collect_with_testbench_rows(
        tmp_path, [{"id": "design000", "tb": "t"}, {"tb": "no id"}])
    assert proc.returncode == 1
    assert "error: " in proc.stderr
    assert "tb.jsonl:2: testbench row missing field 'id'" in proc.stderr
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
    proc = run_cli("similarity", "--method", "ast", str(bad), str(good))
    assert proc.returncode == 1
    assert "generate" in proc.stderr


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


def test_dpo_gradcheck(tmp_path):
    proc = run_cli("dpo", "--gradcheck", "5")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["gradcheck"]["pass"] is True
    assert report["gradcheck"]["max_rel_error"] < 1e-5


def test_dpo_nonpositive_beta_exit_1(tmp_path):
    proc = run_cli("dpo", "--gradcheck", "1", "--beta", "0")
    assert proc.returncode == 1


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


def test_cli_import_loads_no_heavy_dependencies():
    # Start-up time: the chat client is built on the standard library, and
    # numpy loads only inside the dpo functions that use it.
    heavy = ["requests", "urllib3", "charset_normalizer", "idna", "numpy"]
    probe = f"import sys, tbforge.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_usage_error_exit_1():
    proc = run_cli("passk")  # missing required options
    assert proc.returncode == 1
