import configparser
import dataclasses
import io
import json
from pathlib import Path

import pytest

from tbforge.config import (
    Config,
    ini_schema,
    load_config,
    make_chat_client_factory,
    make_simulator_factory,
)
from tbforge.corpus import (
    JsonlError,
    SpecCodePair,
    iter_jsonl,
    load_spec_code_pairs,
    load_testbench_rows,
    read_fields,
    read_jsonl,
    write_jsonl,
)
from tbforge.errors import ConfigError
from tbforge.sim import CompileError, Report


# ---- JSONL ----

def test_write_read_roundtrip(tmp_path):
    rows = [
        {"id": "a", "spec": "s1", "code": "c1"},
        {"id": "b", "spec": "unicode ✓", "code": "module m; endmodule\n"},
    ]
    path = tmp_path / "rows.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        write_jsonl(handle, rows[:1])
        write_jsonl(handle, rows[1:])
    assert read_jsonl(path) == rows


def test_byte_stable_output():
    rows = [{"id": "x", "value": 1.25, "nested": {"a": [1, 2]}, "text": "✓"}]
    one, two = io.StringIO(), io.StringIO()
    write_jsonl(one, rows)
    write_jsonl(two, rows)
    assert one.getvalue() == two.getvalue() == \
        '{"id": "x", "value": 1.25, "nested": {"a": [1, 2]}, "text": "✓"}\n'


def test_malformed_line_raises_with_lineno(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a"}\nnot json\n', encoding="utf-8")
    with pytest.raises(JsonlError) as exc:
        list(iter_jsonl(path))
    assert exc.value.lineno == 2
    errors = []
    rows = list(iter_jsonl(path, on_error=lambda n, m: errors.append(n)))
    assert rows == [(1, {"id": "a"})]
    assert errors == [2]


def test_tolerant_loader_skips_and_reports(tmp_path):
    path = tmp_path / "mixed.jsonl"
    path.write_text(
        '{"id": "a", "spec": "s", "code": "c"}\n'
        "...garbage...\n"
        '{"id": "b", "spec": "s", "code": "c"}\n'
        '{"id": "c", "spec": "s"}\n',
        encoding="utf-8")
    errors = []
    pairs = load_spec_code_pairs(path, on_error=lambda n, m: errors.append((n, m)))
    assert [p.id for p in pairs] == ["a", "b"]
    assert [n for n, _ in errors] == [2, 4]
    assert errors[0][1].startswith("bad JSON: ")
    assert errors[1][1] == "row missing field 'code'"


def test_spec_loader_rejects_spec_or_code_that_is_not_a_string(tmp_path):
    path = tmp_path / "typed.jsonl"
    path.write_text(
        '{"id": 1, "spec": null, "code": "c"}\n'
        '{"id": 2, "spec": "s", "code": ["x"]}\n'
        '{"id": 3, "spec": "s", "code": "c"}\n',
        encoding="utf-8")
    errors = []
    pairs = load_spec_code_pairs(path, on_error=lambda n, m: errors.append((n, m)))
    assert pairs == [SpecCodePair(id="3", spec="s", code="c")]
    assert errors == [(1, "bad value for field 'spec': None"),
                      (2, "bad value for field 'code': ['x']")]


def test_spec_loader_rejects_a_string_no_output_could_hold(tmp_path):
    path = tmp_path / "surrogates.jsonl"
    path.write_text('{"id": "a", "spec": "s", "code": "c \\udc80"}\n'
                    '{"id": "\\ud800", "spec": "s", "code": "c"}\n'
                    '{"id": "b", "spec": "s", "code": "c \\ud83d\\ude00"}\n',
                    encoding="utf-8")
    errors = []
    pairs = load_spec_code_pairs(path, on_error=lambda n, m: errors.append((n, m)))
    assert pairs == [SpecCodePair(id="b", spec="s", code="c \U0001F600")]
    assert errors == [(1, "bad value for field 'code': 'c \\udc80'"),
                      (2, "bad value for field 'id': '\\ud800'")]


def test_spec_loader_rejects_an_id_that_is_not_a_string_or_integer(tmp_path):
    path = tmp_path / "ids.jsonl"
    ids = [None, [1], True, 1.5, {"a": 1}, 7, "None"]
    path.write_text("".join(json.dumps({"id": i, "spec": "s", "code": "c"}) + "\n"
                            for i in ids), encoding="utf-8")
    errors = []
    pairs = load_spec_code_pairs(path, on_error=lambda n, m: errors.append((n, m)))
    assert pairs == [SpecCodePair(id="7", spec="s", code="c"),
                     SpecCodePair(id="None", spec="s", code="c")]
    assert errors == [(1, "bad value for field 'id': None"),
                      (2, "bad value for field 'id': [1]"),
                      (3, "bad value for field 'id': True"),
                      (4, "bad value for field 'id': 1.5"),
                      (5, "bad value for field 'id': {'a': 1}")]


@pytest.mark.parametrize("bad_line", ["...garbage...", '{"id": "b", "spec": "s"}'])
def test_spec_loader_without_callback_raises(tmp_path, bad_line):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "spec": "s", "code": "c"}\n' + bad_line + "\n",
                    encoding="utf-8")
    with pytest.raises(JsonlError) as exc:
        load_spec_code_pairs(path)
    assert exc.value.lineno == 2
    assert str(exc.value).startswith(f"{path}:2: ")


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def test_read_fields_reports_a_record_value_error_at_its_line(tmp_path):
    @dataclasses.dataclass(frozen=True)
    class Positive:
        value: int

        def __post_init__(self):
            if self.value <= 0:
                raise ValueError(f"value must be > 0, got {self.value}")

    path = _write_lines(tmp_path / "rows.jsonl",
                        ['{"value": 1}', '{"value": -2}', '{"value": 3}'])
    with pytest.raises(JsonlError) as exc:
        read_fields(path, {"value": int}, make=Positive)
    assert str(exc.value) == f"{path}:2: bad row: value must be > 0, got -2"
    errors = []
    rows = read_fields(path, {"value": int}, make=Positive,
                       on_error=lambda n, m: errors.append((n, m)))
    assert rows == [Positive(1), Positive(3)]
    assert errors == [(2, "bad row: value must be > 0, got -2")]


def test_spec_loader_skips_a_repeated_id_at_the_repeat(tmp_path):
    path = _write_lines(tmp_path / "specs.jsonl", [
        json.dumps({"id": 5, "spec": "s", "code": "first"}),
        json.dumps({"id": "6", "spec": "s", "code": "c"}),
        json.dumps({"id": "5", "spec": "s", "code": "second"}),
        json.dumps({"id": "a", "spec": None, "code": "c"}),
        json.dumps({"id": "a", "spec": "s", "code": "after a bad row"})])
    errors = []
    pairs = load_spec_code_pairs(path, on_error=lambda n, m: errors.append((n, m)))
    assert pairs == [SpecCodePair(id="5", spec="s", code="first"),
                     SpecCodePair(id="6", spec="s", code="c"),
                     SpecCodePair(id="a", spec="s", code="after a bad row")]
    assert errors == [(3, "duplicate id '5'"),
                      (4, "bad value for field 'spec': None")]
    with pytest.raises(JsonlError) as exc:
        load_spec_code_pairs(path)
    assert str(exc.value) == f"{path}:3: duplicate id '5'"


def test_testbench_loader_rejects_a_repeated_id_at_the_repeat(tmp_path):
    path = _write_lines(tmp_path / "tb.jsonl", [
        json.dumps({"id": 5, "tb": "first", "testcase_count": 3}),
        json.dumps({"id": "x", "tb": "t"}),
        json.dumps({"id": "5", "tb": "second"})])
    with pytest.raises(JsonlError) as exc:
        load_testbench_rows(path)
    assert str(exc.value) == f"{path}:3: duplicate id '5'"
    path = _write_lines(path, [json.dumps({"id": 5, "tb": "first"}),
                               json.dumps({"id": "x", "tb": "t"})])
    assert load_testbench_rows(path) == {"5": "first", "x": "t"}


def test_a_line_that_is_not_utf8_is_a_bad_row_at_its_line(tmp_path):
    path = tmp_path / "specs.jsonl"
    path.write_bytes(b'{"id": "a", "spec": "s", "code": "c"}\n'
                     b'{"id": "b", "spec": "\xff", "code": "c"}\n'
                     b'{"id": "c", "spec": "\xc3\xa9", "code": "c"}\n')
    errors = []
    pairs = load_spec_code_pairs(path, on_error=lambda n, m: errors.append((n, m)))
    assert [p.id for p in pairs] == ["a", "c"]
    assert pairs[1].spec == "\u00e9"
    assert [n for n, _ in errors] == [2]
    assert "can't decode byte 0xff" in errors[0][1]
    path.write_bytes(b'{"id": "a", "tb": "t"}\n{"id": "b", "tb": "\xff"}\n')
    with pytest.raises(JsonlError) as exc:
        load_testbench_rows(path)
    assert exc.value.lineno == 2


# ---- config ----

GOOD_CONFIG = """\
[llm]
backend = mock
mock_script = {llm_script}

[simulator]
backend = mock
mock_script = {sim_script}
timeout = 15

[pipeline]
max_draft_attempts = 2
coverage_threshold = 85.5
skip_coverage = false

[sampling]
n = 3
temperatures = 0.2, 0.8
top_p = 0.9
top_k = 40
"""


@pytest.fixture
def scripts(tmp_path):
    llm_script = tmp_path / "llm.json"
    llm_script.write_text(json.dumps(["module m; endmodule"]), encoding="utf-8")
    sim_script = tmp_path / "sim.json"
    sim_script.write_text(json.dumps([
        {"kind": "compile", "ok": True},
        {"kind": "run", "total": 5, "failures": 2},
        {"kind": "compile", "ok": False, "log": "boom"},
        {"kind": "coverage", "percent": 91.5},
    ]), encoding="utf-8")
    return llm_script, sim_script


def write_config(tmp_path, text):
    path = tmp_path / "tbforge.ini"
    path.write_text(text, encoding="utf-8")
    return path


def test_config_loads_and_types(tmp_path, scripts):
    llm_script, sim_script = scripts
    path = write_config(tmp_path, GOOD_CONFIG.format(
        llm_script=llm_script, sim_script=sim_script))
    config = load_config(path)
    assert config.llm.backend == "mock"
    assert config.simulator.timeout == 15.0
    assert config.pipeline.max_draft_attempts == 2
    assert config.pipeline.coverage_threshold == 85.5
    assert config.sampling.n == 3
    assert config.sampling.temperatures == (0.2, 0.8)


def test_unknown_key_rejected(tmp_path, scripts):
    llm_script, sim_script = scripts
    text = GOOD_CONFIG.format(llm_script=llm_script, sim_script=sim_script)
    path = write_config(tmp_path, text.replace(
        "max_draft_attempts = 2", "max_draft_attempts = 2\nbogus_key = 1"))
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = write_config(tmp_path, "[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.ini")


def test_mock_backend_requires_script(tmp_path):
    path = write_config(tmp_path, "[llm]\nbackend = mock\n")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("key,value", [
    ("retries", "0"), ("request_timeout", "0"), ("backoff_seconds", "-1"),
    ("max_tokens", "0"), ("temperature", "-0.5")])
def test_llm_value_out_of_range_rejected(tmp_path, key, value):
    path = write_config(tmp_path, f"[llm]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"llm {key} must be"):
        load_config(path)


def test_sim_script_parses_to_domain_objects(tmp_path, scripts):
    llm_script, sim_script = scripts
    path = write_config(tmp_path, GOOD_CONFIG.format(
        llm_script=llm_script, sim_script=sim_script))
    config = load_config(path)
    sim = make_simulator_factory(config)()
    assert sim.run_test("d", "t") == Report(5, 2)
    assert sim.compile("d", "t") == CompileError("boom")
    assert sim.coverage("d", "t").percent == 91.5


def test_mock_factories_give_fresh_instances(tmp_path, scripts):
    llm_script, sim_script = scripts
    path = write_config(tmp_path, GOOD_CONFIG.format(
        llm_script=llm_script, sim_script=sim_script))
    config = load_config(path)
    sim_factory = make_simulator_factory(config)
    a, b = sim_factory(), sim_factory()
    a.compile("d", "t")
    # b replays from the top regardless of a's cursor
    assert b.compile("d", "t") is None
    llm_factory = make_chat_client_factory(config)
    assert llm_factory() is not llm_factory()


def test_empty_file_loads_the_defaults(tmp_path):
    assert load_config(write_config(tmp_path, "")) == Config()


def test_values_are_literal_percent_signs_included(tmp_path):
    path = write_config(tmp_path, "[simulator]\n"
                                  "compile_command = cc -D PCT=50% -o {out} {dut} {tb}\n")
    assert load_config(path).simulator.compile_command == \
        "cc -D PCT=50% -o {out} {dut} {tb}"


def test_config_that_is_not_utf8_is_a_config_error(tmp_path):
    path = tmp_path / "tbforge.ini"
    path.write_bytes(b"[llm]\nmodel = caf\xe9\n")
    with pytest.raises(ConfigError, match=f"bad config file {path}: 'utf-8' codec"):
        load_config(path)


@pytest.mark.parametrize("section,key,value,match", [
    ("sampling", "temperatures", "0.2, -0.5", "sampling temperatures must be"),
    ("sampling", "max_tokens", "0", "sampling max_tokens must be >= 1"),
    ("sampling", "n", "1", "sampling n must be >= 2"),
    ("simulator", "compile_command", 'cc "-o {out} {dut} {tb}', "No closing quotation"),
    ("simulator", "compile_command", "cc -o {out} {dut} {tb} {0}", "bad compile_command"),
    ("simulator", "run_command", "run {out} {dut.name}", "bad run_command"),
    ("simulator", "coverage_command", "cover {dut} {tb} }", "bad coverage_command"),
])
def test_setting_that_would_fail_a_later_call_fails_at_load(tmp_path, section, key,
                                                            value, match):
    path = write_config(tmp_path, f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=match):
        load_config(path)


# A valid value other than the default for every key the loader accepts:
# (INI text, typed value).
NON_DEFAULT = {
    ("llm", "backend"): ("mock", "mock"),
    ("llm", "endpoint"): ("http://localhost:9/v1", "http://localhost:9/v1"),
    ("llm", "model"): ("other-model", "other-model"),
    ("llm", "api_key_env"): ("OTHER_KEY", "OTHER_KEY"),
    ("llm", "max_tokens"): ("512", 512),
    ("llm", "retries"): ("5", 5),
    ("llm", "backoff_seconds"): ("0.25", 0.25),
    ("llm", "temperature"): ("0.7", 0.7),
    ("llm", "request_timeout"): ("9.5", 9.5),
    ("llm", "mock_script"): ("llm.json", "llm.json"),
    ("simulator", "backend"): ("mock", "mock"),
    ("simulator", "compile_command"): ("cc -o {out} {dut} {tb}", "cc -o {out} {dut} {tb}"),
    ("simulator", "run_command"): ("run {out}", "run {out}"),
    ("simulator", "coverage_command"): ("cover {dut} {tb}", "cover {dut} {tb}"),
    ("simulator", "timeout"): ("12", 12.0),
    ("simulator", "mock_script"): ("sim.json", "sim.json"),
    ("pipeline", "max_draft_attempts"): ("5", 5),
    ("pipeline", "max_improve_attempts"): ("6", 6),
    ("pipeline", "max_rectify_iterations"): ("7", 7),
    ("pipeline", "coverage_threshold"): ("75.5", 75.5),
    ("pipeline", "skip_coverage"): ("yes", True),
    ("sampling", "n"): ("4", 4),
    ("sampling", "temperatures"): ("0.1, 0.9", (0.1, 0.9)),
    ("sampling", "top_p"): ("0.5", 0.5),
    ("sampling", "top_k"): ("7", 7),
    ("sampling", "max_tokens"): ("256", 256),
    ("sampling", "max_pairs_per_spec"): ("9", 9),
    ("paths", "workdir_root"): ("work", "work"),
}


def _with(config, section, key, value):
    """``config`` with the field an INI key fills set to ``value``."""
    if key == "max_pairs_per_spec":
        return dataclasses.replace(config, max_pairs_per_spec=value)
    owner = "simulator" if section == "paths" else section
    part = dataclasses.replace(getattr(config, owner), **{key: value})
    return dataclasses.replace(config, **{owner: part})


@pytest.mark.parametrize("section,key", [
    (section, key) for section, keys in ini_schema().items() for key in keys])
def test_each_key_lands_on_its_field(tmp_path, section, key):
    text, value = NON_DEFAULT[section, key]
    ini = f"[{section}]\n{key} = {text}\n"
    before = Config()
    if key == "backend":  # a mock backend needs its script
        ini += "mock_script = script.json\n"
        before = _with(before, section, "mock_script", "script.json")
    after = _with(before, section, key, value)
    assert after != before
    assert load_config(write_config(tmp_path, ini)) == after


@pytest.mark.parametrize("section,key", [("paths", "compile_command"),
                                         ("simulator", "workdir_root")])
def test_key_in_another_section_is_unknown(tmp_path, section, key):
    path = write_config(tmp_path, f"[{section}]\n{key} = x\n")
    with pytest.raises(ConfigError, match=rf"unknown keys in \[{section}\]: {key}"):
        load_config(path)


def test_readme_ini_block_loads_and_names_every_key(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
    config = load_config(write_config(tmp_path, block))
    assert config.llm.temperature == 0.0
    assert config.simulator.backend == "command"
    assert config.sampling.n == 2
    parser = configparser.ConfigParser()
    parser.read_string(block)
    assert {section: set(parser[section]) for section in parser.sections()} == {
        section: set(keys) for section, keys in ini_schema().items()}
