import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tbforge.errors import (
    MalformedJson,
    RateLimited,
    RequestRejected,
    ScriptExhausted,
    TemplateError,
    TransportError,
)
from tbforge.llm import (
    ChatRequest,
    Message,
    MockChatClient,
    TemplateName,
    complete,
    extract_code_block,
    parse_function_points,
    parse_json_points,
    parse_testcases,
    render,
    render_text,
    template_body,
)
from tbforge.llm import prompts
from tbforge.llm.prompts import (
    DRAFT_COMPILE_FEEDBACK,
    IMPROVE_COMPILE_FEEDBACK,
    PLACEHOLDERS,
    TOOL_TEXT,
    TOOL_TEXT_LIMIT,
)


def _req(text="hello"):
    return ChatRequest(messages=(Message("user", text),))


# ---- client ----

def test_mock_returns_scripted_text():
    client = MockChatClient(["module testbench; endmodule"])
    assert complete(client, _req(), retries=3, backoff=0) == "module testbench; endmodule"


def test_retry_then_success():
    client = MockChatClient([TransportError("x"), TransportError("y"), "ok"])
    assert complete(client, _req(), retries=3, backoff=0) == "ok"
    assert len(client.calls) == 3


def test_transport_error_after_retries():
    client = MockChatClient([TransportError("x")] * 3)
    with pytest.raises(TransportError):
        complete(client, _req(), retries=3, backoff=0)


def test_rate_limited_then_success_is_retried():
    client = MockChatClient([RateLimited("slow down"), "ok"])
    assert complete(client, _req(), retries=5, backoff=0) == "ok"
    assert len(client.calls) == 2


def test_rate_limited_on_every_attempt_ends_in_transport_error():
    client = MockChatClient([RateLimited("slow down")] * 4)
    with pytest.raises(TransportError, match="after 3 attempts"):
        complete(client, _req(), retries=3, backoff=0)
    assert len(client.calls) == 3


def test_rejected_request_not_retried():
    client = MockChatClient([RequestRejected("400"), "never reached"])
    with pytest.raises(RequestRejected):
        complete(client, _req(), retries=5, backoff=0)
    assert len(client.calls) == 1
    # The CLI maps TransportError to exit code 3; a rejection keeps it.
    assert issubclass(RequestRejected, TransportError)


def test_mock_script_exhaustion():
    client = MockChatClient(["only one"])
    complete(client, _req(), retries=3, backoff=0)
    with pytest.raises(ScriptExhausted):
        complete(client, _req(), retries=3, backoff=0)


def test_chat_request_validation():
    with pytest.raises(ValueError):
        ChatRequest(messages=(Message("system", "s"),))
    with pytest.raises(ValueError):
        ChatRequest(messages=(Message("user", "u"),), max_tokens=0)
    with pytest.raises(ValueError):
        Message("robot", "x")


# ---- templates ----

def test_all_templates_load():
    for name in TemplateName:
        assert template_body(name).strip()


def test_render_fills_placeholders():
    text = render(TemplateName.DraftTestbench, Code="module m; endmodule")
    assert "module m; endmodule" in text
    assert "{Code}" not in text


def test_render_missing_placeholder_fails():
    with pytest.raises(TemplateError):
        render(TemplateName.DraftTestbench)
    with pytest.raises(TemplateError):
        render(TemplateName.RectifyTestbench)


def test_render_unknown_placeholder_fails():
    with pytest.raises(TemplateError):
        render(TemplateName.GenerateTestCases, Bogus="x")


def test_render_deterministic():
    a = render(TemplateName.GenerateFunctionPoints, Specification="spec text")
    b = render(TemplateName.GenerateFunctionPoints, Specification="spec text")
    assert a == b


@pytest.mark.parametrize("key", PLACEHOLDERS)
def test_only_tool_text_is_cut_and_only_past_the_limit(key):
    body = "<{" + key + "}>"
    at_limit = "".join(chr(33 + i % 90) for i in range(TOOL_TEXT_LIMIT))
    assert render_text(body, **{key: at_limit}) == f"<{at_limit}>"
    longer = "head " + "x" * (3 * TOOL_TEXT_LIMIT) + " tail"
    rendered = render_text(body, **{key: longer})
    if key not in TOOL_TEXT:  # the code, the spec and the testbench stay whole
        assert rendered == f"<{longer}>"
        return
    assert len(rendered) <= TOOL_TEXT_LIMIT + 2
    assert rendered.startswith("<head x") and rendered.endswith("x tail>")
    assert rendered.count(" characters cut ...]\n") == 1


@pytest.mark.parametrize("feedback,first,second", [
    (DRAFT_COMPILE_FEEDBACK, "PreviousTestbench", "ErrorLog"),
    (IMPROVE_COMPILE_FEEDBACK, "CoverageReport", "ErrorLog"),
])
def test_a_value_naming_another_placeholder_goes_in_verbatim(feedback, first, second):
    # Verilog concatenations and model text can hold "{Name}"; a value is
    # never searched for placeholders, whatever the hash seed.
    values = {first: f"A {{{second}}} A", second: f"B {{{first}}} B"}
    rendered = render_text(feedback, **values)
    for value in values.values():
        assert rendered.count(value) == 1
    head, tail = feedback.split("{" + first + "}")
    middle, end = tail.split("{" + second + "}")
    assert rendered == head + values[first] + middle + values[second] + end


def test_every_placeholder_token_is_known_and_every_placeholder_used():
    # render leaves an unknown token in the prompt without error, so a
    # misspelled {Name} in a template or feedback constant must fail here.
    bodies = {name.value: template_body(name) for name in TemplateName}
    bodies.update((name, value) for name, value in vars(prompts).items()
                  if name.isupper() and isinstance(value, str))
    used = set()
    for name, body in bodies.items():
        tokens = set(re.findall(r"{([A-Z][A-Za-z]*)}", body))
        assert tokens <= set(PLACEHOLDERS), (name, sorted(tokens - set(PLACEHOLDERS)))
        used |= tokens
    assert used == set(PLACEHOLDERS)


def test_json_braces_in_bodies_survive_rendering():
    text = render(TemplateName.GenerateFunctionPoints, Specification="s")
    assert '"Point"' in text
    assert "{" in text


# ---- code extraction ----

def test_extract_fenced_verilog():
    response = "Here you go:\n```verilog\nmodule tb;\nendmodule\n```\nEnjoy."
    assert extract_code_block(response) == "module tb;\nendmodule\n"


def test_extract_prefers_matching_hint():
    response = ("```python\nprint('no')\n```\n"
                "```verilog\nmodule tb; endmodule\n```")
    assert "module tb" in extract_code_block(response)


def test_extract_first_fence_when_no_hint_match():
    response = "```\nmodule tb; endmodule\n```"
    assert "module tb" in extract_code_block(response)


def test_extract_bare_module_span():
    assert extract_code_block("module m; endmodule").startswith("module m;")


def test_extract_prose_returns_empty():
    assert extract_code_block("I am sorry, I cannot write Verilog today.") == ""


@given(st.text(max_size=400))
def test_extract_never_returns_fences(text):
    assert "```" not in extract_code_block(text)


# ---- JSON points ----

def _points_json(n):
    return json.dumps({
        str(i): {"Point": f"p{i}", "Scenario": f"s{i}", "Application": f"a{i}"}
        for i in range(1, n + 1)
    })


def test_parse_three_points():
    points = parse_function_points(_points_json(3))
    assert len(points) == 3
    assert points[0]["Point"] == "p1"


def test_parse_truncates_to_cap():
    cases = json.dumps({
        str(i): {"Title": f"t{i}", "Objective": "o", "Setup": "s", "Coverage": "c"}
        for i in range(1, 8)
    })
    parsed = parse_testcases(cases)
    assert len(parsed) == 5
    assert [c["Title"] for c in parsed] == ["t1", "t2", "t3", "t4", "t5"]


def test_parse_tolerates_prose_and_bare_int_keys():
    response = """Sure! Here are the points:
    {
      1: {"Point": "reset", "Scenario": "s", "Application": "a"},
      2: {"Point": "shift", "Scenario": "s", "Application": "a"}
    }
    Hope that helps."""
    points = parse_function_points(response)
    assert [p["Point"] for p in points] == ["reset", "shift"]


def test_parsed_entries_hold_the_template_keys_in_template_order():
    response = ('{"1": {"Coverage": 7, "Extra": "x", "Title": "t", "Setup": null}, '
                '"2": {"Point": ["p"], "Application": "a"}}')
    assert parse_testcases(response) == [
        {"Title": "t", "Objective": "", "Setup": "None", "Coverage": "7"},
        {"Title": "", "Objective": "", "Setup": "", "Coverage": ""}]
    assert [list(case) for case in parse_testcases(response)] == [
        ["Title", "Objective", "Setup", "Coverage"]] * 2
    points = parse_function_points(response)
    assert points[1] == {"Point": "['p']", "Scenario": "", "Application": "a"}
    assert list(points[0]) == ["Point", "Scenario", "Application"]


def test_parse_no_braces_raises():
    with pytest.raises(MalformedJson):
        parse_json_points("no json here", cap=3)


def test_parse_non_object_raises():
    with pytest.raises(MalformedJson):
        parse_json_points('{"1": "not an object"}', cap=3)


@pytest.mark.parametrize("key", ['"1"', "1"], ids=["quoted", "bare"])
def test_parse_nesting_past_the_recursion_limit_raises_malformed_json(key):
    # A bare key fails the first parse at once; the nesting then fails the
    # second, the one with the key quoted.
    deep = "[" * 3000 + "]" * 3000
    with pytest.raises(MalformedJson, match="^JSON object nested too deeply$"):
        parse_json_points(f"{{{key}: {deep}}}", cap=3)


@given(st.integers(min_value=1, max_value=12))
def test_parse_length_never_exceeds_cap(n):
    parsed = parse_json_points(_points_json(n), cap=5)
    assert len(parsed) <= 5


# ---- gated live smoke ----

@pytest.mark.skipif("TBFORGE_LLM_ENDPOINT" not in __import__("os").environ,
                    reason="set TBFORGE_LLM_ENDPOINT to run the live smoke test")
def test_live_endpoint_smoke():
    import os

    from tbforge.llm import HttpChatClient, LlmSettings

    settings = LlmSettings(endpoint=os.environ["TBFORGE_LLM_ENDPOINT"],
                           model=os.environ.get("TBFORGE_LLM_MODEL", ""))
    client = HttpChatClient(settings)
    text = complete(client, _req("Reply with the single word: ready"),
                    retries=settings.retries, backoff=settings.backoff_seconds)
    assert text.strip()
