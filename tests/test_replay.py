"""Both mock backends replay their script one way."""

import json
from contextlib import nullcontext

import pytest

from tbforge.config import Config, make_chat_client_factory, make_simulator_factory
from tbforge.errors import ScriptExhausted
from tbforge.llm import ChatRequest, LlmSettings, Message, MockChatClient
from tbforge.sim.backends import MockSimulator
from tbforge.sim.config import SimulatorConfig
from tbforge.sim.outcomes import CompileError

REQUEST = ChatRequest(messages=(Message("user", "u"),))

# double: (class, script, config factory as a context, one call, what each
# call returns, what ``calls`` records for each call)
DOUBLES = {
    "chat": (MockChatClient, ["first", "second", "third"],
             lambda path: make_chat_client_factory(
                 Config(llm=LlmSettings(backend="mock", mock_script=path))),
             lambda double: double.complete_once(REQUEST),
             ["first", "second", "third"], REQUEST),
    "simulator": (MockSimulator, [{"kind": "compile"},
                                  {"kind": "compile", "ok": False, "log": "e"},
                                  {"kind": "compile"}],
                  lambda path: nullcontext(make_simulator_factory(Config(
                      simulator=SimulatorConfig(backend="mock", mock_script=path)))),
                  lambda double: double.compile("d", "t"),
                  [None, CompileError("e"), None], "compile"),
}


@pytest.mark.parametrize("kind", DOUBLES)
def test_double_replays_its_script_once_in_order(tmp_path, kind):
    cls, script, factory, call, returns, recorded = DOUBLES[kind]
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script), encoding="utf-8")
    with factory(str(path)) as make:
        first, second = make(), make()
    assert type(first) is cls
    for double in (first, second):  # each replays the whole shared script
        assert [call(double) for _ in script] == returns
        assert double.calls == [recorded] * len(script)
        with pytest.raises(ScriptExhausted):
            call(double)
        assert double.calls == [recorded] * (len(script) + 1)
    assert first._script is second._script
    with pytest.raises(ValueError, match="nonempty"):
        cls([])
