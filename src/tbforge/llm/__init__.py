"""Chat-completion client, stage prompt templates, response post-processing."""

from tbforge.llm.client import (
    ChatRequest,
    HttpChatClient,
    LlmSettings,
    Message,
    MockChatClient,
    complete,
)
from tbforge.llm.prompts import TemplateName, render, render_text, template_body
from tbforge.llm.postprocess import (
    extract_code_block,
    parse_function_points,
    parse_json_points,
    parse_testcases,
)

__all__ = [
    "ChatRequest",
    "HttpChatClient",
    "LlmSettings",
    "Message",
    "MockChatClient",
    "complete",
    "TemplateName",
    "render",
    "render_text",
    "template_body",
    "extract_code_block",
    "parse_function_points",
    "parse_json_points",
    "parse_testcases",
]
