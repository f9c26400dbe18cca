"""Prompt templates for the testbench pipeline.

The five stage prompts ship verbatim as template files; they are part of the
method, not incidental strings. Placeholders are written ``{Name}`` and are
substituted textually, so literal braces in the prompt bodies (JSON
examples, begin/end skeletons) need no escaping. Rendering fails when a
placeholder in the body is left unfilled or an unknown one is supplied.
"""

from __future__ import annotations

import re
from enum import Enum
from importlib import resources

from tbforge.errors import TemplateError


class TemplateName(Enum):
    GenerateFunctionPoints = "generate_function_points"
    GenerateTestCases = "generate_test_cases"
    DraftTestbench = "draft_testbench"
    ImproveTestbench = "improve_testbench"
    RectifyTestbench = "rectify_testbench"


PLACEHOLDERS = ("Code", "Specification", "Simulation", "CoverageReport",
                "PreviousTestbench", "ErrorLog")

_PLACEHOLDER_RE = re.compile("{(" + "|".join(PLACEHOLDERS) + ")}")


def template_body(name: TemplateName) -> str:
    path = resources.files("tbforge.llm") / "templates" / f"{name.value}.txt"
    return path.read_text(encoding="utf-8")


def render_text(body: str, **values: str) -> str:
    """Substitute {Name} placeholders in a prompt body."""
    present = set(_PLACEHOLDER_RE.findall(body))
    unknown = set(values) - set(PLACEHOLDERS)
    if unknown:
        raise TemplateError(f"unknown placeholders: {sorted(unknown)}")
    missing = present - set(values)
    if missing:
        raise TemplateError(f"unfilled placeholders: {sorted(missing)}")
    out = body
    for key in present:
        out = out.replace("{" + key + "}", values[key])
    return out


def render(name: TemplateName, **values: str) -> str:
    return render_text(template_body(name), **values)


# Feedback messages used inside an ongoing stage conversation. These are
# toolkit plumbing, not shipped stage prompts.

DRAFT_COMPILE_FEEDBACK = """\
The testbench failed to compile. Below is the previous testbench:
{PreviousTestbench}

Below is the compilation error log:
{ErrorLog}

Fix the compilation errors and return the complete regenerated testbench.
"""

SCAFFOLD_FEEDBACK = """\
The testbench is missing required reporting scaffolding: {ErrorLog}
It must print the "===========TestCases===========" banner, one Expected and
one Actual $display line per test case, and end the simulation with $finish.
Return the complete regenerated testbench following the required template.
"""

IMPROVE_COMPILE_FEEDBACK = """\
The improved testbench failed to compile. Below is the coverage report you
were improving against:
{CoverageReport}

Below is the compilation error log:
{ErrorLog}

Fix the compilation errors and return the complete regenerated testbench.
"""

JSON_REASK = """\
Your previous response could not be parsed as the requested JSON. Respond
again with only the JSON object, with no surrounding prose.
"""
