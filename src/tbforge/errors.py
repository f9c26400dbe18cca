"""Exception types shared across the toolkit, and the range check that
every settings record raises its ConfigError from."""

# The longest wait, in seconds, that every blocking call the toolkit makes
# accepts: poll() takes its timeout as a C int of milliseconds, so a longer
# subprocess timeout raises OverflowError and a longer socket timeout wraps
# around to a short one.
LONGEST_WAIT = (2**31 - 1) / 1000


class TbforgeError(Exception):
    """Base class for all toolkit errors."""


# --- Verilog frontend ---

class LexError(TbforgeError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"L{line}:{col}: {msg}")
        self.line = line
        self.col = col


class ParseError(TbforgeError):
    def __init__(self, msg: str, line: int):
        super().__init__(f"L{line}: {msg}")
        self.line = line


class ParseUnsupported(ParseError):
    """Construct outside the supported synthesizable subset."""


# --- generic input validation ---

class EmptyInput(TbforgeError):
    pass


# --- simulator harness ---

class UnparseableLog(TbforgeError):
    pass


class UnparseableReport(TbforgeError):
    pass


class ToolMissing(TbforgeError):
    pass


class ScriptExhausted(TbforgeError):
    pass


class ConfigError(TbforgeError):
    pass


def check_settings(section: str, rules) -> None:
    """Raise a ConfigError for the first ``(key, ok, rule)`` that is not ok,
    worded ``<section> <key> must be <rule>``."""
    for key, ok, rule in rules:
        if not ok:
            raise ConfigError(f"{section} {key} must be {rule}")


# --- LLM client ---

class TransportError(TbforgeError):
    pass


class RateLimited(TransportError):
    pass


class RequestRejected(TransportError):
    """The endpoint refused the request itself (a 4xx other than 408, 429
    and those of ``PromptRejected``), as it would every row's request;
    sending it again gets the same answer."""


class PromptRejected(TransportError):
    """The endpoint refused what one request carries (400, 413 or 422), as
    it may for one row's oversized prompt; sending it again gets the same
    answer, but another row's request may pass."""


class MalformedJson(TbforgeError):
    pass


class TemplateError(TbforgeError):
    pass


# --- metrics / preference math ---

class KExceedsN(TbforgeError):
    pass


class NonPositiveBeta(TbforgeError):
    pass


class IndexOutOfRange(TbforgeError):
    pass
