"""Exception types shared across the toolkit."""


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


# --- LLM client ---

class TransportError(TbforgeError):
    pass


class RateLimited(TransportError):
    pass


class RequestRejected(TransportError):
    """The endpoint refused the request itself (a 4xx other than 408 and
    429); sending it again gets the same answer."""


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
