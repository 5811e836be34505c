"""Error types shared across the package.

Each error carries a short machine code, so load_instance can report which
gate rejected a file, and an exit status that its type alone fixes: the CLI
exits with `err.exit_status`, whatever sub-code the error was raised under.
"""


class SfonlineError(Exception):
    """Base class; `code` is a short machine-readable tag."""

    code = "E_GENERIC"
    exit_status = 1

    def __init__(self, message, code=None):
        super().__init__(message)
        if code is not None:
            self.code = code


class FormatError(SfonlineError):
    """Malformed instance file or trace (bad header, non-integer, bad pair)."""

    code = "E_FORMAT"
    exit_status = 3


class MetricError(SfonlineError):
    """Distance matrix violates the metric requirements."""

    code = "E_METRIC"
    exit_status = 4


class ConfigError(SfonlineError):
    """Invalid run/generator configuration."""

    code = "E_CONFIG"
    exit_status = 2


class OracleLimitError(SfonlineError):
    """Exact-optimum request beyond the configured pair limit."""

    code = "E_ORACLE_LIMIT"
    exit_status = 5
