"""Exceptions shared across the package."""

__all__ = ["RrocError", "DataError", "ConfigError"]


class RrocError(Exception):
    """Base class for all errors raised by this package."""


class DataError(RrocError):
    """Invalid numeric input: wrong shape, non-finite values, empty data."""


class ConfigError(RrocError):
    """Invalid configuration: unknown options, missing columns, bad specs."""


def _shown(value, to_text=repr) -> str:
    """``to_text(value)`` for an error message, cut to at most 40 characters.

    An int past Python's limit for int-to-str conversion (4,300 digits by
    default) has no text; it shows as ``<int too long to print>``.
    """
    try:
        text = to_text(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"
    return text if len(text) <= 40 else text[:37] + "..."
