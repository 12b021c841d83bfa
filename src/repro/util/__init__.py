"""Small shared utilities: identifier handling."""

from repro.util.naming import check_identifier, quote_identifier

__all__ = [
    "check_identifier",
    "quote_identifier",
]
