"""Small shared utilities: code metrics, identifier handling."""

from repro.util.codemetrics import CodeMetrics, measure_code
from repro.util.naming import check_identifier, quote_identifier

__all__ = [
    "CodeMetrics",
    "measure_code",
    "check_identifier",
    "quote_identifier",
]
