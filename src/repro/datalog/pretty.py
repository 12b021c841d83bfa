"""Pretty-printing of symbolic rule sets.

Used by ``examples/formal_verification.py`` to print a derivation in the
style of Section 5 of the paper.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.datalog.symbolic import SRule


def format_symbolic_rules(rules: Iterable[SRule], *, title: str | None = None) -> str:
    lines: list[str] = []
    if title:
        lines.append(title)
        lines.append("-" * len(title))
    for rule in rules:
        lines.append(f"  {rule}")
    return "\n".join(lines)
