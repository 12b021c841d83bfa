"""BiDEL — the bidirectional database evolution language (Section 4).

The package contains the parser for the Figure-2 grammar and one semantics
module per SMO family. Each SMO's semantics object knows:

- how to evolve source table schemas into target table schemas;
- its two mapping functions ``γ_tgt``/``γ_src`` as instantiated Datalog
  rule sets (including all auxiliary tables) — the memory engine
  evaluates them, and the SQL views and triggers are generated from them;
- the symbolic rule sets used by the formal bidirectionality verifier.
"""

from repro.bidel.ast import (
    AddColumn,
    CreateSchemaVersion,
    CreateTable,
    Decompose,
    DropColumn,
    DropSchemaVersion,
    DropTable,
    Join,
    Materialize,
    Merge,
    RenameColumn,
    RenameTable,
    SmoNode,
    Split,
    Statement,
)
from repro.bidel.parser import parse_script, parse_smo

__all__ = [
    "parse_script",
    "parse_smo",
    "Statement",
    "SmoNode",
    "CreateSchemaVersion",
    "DropSchemaVersion",
    "Materialize",
    "CreateTable",
    "DropTable",
    "RenameTable",
    "RenameColumn",
    "AddColumn",
    "DropColumn",
    "Decompose",
    "Join",
    "Split",
    "Merge",
]
