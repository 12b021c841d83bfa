"""Project lint (RPC3xx): AST-enforced codebase invariants.

Three rules, each guarding an invariant the test suite cannot see:

- **RPC301** — SQL must be assembled by the quoting helpers.  An
  f-string whose literal prefix *starts with* a SQL statement keyword
  and interpolates values is flagged outside the designated SQL-builder
  packages.  Error messages that merely *mention* SQL keywords
  mid-sentence are not flagged.
- **RPC302** — the catalog generation may only move under the RWLock
  write side: an assignment to ``…catalog_generation`` (also as one
  target of a tuple unpacking) must be lexically inside a
  ``with …write_locked()`` block or a ``with …_transition(…)`` block,
  the engine's catalog transition, which takes the write lock.
- **RPC303** — metric series exist only inside the fixed-series
  registry: outside ``repro/obs/metrics.py`` nothing may touch a
  ``._series`` mapping or instantiate a metric family class directly.

A finding is suppressed by ``# repro-lint: allow(CODE)`` on the same
line or the line above — every suppression is a reviewed, documented
exception.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.check.diagnostics import Diagnostic

#: Packages allowed to build SQL text with f-strings — each owns a
#: dialect's serialization discipline the rest of the codebase must
#: delegate to: ``backend``/``sqlgen`` quote through emit/naming,
#: ``bidel`` is the BiDEL unparse serializer (a dialect with no quoting
#: at all), ``persist`` interpolates only its fixed ``_repro_catalog_*``
#: object names.
SQL_BUILDER_PACKAGES = ("backend", "sqlgen", "bidel", "persist")

#: Code that simulates *user applications*: the workload scenarios and
#: everything under ``benchmarks/`` (the paper's experiments, the soak).
#: Its SQL is this repo's test traffic against the public statement API
#: — and, for the soak, preflight-gated BiDEL scripts — not
#: engine-emitted SQL, so the emit-helper rule does not apply.
SQL_CLIENT_PACKAGES = ("workloads", "benchmarks")

_SQL_HEAD = re.compile(
    r"^\s*(SELECT|INSERT|UPDATE|DELETE|CREATE|DROP|ALTER|SAVEPOINT|"
    r"RELEASE|ROLLBACK|PRAGMA|ATTACH|DETACH|VACUUM|REINDEX)\b"
)

_SUPPRESS = re.compile(r"#\s*repro-lint:\s*allow\(([A-Z0-9, ]+)\)")

_METRIC_CLASSES = frozenset({
    "Counter", "Gauge", "Histogram", "MetricFamily",
    "_Counter", "_Gauge", "_Histogram",
})


def _suppressions(lines: list[str]) -> dict[int, set[str]]:
    """Line number (1-based) -> codes suppressed at that line."""
    allowed: dict[int, set[str]] = {}
    for number, line in enumerate(lines, start=1):
        match = _SUPPRESS.search(line)
        if match:
            codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
            allowed.setdefault(number, set()).update(codes)
            allowed.setdefault(number + 1, set()).update(codes)
    return allowed


class _FileLinter(ast.NodeVisitor):
    def __init__(self, path: Path, relpath: str, tree: ast.AST,
                 lines: list[str]):
        self.relpath = relpath
        exempt = (*SQL_BUILDER_PACKAGES, *SQL_CLIENT_PACKAGES)
        self.is_sql_builder = any(
            part in exempt for part in Path(relpath).parts
        )
        self.is_metrics_module = relpath.endswith("obs/metrics.py")
        self.allowed = _suppressions(lines)
        self.findings: list[Diagnostic] = []
        # Line ranges of `with ...write_locked()...:` and
        # `with ..._transition(...):` bodies — the only places an
        # RPC302-guarded mutation is legal.
        self.write_locked_ranges: list[tuple[int, int]] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = ast.unparse(item.context_expr)
                    if "write_locked" in expr or "._transition(" in expr:
                        self.write_locked_ranges.append(
                            (node.lineno, node.end_lineno or node.lineno)
                        )
                        break
        self._tree = tree

    def run(self) -> list[Diagnostic]:
        self.visit(self._tree)
        return self.findings

    def _report(self, code: str, line: int, message: str) -> None:
        if code in self.allowed.get(line, ()):
            return
        self.findings.append(
            Diagnostic(code, "error", f"{self.relpath}:{line}", message)
        )

    # -- RPC301 ---------------------------------------------------------

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        if not self.is_sql_builder:
            has_interpolation = any(
                isinstance(value, ast.FormattedValue) for value in node.values
            )
            prefix = ""
            if node.values and isinstance(node.values[0], ast.Constant):
                prefix = str(node.values[0].value)
            if has_interpolation and _SQL_HEAD.match(prefix):
                self._report(
                    "RPC301", node.lineno,
                    "SQL assembled with an f-string outside the "
                    "quoting-helper packages; route identifiers through "
                    "repro.backend.emit / repro.util.naming instead",
                )
        self.generic_visit(node)

    # -- RPC302 ---------------------------------------------------------

    def _check_generation_target(self, target: ast.expr, line: int) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_generation_target(element, line)
        elif isinstance(target, ast.Starred):
            self._check_generation_target(target.value, line)
        elif (isinstance(target, ast.Attribute)
                and target.attr == "catalog_generation"):
            inside = any(
                start <= line <= end
                for start, end in self.write_locked_ranges
            )
            if not inside:
                self._report(
                    "RPC302", line,
                    "catalog_generation mutated outside a "
                    "`with ...write_locked()` or `with ..._transition(...)` block",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_generation_target(target, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_generation_target(node.target, node.lineno)
        self.generic_visit(node)

    # -- RPC303 ---------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not self.is_metrics_module and node.attr == "_series":
            self._report(
                "RPC303", node.lineno,
                "metric series storage accessed outside the registry; "
                "use the counter()/gauge()/histogram() families",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if not self.is_metrics_module:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else ""
            )
            if name in _METRIC_CLASSES:
                self._report(
                    "RPC303", node.lineno,
                    f"metric family {name!r} instantiated directly; "
                    "register series via MetricsRegistry instead",
                )
        self.generic_visit(node)


def default_root() -> Path:
    """The ``src/repro`` package this module was imported from."""
    return Path(__file__).resolve().parent.parent


def run_project_lint(root: str | Path | None = None) -> list[Diagnostic]:
    """Lint every Python file under ``root`` (default: the installed
    ``repro`` package) and return the findings."""
    base = Path(root) if root is not None else default_root()
    findings: list[Diagnostic] = []
    for path in sorted(base.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            findings.append(Diagnostic(
                "RPC301", "error", f"{path.name}:{exc.lineno or 0}",
                f"file does not parse: {exc.msg}",
            ))
            continue
        relpath = str(path.relative_to(base.parent))
        linter = _FileLinter(path, relpath, tree, text.splitlines())
        findings.extend(linter.run())
    return findings
