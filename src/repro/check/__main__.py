"""``python -m repro.check`` — the static-analysis command line.

Modes (combinable; every requested pass runs, findings are merged):

- ``--db PATH``       verify the generated delta code of a persisted
                      database (the emission the backend installs);
- ``--preflight FILE`` / ``--preflight-text SQL``
                      pre-flight a BiDEL script (against ``--db``'s
                      catalog when given, else an empty catalog);
- ``--lint [ROOT]``   run the project lint.

Exit status is non-zero iff any **error**-severity finding was reported
(warnings never fail the gate), which is what the CI ``static-analysis``
job keys on.
"""

from __future__ import annotations

import argparse
import sys

from repro.check.diagnostics import Diagnostic, error_count


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Static analysis: delta-code verification, BiDEL "
                    "pre-flight, project lint.",
    )
    parser.add_argument(
        "--db", metavar="PATH",
        help="SQLite database with a persisted catalog: verify its "
             "generated delta code",
    )
    parser.add_argument(
        "--preflight", metavar="FILE",
        help="BiDEL script file to analyze before execution",
    )
    parser.add_argument(
        "--preflight-text", metavar="SQL",
        help="BiDEL script passed inline",
    )
    parser.add_argument(
        "--lint", nargs="?", const="", metavar="ROOT",
        help="run the project lint (optionally over ROOT instead of the "
             "installed repro package)",
    )
    return parser


def run(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (args.db or args.preflight or args.preflight_text
            or args.lint is not None):
        _parser().print_usage(sys.stderr)
        print("error: nothing to do — pass --db, --preflight, or --lint",
              file=sys.stderr)
        return 2

    findings: list[Diagnostic] = []
    engine = None
    if args.db:
        import sqlite3

        from repro.backend import codegen
        from repro.check import delta
        from repro.check.diagnostics import record_findings
        from repro.core.engine import InVerDa
        from repro.errors import CatalogError
        from repro.persist.recovery import database_has_catalog, recover
        from repro.persist.store import CatalogStore

        if not database_has_catalog(args.db):
            raise CatalogError(f"{args.db!r} carries no persisted catalog")
        # A plain handle, not repro.open: an open would resume an in-flight
        # online MATERIALIZE, repair drifted delta code and leave a mark.
        # Checking a database never mutates it and always verifies in full.
        handle = sqlite3.connect(args.db, timeout=5.0)
        try:
            engine = InVerDa()
            state = recover(engine, handle)
            delta_findings = delta.verify_delta_code(engine, connection=handle)
            delta_findings += delta.verify_transitional_objects(
                handle, CatalogStore(handle)
            )
            marked = state.verified.get("digest") == delta.verified_digest(
                state.log_digest,
                (state.generation, codegen.EMISSION_STAMP),
                codegen.installed_objects(handle),
            )
        finally:
            handle.close()
        record_findings(engine, delta_findings, scope="cli")
        findings += delta_findings
        print(f"delta code: {len(delta_findings)} finding(s) over "
              f"{len(engine.version_names())} schema version(s) "
              f"({len(engine.genealogy.retired)} retired)")
        print("verified-at mark: "
              + ("matches this file" if marked else "absent or stale"))

    script = None
    if args.preflight:
        with open(args.preflight, encoding="utf-8") as handle:
            script = handle.read()
    elif args.preflight_text:
        script = args.preflight_text
    if script is not None:
        from repro.check.preflight import preflight_script

        preflight_findings = preflight_script(engine, script)
        findings += preflight_findings
        print(f"pre-flight: {len(preflight_findings)} finding(s)")

    if args.lint is not None:
        from repro.check.lint import run_project_lint

        lint_findings = run_project_lint(args.lint or None)
        findings += lint_findings
        print(f"lint: {len(lint_findings)} finding(s)")

    for diagnostic in findings:
        print(diagnostic.render())
    errors = error_count(findings)
    print(f"{len(findings)} finding(s), {errors} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(run())
