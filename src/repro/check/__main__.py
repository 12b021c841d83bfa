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
        import repro
        from repro.check.delta import verify_delta_code
        from repro.check.diagnostics import record_findings

        # resume_backfill=None: static inspection must neither resume nor
        # roll back an in-flight online-MATERIALIZE journal — it reports
        # on the transitional state instead (RPC107).
        engine = repro.open(args.db, create=False, resume_backfill=None)
        try:
            backend = engine.live_backend
            delta_findings = verify_delta_code(
                engine, connection=getattr(backend, "connection", None)
            )
            if backend is not None and hasattr(backend, "store"):
                from repro.check.delta import verify_transitional_objects

                delta_findings += verify_transitional_objects(
                    backend.connection, backend.store
                )
            record_findings(engine, delta_findings, scope="cli")
            findings += delta_findings
            print(f"delta code: {len(delta_findings)} finding(s) over "
                  f"{len(engine.version_names())} schema version(s)")
        finally:
            backend = engine.live_backend
            if args.preflight is None and args.preflight_text is None:
                if backend is not None:
                    backend.close()
                engine = None

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
        if engine is not None and engine.live_backend is not None:
            engine.live_backend.close()

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
