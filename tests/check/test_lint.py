"""The project lint (RPC3xx): each rule fires on a seeded violation,
suppressions work, and the shipped codebase itself is clean."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.check.lint import run_project_lint

ROOT = Path(__file__).resolve().parents[2]


def lint_source(tmp_path, source: str, relname: str = "pkg/mod.py"):
    path = tmp_path / relname
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_project_lint(tmp_path)


class TestSqlFstrings:
    def test_sql_fstring_flagged_rpc301(self, tmp_path):
        findings = lint_source(
            tmp_path,
            '''
            def bad(name):
                return f"SELECT * FROM {name}"
            ''',
        )
        assert [d.code for d in findings] == ["RPC301"]

    def test_error_message_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            '''
            def ok(name):
                return f"cannot SELECT from {name}: no such table"
            ''',
        )
        assert findings == []

    def test_builder_packages_exempt(self, tmp_path):
        findings = lint_source(
            tmp_path,
            '''
            def emit(name):
                return f"SELECT * FROM {name}"
            ''',
            relname="backend/emit2.py",
        )
        assert findings == []

    def test_no_interpolation_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            '''
            SQL = f"SELECT 1"
            ''',
        )
        assert findings == []


class TestGenerationLock:
    def test_unlocked_mutation_flagged_rpc302(self, tmp_path):
        findings = lint_source(
            tmp_path,
            '''
            def bump(engine):
                engine.catalog_generation += 1
            ''',
        )
        assert [d.code for d in findings] == ["RPC302"]

    def test_locked_mutation_ok(self, tmp_path):
        findings = lint_source(
            tmp_path,
            '''
            def bump(engine):
                with engine.catalog_lock.write_locked():
                    engine.catalog_generation += 1
            ''',
        )
        assert findings == []

    def test_mutation_in_a_transition_ok(self, tmp_path):
        findings = lint_source(
            tmp_path,
            '''
            def bump(engine):
                with engine._transition("drop", version="v1"):
                    engine.catalog_generation += 1
            ''',
        )
        assert findings == []

    def test_unlocked_tuple_unpacking_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            '''
            def restore(engine, saved):
                (engine.tables, engine.catalog_generation) = saved
            ''',
        )
        assert [d.code for d in findings] == ["RPC302"]

    def test_suppression_comment(self, tmp_path):
        findings = lint_source(
            tmp_path,
            '''
            def bump(engine):
                engine.catalog_generation = 0  # repro-lint: allow(RPC302)
            ''',
        )
        assert findings == []

    def test_suppression_on_previous_line(self, tmp_path):
        findings = lint_source(
            tmp_path,
            '''
            def bump(engine):
                # repro-lint: allow(RPC302)
                engine.catalog_generation = 0
            ''',
        )
        assert findings == []


class TestMetricsRegistry:
    def test_direct_family_instantiation_flagged_rpc303(self, tmp_path):
        findings = lint_source(
            tmp_path,
            '''
            def make():
                return Counter("x", "help")
            ''',
        )
        assert [d.code for d in findings] == ["RPC303"]

    def test_series_access_flagged_rpc303(self, tmp_path):
        findings = lint_source(
            tmp_path,
            '''
            def poke(metric):
                return metric._series
            ''',
        )
        assert [d.code for d in findings] == ["RPC303"]


class TestShippedCodebase:
    def test_repro_package_is_clean(self):
        findings = run_project_lint()
        assert findings == [], "\n".join(d.render() for d in findings)

    def test_the_harnesses_are_clean(self):
        """The harness code beside the package stays under the lint: the
        ``bench_*.py`` experiments, their workloads, the soak, and
        ``tests/testing``.  ``benchmarks/e2e`` never was: its tests count
        with ``collections.Counter``, a name RPC303 reserves."""
        findings = [
            d
            for root in (ROOT / "benchmarks", ROOT / "tests" / "testing")
            for d in run_project_lint(root)
            if not d.obj.startswith("benchmarks/e2e/")
        ]
        assert findings == [], "\n".join(d.render() for d in findings)
