"""Figure 12: optimization potential on the Wikimedia evolution.

Query an early version (the 28th, the paper's v04619) and the last version
(the 171st, v25635) under three materializations — the first, the 109th
(where the data is loaded, v16524), and the 171st version — and report the
query execution times. The paper observes up to two orders of magnitude
between matching and mismatching materializations.

    PYTHONPATH=src python benchmarks/bench_fig12_wikimedia.py [--paper-scale]
"""

from __future__ import annotations

import sys

from repro.sql.connection import connect
from repro.workloads.wikimedia import PAPER_VERSION_LABELS, build_wikimedia

from experiment import ExperimentResult, main, time_call


def run(scale: float = 0.005, versions: int = 171, repeat: int = 3) -> ExperimentResult:
    scenario = build_wikimedia(scale=scale, versions=versions)
    engine = scenario.engine
    total = len(scenario.version_names)
    query_indices = [min(28, total), total]
    materialization_indices = [1, min(109, total), total]

    result = ExperimentResult(
        experiment="fig12",
        title="Figure 12: Wikimedia query time by materialized version (ms)",
        columns=("queries on", "materialized", "table", "ms"),
    )
    for mat_index in materialization_indices:
        mat_version = scenario.version_at(mat_index)
        engine.execute(f"MATERIALIZE '{mat_version}';")
        for query_index in query_indices:
            query_version = scenario.version_at(query_index)
            cursor = connect(engine, query_version, autocommit=True).cursor()
            for table, _desc in scenario.template_queries(query_version):
                query = f"SELECT * FROM {table}"
                ms = time_call(lambda: cursor.execute(query).fetchall(), repeat=repeat) * 1000
                result.add(
                    f"{query_version} ({PAPER_VERSION_LABELS.get(query_index, '-')})",
                    f"{mat_version} ({PAPER_VERSION_LABELS.get(mat_index, '-')})",
                    table,
                    ms,
                )
    result.note(
        "paper shape: queries are fastest when the materialized version "
        "matches the queried one; long forward chains of ADD COLUMN are "
        "asymmetrically expensive"
    )
    result.note(f"scale={scale} of the Akan wiki (14,359 pages / 536,283 links)")
    return result


def test_fig12(benchmark, print_result):
    result = benchmark.pedantic(
        lambda: run(scale=0.002, versions=60),
        rounds=1,
        iterations=1,
    )
    assert result.rows
    print_result(result)


if __name__ == "__main__":
    sys.exit(main(run, {"scale": 1.0, "versions": 171}))
