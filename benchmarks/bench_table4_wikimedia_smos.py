"""Table 4: SMO histogram of the 211-SMO Wikimedia evolution (timed unit:
building the 171 schema versions).

    PYTHONPATH=src python benchmarks/bench_table4_wikimedia_smos.py [--paper-scale]
"""

from __future__ import annotations

import sys

from repro.workloads.wikimedia import TABLE4_HISTOGRAM, build_wikimedia

from experiment import ExperimentResult, main


def run(scale: float = 0.001, versions: int = 171) -> ExperimentResult:
    scenario = build_wikimedia(scale=scale, versions=versions)
    histogram = scenario.smo_histogram()
    result = ExperimentResult(
        experiment="table4",
        title="Table 4: SMO usage in the Wikimedia database evolution",
        columns=("SMO", "occurrences", "paper"),
    )
    for kind, paper_count in TABLE4_HISTOGRAM.items():
        result.add(kind, histogram.get(kind, 0), paper_count)
    result.add("TOTAL", sum(histogram.values()), sum(TABLE4_HISTOGRAM.values()))
    result.note(
        f"{len(scenario.version_names)} schema versions built; synthetic "
        "history with the paper's exact histogram (see workloads.wikimedia)"
    )
    return result


def test_table4(benchmark, print_result):
    scenario = benchmark.pedantic(
        lambda: build_wikimedia(scale=0.001, versions=171), rounds=1, iterations=1
    )
    assert scenario.smo_histogram() == TABLE4_HISTOGRAM
    assert len(scenario.version_names) == 171
    print_result(run())


if __name__ == "__main__":
    sys.exit(main(run, {"scale": 1.0, "versions": 171}))
