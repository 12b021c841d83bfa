"""Design ablations: whole-extent vs key-restricted reads; keyed vs whole-extent put."""

from repro.bench.harness import get_experiment


def test_ablation(benchmark, print_result):
    result = benchmark.pedantic(
        lambda: get_experiment("ablation").run(num_tasks=1000, writes=20),
        rounds=1,
        iterations=1,
    )
    by_case = {}
    for case, variant, ms in result.rows:
        by_case.setdefault(case, {})[variant] = ms
    writes = by_case[next(k for k in by_case if "inserts" in k)]
    assert writes["keyed put"] <= writes["whole-extent put"]
    print_result(result)
