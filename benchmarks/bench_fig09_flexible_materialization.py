"""Figure 9: fixed vs flexible materialization under shifting adoption."""

import statistics

from repro.bench.harness import get_experiment

#: One round's timings swing with the host; a strategy's median over
#: several rounds (each round runs all three strategies in turn) does not.
ROUNDS = 3


def test_fig9(benchmark, print_result):
    results = benchmark.pedantic(
        lambda: [
            get_experiment("fig9").run(num_tasks=300, slices=8, ops_per_slice=6)
            for _ in range(ROUNDS)
        ],
        rounds=1,
        iterations=1,
    )
    seconds: dict[str, list[float]] = {}
    for result in results:
        for strategy, _, total in result.rows:
            seconds.setdefault(strategy, []).append(total)
    by_strategy = {strategy: statistics.median(totals) for strategy, totals in seconds.items()}
    # The flexible strategy must not lose to the worse fixed choice.
    assert by_strategy["flexible"] <= max(by_strategy["fixed"], by_strategy["fixed-evolved"])
    print_result(results[-1])
