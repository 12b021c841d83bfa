"""The four workloads: what each runs on, its statement mix, its size,
and why it is in the benchmark.

Sizes are per second of ``--seconds`` on the quiet 2-core sandbox (the
steady phase of a run then lasts about ``--seconds``); the operation
counts are a fixed function of ``--seconds``, never of the clock, so a
seed always produces the same statements.
"""

from __future__ import annotations

from harness import Workload
from opgen import Mix
from scenarios import ChainScenario, OrdersScenario

WORKLOADS = (
    Workload(
        name="chain_read",
        why=(
            "95% reads over an 8-SMO chain, pins 4 hops either side of the data: "
            "view evaluation and the sql front end dominate, triggers barely run"
        ),
        scenario=ChainScenario,
        scenario_args=(1500,),
        transport="inproc",
        mix=Mix(read_share=0.95),
        rounds_per_second=0.6,
        operations_per_round=1332,
    ),
    Workload(
        name="chain_write",
        why=(
            "85% writes on the same chain: the INSTEAD OF trigger cascade does "
            "nearly all the work; what an index buys chain_read must pay here"
        ),
        scenario=ChainScenario,
        scenario_args=(1000,),
        transport="inproc",
        mix=Mix(read_share=0.15),
        rounds_per_second=0.8,
        operations_per_round=336,
    ),
    Workload(
        name="wire_oltp",
        why=(
            "cheap order-entry statements over TCP, 1 hop from the data, every "
            "tenth op a pipeline: server and sql layers dominate, the chain does not"
        ),
        scenario=OrdersScenario,
        scenario_args=(),
        transport="wire",
        mix=Mix(read_share=0.60, pin_weights=(2, 1, 1), pipeline_every=10),
        rounds_per_second=2.0,
        operations_per_round=1000,
    ),
    Workload(
        name="evolve_churn",
        why=(
            "the steady phase is a stream of evolve/drop/move transitions between "
            "statements: core, regenerate, persist and plan invalidation dominate"
        ),
        scenario=ChainScenario,
        scenario_args=(1000,),
        transport="inproc",
        mix=Mix(read_share=0.50),
        # 18 statements after each cycle: three reads and three writes per
        # pin, so that a class median does not sit on the edge between the
        # statements that re-plan after the invalidation and those that
        # find their plan again.
        rounds_per_second=1.2,
        operations_per_round=18,
        cycles_per_round=5,
        move_every=15,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


def rounds_for(workload: Workload, seconds: float) -> int:
    """Steady rounds of a run: a multiple of three (each pin gets the
    per-round batch equally often), at least three."""
    return max(1, round(workload.rounds_per_second * seconds / 3.0)) * 3
