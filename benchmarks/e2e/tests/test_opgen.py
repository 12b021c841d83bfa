from collections import Counter

import pytest

from opgen import (
    BATCH_ROWS, CLASSES, MAX_OUTSTANDING, PIPELINE, PIPELINE_STATEMENTS, RANGE_ROWS,
    Mix, OpGenerator, deal,
)
from scenarios import ChainScenario, OrdersScenario, Shadow


def chain_generator(seed, mix=Mix(read_share=0.5)):
    scenario = ChainScenario(300)
    rows = [(i, i % 7, i % 13, f"n{i}") for i in range(300)]
    return OpGenerator(scenario, Shadow(scenario, rows), seed, mix)


def test_deal_is_exact_and_proportional():
    assert deal(10, (1, 1, 1)) == [4, 3, 3]
    assert deal(8, (2, 1, 1)) == [4, 2, 2]
    assert deal(0, (1, 1)) == [0, 0]
    assert sum(deal(1001, (2, 1, 1))) == 1001


def test_same_seed_same_operations():
    first, second = chain_generator(15), chain_generator(15)
    for _ in range(3):
        assert first.round(120) == second.round(120)
    assert first.batch(1) == second.batch(1)
    assert first.shadow.rows == second.shadow.rows


def test_another_seed_other_operations_same_counts():
    first, second = chain_generator(15), chain_generator(16)
    a, b = first.round(300), second.round(300)
    assert a != b
    assert Counter(op[0] for op in a) == Counter(op[0] for op in b)
    assert set(Counter(op[0] for op in a).values()) == {50}  # 6 classes, dealt evenly


def test_mix_shares():
    ops = chain_generator(1, Mix(read_share=0.95)).round(1200)
    reads = [op for op in ops if op[0] < 3]
    assert len(reads) == 1140
    ranges = [op for op in reads if len(op[3]) == 2]
    assert len(ranges) == round(0.2 * 380) * 3
    assert all(len(op[4]) == RANGE_ROWS for op in ranges)


def test_writes_keep_the_tables_stationary():
    generator = chain_generator(3, Mix(read_share=0.0))
    before = len(generator.shadow.rows)
    for _ in range(20):
        generator.round(300)
    assert all(len(keys) <= MAX_OUTSTANDING for keys in generator.outstanding)
    assert len(generator.shadow.rows) - before == sum(map(len, generator.outstanding))


def test_inserted_rows_satisfy_the_pins_split_conditions():
    generator = chain_generator(4, Mix(read_share=0.0))
    for cls, pin, sql, params, _expect in generator.round(600):
        if sql.startswith("INSERT"):
            assert generator.pins[pin].primary.member(params)


def test_pipelines_every_tenth_operation():
    scenario = OrdersScenario()
    rows = [(f"t{i % 4:02d}", i, 1 + i % 9, i % 2) for i in range(400)]
    mix = Mix(read_share=0.6, pin_weights=(2, 1, 1), pipeline_every=10)
    generator = OpGenerator(scenario, Shadow(scenario, rows), 15, mix)
    ops = generator.round(1000)
    pipelines = [op for op in ops if op[0] == PIPELINE]
    assert len(ops) == 1000 and len(pipelines) == 100
    assert all(len(op[3]) == PIPELINE_STATEMENTS == len(op[4]) for op in pipelines)
    assert [i for i, op in enumerate(ops) if op[0] == PIPELINE][:3] == [9, 19, 29]
    assert Counter(op[1] for op in pipelines) == {0: 50, 1: 25, 2: 25}
    singles = Counter(op[1] for op in ops if op[0] != PIPELINE)
    assert singles[0] == pytest.approx(450, abs=1)


def test_batch_rotates_over_the_pins():
    generator = chain_generator(15)
    pins = [generator.batch(index)[0] for index in range(6)]
    assert pins == [0, 1, 2, 0, 1, 2]
    _pin, _insert, rows, _delete, (low, high) = generator.batch(6)
    assert len(rows) == BATCH_ROWS == high - low
    assert len(CLASSES) == 6
