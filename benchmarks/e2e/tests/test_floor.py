import pytest

import floor
from harness import Section


def test_cal_factor_scales_to_the_nominal_kernel():
    nominal = floor.CAL_NOMINAL_MS
    assert floor.cal_factor(nominal, nominal) == pytest.approx(1.0)
    # A host twice as slow halves every sample taken on it.
    assert floor.cal_factor(2 * nominal, 2 * nominal) == pytest.approx(0.5)
    assert floor.cal_factor(nominal, 3 * nominal) == pytest.approx(0.5)


def test_probe_calibration_divides_by_the_neighbouring_probes():
    nominal_s = floor.PROBE_NOMINAL_MS / 1000.0
    assert floor.probe_calibrated(0.010, nominal_s, nominal_s) == pytest.approx(0.010)
    assert floor.probe_calibrated(0.010, 2 * nominal_s, 2 * nominal_s) == pytest.approx(0.005)
    assert floor.probe_calibrated(0.010, nominal_s, 3 * nominal_s) == pytest.approx(0.005)


def test_unsteady_threshold_is_twenty_percent_either_way():
    assert not floor.unsteady(10.0, 11.9)
    assert not floor.unsteady(11.9, 10.0)
    assert floor.unsteady(10.0, 12.1)
    assert floor.unsteady(12.1, 10.0)


def test_unsteady_sections_are_executed_but_not_timed_in():
    section = Section()
    nominal = floor.CAL_NOMINAL_MS
    section.add(1.0, nominal, nominal)
    section.add(5.0, nominal, 2 * nominal)      # the kernel moved: dropped
    section.add(3.0, 2 * nominal, 2 * nominal)  # slow but steady: kept, halved
    assert section.dropped == 1
    assert section.timed_in() == [0, 2]
    assert section.walls() == [1.0, 3.0]
    assert section.calibrated() == pytest.approx([1.0, 1.5])


def test_a_host_that_never_holds_still_keeps_every_sample():
    section = Section()
    nominal = floor.CAL_NOMINAL_MS
    section.add(1.0, nominal, 2 * nominal)
    section.add(2.0, 2 * nominal, nominal)
    section.add(3.0, nominal, nominal)
    assert section.dropped == 2
    assert section.timed_in() == [0, 1, 2]


def test_kernel_reading_and_probe(tmp_path):
    kernel = floor.Floor(str(tmp_path / "floor.db"))
    try:
        assert kernel.readings == []          # the warm-up reading is not kept
        value = kernel.reading()
        assert value > 0 and kernel.readings == [value]
        assert 0 < kernel.probe() < 1.0
        kernel.load_plain(("k", "note"), {"local": [(1, "a"), (2, "b")], "fwd": [(1, "a")]})
        count = kernel.connection.execute("SELECT count(*) FROM plain_local").fetchone()[0]
        assert count == 2
        journal, sync = (
            kernel.connection.execute(f"PRAGMA {name}").fetchone()[0]
            for name in ("journal_mode", "synchronous")
        )
        assert (journal, sync) == ("wal", 1)  # the pool's flush policy
    finally:
        kernel.close()
