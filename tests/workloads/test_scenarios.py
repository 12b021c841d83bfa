import pytest

import repro
from repro.errors import ReproError
from repro.workloads.tasky import build_tasky
from repro.workloads.wikimedia import TABLE4_HISTOGRAM, build_wikimedia
from micro import (
    TWO_SMO_FIRST,
    TWO_SMO_SECOND,
    V3_READ_TABLE,
    build_two_smo_scenario,
)
from mixes import PAPER_MIX, WorkloadMix, adoption_curve
from tests.conftest import keyed, rows


def count(engine, version, table, where="TRUE"):
    cursor = repro.connect(engine, version).execute(f"SELECT * FROM {table} WHERE {where}")
    return cursor.rowcount


class TestTaskyScenario:
    def test_row_count(self):
        scenario = build_tasky(100)
        assert count(scenario.engine, "TasKy", "Task") == 100

    def test_deterministic_given_seed(self):
        a = rows(build_tasky(20, seed=7).engine, "TasKy", "SELECT * FROM Task ORDER BY task")
        b = rows(build_tasky(20, seed=7).engine, "TasKy", "SELECT * FROM Task ORDER BY task")
        assert a == b

    def test_without_branches(self):
        scenario = build_tasky(5, with_do=False, with_tasky2=False)
        assert scenario.engine.version_names() == ["TasKy"]


class TestMixes:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WorkloadMix(0.5, 0.5, 0.5, 0.5)

    def test_paper_mix(self):
        assert PAPER_MIX.reads == 0.5
        assert PAPER_MIX.deletes == 0.1

    def test_adoption_curve_shape(self):
        curve = adoption_curve(11)
        assert curve[0] < 0.05
        assert curve[-1] > 0.95
        assert curve == sorted(curve)  # monotone


class TestTwoSmoScenarios:
    @pytest.mark.parametrize("first", sorted(TWO_SMO_FIRST))
    def test_v2_always_contains_r_abc(self, first):
        engine = build_two_smo_scenario(first, "add_column", rows=30)
        description = repro.connect(engine, "v2").execute("SELECT * FROM R").description
        assert tuple(column[0] for column in description) == ("a", "b", "c")

    @pytest.mark.parametrize("second", sorted(TWO_SMO_SECOND))
    def test_v3_readable_under_all_materializations(self, second):
        engine = build_two_smo_scenario("split", second, rows=30)
        table = V3_READ_TABLE[second]
        baseline = keyed(engine, "v3", table)
        for target in ("v2", "v3", "v1"):
            engine.execute(f"MATERIALIZE '{target}';")
            assert keyed(engine, "v3", table) == baseline, target

    def test_unknown_names_rejected(self):
        with pytest.raises(ReproError):
            build_two_smo_scenario("nope", "add_column")
        with pytest.raises(ReproError):
            build_two_smo_scenario("split", "nope")


class TestWikimediaScenario:
    @pytest.fixture(scope="class")
    def scenario(self):
        return build_wikimedia(scale=0.001, versions=171)

    def test_exact_histogram(self, scenario):
        assert scenario.smo_histogram() == TABLE4_HISTOGRAM

    def test_171_versions(self, scenario):
        assert len(scenario.version_names) == 171

    def test_core_tables_survive(self, scenario):
        engine, last = scenario.engine, scenario.version_at(171)
        assert count(engine, "v001", "page") == count(engine, last, "page")
        assert count(engine, "v001", "links") == count(engine, last, "links")

    def test_write_at_late_version_visible_early(self, scenario):
        late = repro.connect(scenario.engine, scenario.version_at(100), autocommit=True)
        late_columns = [column[0] for column in late.execute("SELECT * FROM page").description]
        row = {name: 1 for name in late_columns if name != "title"}
        row["title"] = "RoundTrip"
        late.execute(
            f"INSERT INTO page({', '.join(row)}) VALUES ({', '.join('?' * len(row))})",
            tuple(row.values()),
        )
        assert count(scenario.engine, "v001", "page", "title = 'RoundTrip'") == 1

    def test_deterministic(self):
        a = build_wikimedia(scale=0.001, versions=30, seed=5)
        b = build_wikimedia(scale=0.001, versions=30, seed=5)
        assert a.plan == b.plan
