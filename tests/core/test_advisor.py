"""The materialization advisor (the paper's 'imaginable' tool, Sec. 8.2)."""

import pytest

from repro.core.advisor import (
    WorkloadProfile,
    recommend_materialization,
    score_schema,
)
from repro.catalog.materialization import enumerate_valid_materializations
from tests.conftest import build_paper_tasky


@pytest.fixture
def genealogy():
    return build_paper_tasky().engine.genealogy


def _kinds(schema):
    return {smo.smo_type for smo in schema}


class TestRecommendations:
    def test_pure_tasky_workload_keeps_initial(self, genealogy):
        profile = WorkloadProfile(reads={"TasKy": 100}, writes={"TasKy": 50})
        recommendation = recommend_materialization(genealogy, profile)
        assert _kinds(recommendation.schema) == set()
        assert recommendation.physical_tables == ("Task",)

    def test_pure_tasky2_workload_moves_to_decomposed(self, genealogy):
        profile = WorkloadProfile(reads={"TasKy2": 100}, writes={"TasKy2": 50})
        recommendation = recommend_materialization(genealogy, profile)
        assert _kinds(recommendation.schema) == {"Decompose", "RenameColumn"}

    def test_pure_do_workload_moves_to_split(self, genealogy):
        profile = WorkloadProfile(reads={"Do!": 100}, writes={"Do!": 10})
        recommendation = recommend_materialization(genealogy, profile)
        assert _kinds(recommendation.schema) == {"Split", "DropColumn"}

    def test_mixed_workload_ranks_all_schemas(self, genealogy):
        profile = WorkloadProfile(reads={"TasKy": 50, "TasKy2": 50})
        recommendation = recommend_materialization(genealogy, profile)
        assert len(recommendation.ranking) == 5
        costs = [cost for cost, _ in recommendation.ranking]
        assert costs == sorted(costs)

    def test_zero_workload_prefers_smallest_schema(self, genealogy):
        recommendation = recommend_materialization(genealogy, WorkloadProfile())
        assert recommendation.cost == 0.0
        assert recommendation.schema == frozenset()


class TestCostModel:
    def test_matching_schema_costs_zero(self, genealogy):
        profile = WorkloadProfile(reads={"TasKy": 10})
        assert score_schema(genealogy, frozenset(), profile) == 0.0

    def test_distance_grows_along_chain(self, genealogy):
        profile = WorkloadProfile(reads={"Do!": 10})
        schemas = {
            frozenset(_kinds(s)): s for s in enumerate_valid_materializations(genealogy)
        }
        at_initial = score_schema(genealogy, schemas[frozenset()], profile)
        at_split = score_schema(genealogy, schemas[frozenset({"Split"})], profile)
        at_do = score_schema(
            genealogy, schemas[frozenset({"Split", "DropColumn"})], profile
        )
        assert at_do < at_split < at_initial

    def test_writes_cost_more_than_reads(self, genealogy):
        reads_only = WorkloadProfile(reads={"TasKy2": 10})
        writes_only = WorkloadProfile(writes={"TasKy2": 10})
        schema = frozenset()
        assert score_schema(genealogy, schema, writes_only) > score_schema(
            genealogy, schema, reads_only
        )

    def test_advisor_recommendation_actually_faster(self):
        """End to end: applying the recommendation speeds up the workload."""
        import time

        scenario = build_paper_tasky()
        scenario.connect("TasKy").executemany(
            "INSERT INTO Task(author, task, prio) VALUES ('X', 'bulk', ?)", [(2,)] * 200
        )
        profile = WorkloadProfile(reads={"TasKy2": 100})
        recommendation = recommend_materialization(
            scenario.engine.genealogy, profile
        )

        def read_cost():
            start = time.perf_counter()
            tasky2 = scenario.connect("TasKy2")
            for _ in range(5):
                tasky2.execute("SELECT * FROM Task").fetchall()
            return time.perf_counter() - start

        before = read_cost()
        scenario.engine.apply_materialization(recommendation.schema)
        after = read_cost()
        assert after < before
