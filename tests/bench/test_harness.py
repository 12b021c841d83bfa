"""The experiments of the ``bench_*.py`` files run end to end at tiny scale,
and their result table formats."""

import bench_ablation
import bench_codegen_latency
import bench_fig08_overhead
import bench_fig09_flexible_materialization
import bench_fig10_flexible_materialization_3way
import bench_fig11_materialization_matrix
import bench_fig12_wikimedia
import bench_fig13_two_smo_scaling
import bench_table2_materializations
import bench_table3_code_size
import bench_table4_wikimedia_smos
from experiment import ExperimentResult
from micro import TWO_SMO_FIRST


class TestResultFormatting:
    def test_format_contains_rows_and_notes(self):
        result = ExperimentResult("x", "Title", ("a", "b"))
        result.add("one", 1.5)
        result.note("a note")
        text = result.format()
        assert "Title" in text and "one" in text and "a note" in text

    def test_float_rendering(self):
        result = ExperimentResult("x", "T", ("v",))
        result.add(1234.5678)
        result.add(0.1234)
        text = result.format()
        assert "1234.6" in text and "0.1234" in text


class TestExperimentSmoke:
    """Tiny-scale smoke runs proving every experiment executes end to end."""

    def test_table2(self):
        result = bench_table2_materializations.run()
        assert len(result.rows) == 5

    def test_table3(self):
        result = bench_table3_code_size.run()
        assert len(result.rows) == 6

    def test_table4(self):
        result = bench_table4_wikimedia_smos.run(scale=0.001, versions=40)
        assert result.rows[-1][0] == "TOTAL"

    def test_fig8(self):
        result = bench_fig08_overhead.run(num_tasks=200, writes=5, repeat=1)
        # 2 materializations x (2 reads + 2 writes) x 3 implementations.
        assert len(result.rows) == 24
        implementations = {row[1] for row in result.rows}
        assert implementations == {
            "BiDEL (memory)",
            "BiDEL (SQLite)",
            "SQL (handwritten)",
        }

    def test_fig9(self):
        result = bench_fig09_flexible_materialization.run(num_tasks=100, slices=3, ops_per_slice=3)
        assert len(result.rows) == 3

    def test_fig10(self):
        result = bench_fig10_flexible_materialization_3way.run(num_tasks=100, slices=3, ops_per_slice=3)
        assert len(result.rows) == 4

    def test_fig11(self):
        result = bench_fig11_materialization_matrix.run(num_tasks=100, ops=3)
        assert len(result.rows) == 15

    def test_fig12(self):
        result = bench_fig12_wikimedia.run(scale=0.001, versions=12, repeat=1)
        assert result.rows

    def test_fig13(self):
        result = bench_fig13_two_smo_scaling.run(sizes=(50,), repeat=1)
        assert len(result.rows) == len(TWO_SMO_FIRST)

    def test_codegen(self):
        result = bench_codegen_latency.run(num_tasks=200)
        assert all(row[1] < 10_000 for row in result.rows)

    def test_ablation(self):
        result = bench_ablation.run(num_tasks=200, writes=5)
        assert len(result.rows) == 4
