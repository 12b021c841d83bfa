"""Fixtures of the pytest-benchmark wrappers in the ``bench_*.py`` files.

Each benchmark file regenerates one table/figure of the paper; the timed
unit is a representative operation of that experiment, and the full result
rows are attached to the benchmark's ``extra_info`` and printed once.
"""

import pytest


@pytest.fixture(scope="session")
def print_result():
    printed = set()

    def _print(result):
        if result.experiment not in printed:
            printed.add(result.experiment)
            print("\n" + result.format())

    return _print
