"""What the ``bench_*.py`` files share: a result table, timing helpers,
and the command line of a paper artifact's bench file."""

from __future__ import annotations

import argparse
import time
from collections.abc import Callable
from dataclasses import dataclass, field


@dataclass
class ExperimentResult:
    """Rows of one regenerated table/figure plus free-form notes."""

    experiment: str
    title: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *values) -> None:
        self.rows.append(tuple(values))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def format(self) -> str:
        header = f"{self.title} [{self.experiment}]"
        lines = [header, "=" * len(header)]
        widths = [len(name) for name in self.columns]
        rendered_rows = []
        for row in self.rows:
            rendered = tuple(_render_cell(value) for value in row)
            rendered_rows.append(rendered)
            for index, cell in enumerate(rendered):
                widths[index] = max(widths[index], len(cell))
        lines.append("  ".join(name.ljust(widths[i]) for i, name in enumerate(self.columns)))
        lines.append("  ".join("-" * widths[i] for i in range(len(self.columns))))
        for rendered in rendered_rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(rendered)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _render_cell(value) -> str:
    if isinstance(value, float):
        if value >= 100:
            return f"{value:.1f}"
        if value >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def time_call(fn: Callable[[], object], *, repeat: int = 3) -> float:
    """Median wall-clock seconds of ``fn`` over ``repeat`` calls."""
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


def time_once(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main(run: Callable[..., ExperimentResult], paper_scale: dict, argv: list[str] | None = None) -> int:
    """Print the rows of ``run()``: laptop-scaled by default, with the
    paper's workload sizes (``paper_scale``) under ``--paper-scale``."""
    parser = argparse.ArgumentParser(description="Regenerate one of the paper's tables or figures.")
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="run with paper-sized workloads (slow; defaults are scaled down)",
    )
    args = parser.parse_args(argv)
    print(run(**(paper_scale if args.paper_scale else {})).format())
    return 0
