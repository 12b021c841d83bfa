"""Experiment registry, timing helpers, and result formatting."""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import ReproError


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


@dataclass(frozen=True)
class Experiment:
    name: str
    title: str
    paper_artifact: str
    runner: Callable[..., ExperimentResult]
    quick_kwargs: dict = field(default_factory=dict)
    paper_kwargs: dict = field(default_factory=dict)

    def run(self, *, paper_scale: bool = False, **overrides) -> ExperimentResult:
        kwargs = dict(self.paper_kwargs if paper_scale else self.quick_kwargs)
        kwargs.update(overrides)
        return self.runner(**kwargs)


REGISTRY: dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    if experiment.name in REGISTRY:
        raise ReproError(f"duplicate experiment {experiment.name!r}")
    REGISTRY[experiment.name] = experiment
    return experiment


def get_experiment(name: str) -> Experiment:
    _ensure_loaded()
    try:
        return REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown experiment {name!r}; available: {sorted(REGISTRY)}"
        ) from None


def all_experiments() -> list[Experiment]:
    _ensure_loaded()
    return [REGISTRY[name] for name in sorted(REGISTRY)]


def _ensure_loaded() -> None:
    # Importing the experiment modules populates the registry.
    from repro.bench import experiments  # noqa: F401


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
