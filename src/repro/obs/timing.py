"""The timing primitive: a reusable, lap-recording stopwatch."""

from __future__ import annotations

import time
from dataclasses import dataclass, field


def ms_since(started: float) -> float:
    """Milliseconds since the ``time.perf_counter()`` reading ``started``,
    to the microsecond — the unit of every reported phase split."""
    return round((time.perf_counter() - started) * 1000, 3)


@dataclass
class Stopwatch:
    """Accumulating stopwatch with laps; usable as a context manager.

    ``reset()`` also discards a *pending* (unfinished) section, so a
    stopwatch abandoned mid-``start()`` can be reused cleanly.
    """

    elapsed: float = 0.0
    laps: list[float] = field(default_factory=list)
    _started_at: float | None = None

    def start(self) -> "Stopwatch":
        self._started_at = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._started_at is None:
            raise RuntimeError("Stopwatch.stop() without a matching start()")
        lap = time.perf_counter() - self._started_at
        self._started_at = None
        self.elapsed += lap
        self.laps.append(lap)
        return lap

    def reset(self) -> None:
        self.elapsed = 0.0
        self.laps.clear()
        self._started_at = None

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed * 1000.0

    @property
    def running(self) -> bool:
        return self._started_at is not None

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
