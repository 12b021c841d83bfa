"""Invariant probes: first-class objects watching a soak run.

Each probe observes one invariant the paper's co-existence story
promises to hold *while the schema keeps evolving*, collects evidence
through narrow event hooks during the run, and renders a verdict in
:meth:`Probe.finalize`.  Probes are deliberately independent of the
harness internals — every hook takes plain values — so the defect tests
in ``tests/soak/test_probes.py`` can drive them directly with seeded
broken histories and assert each one fires with the right report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

#: Probe registry: name -> factory.  ``python benchmarks/soak --probe`` and
#: the harness config select by these names.
PROBE_FACTORIES: dict[str, Callable[[], "Probe"]] = {}


def register(factory: type["Probe"]) -> type["Probe"]:
    PROBE_FACTORIES[factory.name] = factory
    return factory


def make_probes(names: list[str] | None = None) -> list["Probe"]:
    """Instantiate the selected probes (all of them when ``names`` is None)."""
    if names is None:
        return [factory() for factory in PROBE_FACTORIES.values()]
    unknown = [name for name in names if name not in PROBE_FACTORIES]
    if unknown:
        raise ValueError(
            f"unknown probe(s) {unknown}; available: {sorted(PROBE_FACTORIES)}"
        )
    return [PROBE_FACTORIES[name]() for name in names]


@dataclass
class ProbeReport:
    name: str
    ok: bool
    violations: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "violations": list(self.violations),
            "details": dict(self.details),
        }


class Probe:
    """Base probe: every hook is a no-op; subclasses override what they
    watch.  ``finalize`` receives the harness's closing evidence bundle
    (a :class:`FinalState`) and must return a :class:`ProbeReport`."""

    name = "probe"
    description = ""

    # -- events during the run --------------------------------------------

    def on_ack(self, version: str, table: str, order_no: int) -> None:
        """A client's INSERT was acknowledged (committed) by the live side."""

    def on_delete(self, version: str, order_no: int) -> None:
        """A client's DELETE was acknowledged for a row it had inserted."""

    def on_version_lost(self, version: str, error: BaseException, clean: bool) -> None:
        """A pinned session hit its version being dropped; ``clean`` means
        the client saw exactly an OperationalError (the documented
        contract), not a crash or a wrong error class."""

    def on_generation_sample(self, engine_value: int, gauge_value: float) -> None:
        """Periodic sample of ``engine.catalog_generation`` and the
        ``repro_catalog_generation`` gauge."""

    def on_op(self, start: float, end: float, kind: str) -> None:
        """A client operation completed (monotonic timestamps)."""

    def on_barrier(self, index: int, ok: bool, detail: str) -> None:
        """A differential sync barrier completed (or failed)."""

    # -- verdict -----------------------------------------------------------

    def finalize(self, final: "FinalState") -> ProbeReport:
        raise NotImplementedError


@dataclass
class FinalState:
    """The evidence bundle handed to every probe's ``finalize``.

    ``order_rows_by_version`` maps version name -> set of order_no values
    visible in that version's order tables on the *live* side;
    ``ddl_windows``/``barrier_windows`` are (start, end) monotonic spans.
    """

    order_rows_by_version: dict[str, set[int]]
    active_versions: list[str]
    engine_generation: int
    gauge_generation: float
    disk_generation: int | None
    ddl_windows: list[tuple[float, float]]
    barrier_windows: list[tuple[float, float]]
    p95_budget_ms: float
    delta_findings: list = field(default_factory=list)
    backfill_windows: list[tuple[float, float]] = field(default_factory=list)


@register
class NoLostWritesProbe(Probe):
    """Every acknowledged INSERT that was not later deleted by its owner
    must still be visible in the live database.

    Complementary split conditions guarantee each order row stays visible
    in *some* table of every surviving version, so the probe checks the
    union of all versions' order tables for each acked ``order_no``.
    """

    name = "lost-writes"
    description = "no acked write may vanish"

    def __init__(self) -> None:
        self.acked: dict[int, str] = {}  # order_no -> version written through
        self.deleted: set[int] = set()

    def on_ack(self, version: str, table: str, order_no: int) -> None:
        self.acked[order_no] = version

    def on_delete(self, version: str, order_no: int) -> None:
        self.deleted.add(order_no)

    def finalize(self, final: FinalState) -> ProbeReport:
        visible: set[int] = set()
        for rows in final.order_rows_by_version.values():
            visible |= rows
        expected = {no for no in self.acked if no not in self.deleted}
        lost = sorted(expected - visible)
        violations = [
            f"acked order_no {no} (written via {self.acked[no]!r}) is not "
            "visible in any surviving version" for no in lost[:20]
        ]
        if len(lost) > 20:
            violations.append(f"... and {len(lost) - 20} more lost writes")
        return ProbeReport(
            self.name,
            ok=not lost,
            violations=violations,
            details={
                "acked": len(self.acked),
                "deleted": len(self.deleted),
                "checked": len(expected),
                "lost": len(lost),
            },
        )


@register
class CleanDropProbe(Probe):
    """A session pinned to a dropped version must fail with a clean
    ``OperationalError`` — never a crash, a wrong error class, or silent
    misbehavior."""

    name = "clean-drop"
    description = "dropped-version sessions fail with OperationalError"

    def __init__(self) -> None:
        self.events: list[tuple[str, str, bool]] = []

    def on_version_lost(self, version: str, error: BaseException, clean: bool) -> None:
        self.events.append((version, f"{type(error).__name__}: {error}", clean))

    def finalize(self, final: FinalState) -> ProbeReport:
        dirty = [event for event in self.events if not event[2]]
        violations = [
            f"session pinned to dropped version {version!r} saw {error} "
            "instead of a clean OperationalError"
            for version, error, _ in dirty
        ]
        return ProbeReport(
            self.name,
            ok=not dirty,
            violations=violations,
            details={"drops_observed": len(self.events), "dirty": len(dirty)},
        )


@register
class MonotoneGenerationProbe(Probe):
    """``catalog_generation`` must only ever move forward, and the
    ``repro_catalog_generation`` gauge must track it."""

    name = "generation"
    description = "catalog_generation is monotone and mirrored by the gauge"

    def __init__(self) -> None:
        self.samples = 0
        self.regressions: list[tuple[int, int]] = []
        self.gauge_mismatches: list[tuple[int, float]] = []
        self._last: int | None = None

    def on_generation_sample(self, engine_value: int, gauge_value: float) -> None:
        self.samples += 1
        if self._last is not None and engine_value < self._last:
            self.regressions.append((self._last, engine_value))
        self._last = engine_value
        # The gauge is set under the same write lock that bumps the
        # counter, but a sampler may interleave between the two stores;
        # allow the gauge to trail by at most one transition.
        if not engine_value - 1 <= gauge_value <= engine_value:
            self.gauge_mismatches.append((engine_value, gauge_value))

    def finalize(self, final: FinalState) -> ProbeReport:
        violations = [
            f"catalog_generation regressed from {before} to {after}"
            for before, after in self.regressions[:10]
        ]
        for engine_value, gauge_value in self.gauge_mismatches[:10]:
            violations.append(
                f"repro_catalog_generation gauge read {gauge_value} while the "
                f"engine was at {engine_value}"
            )
        if final.gauge_generation != final.engine_generation:
            violations.append(
                f"final gauge {final.gauge_generation} != engine generation "
                f"{final.engine_generation}"
            )
        if (
            final.disk_generation is not None
            and final.disk_generation != final.engine_generation
        ):
            violations.append(
                f"on-disk generation {final.disk_generation} != engine "
                f"generation {final.engine_generation}"
            )
        return ProbeReport(
            self.name,
            ok=not violations,
            violations=violations,
            details={
                "samples": self.samples,
                "final_generation": final.engine_generation,
            },
        )


def percentile(values: list[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _overlaps(start: float, end: float, windows: list[tuple[float, float]]) -> bool:
    return any(start < w_end and end > w_start for w_start, w_end in windows)


@register
class BoundedLatencyProbe(Probe):
    """Client p95 latency during DDL windows must stay under the budget.

    DDL drains in-flight statements and blocks new ones for the length of
    one catalog transition; the co-existence promise is that this stall
    is bounded, not that it is zero.  Operations overlapping a *barrier*
    window are excluded — the differential pause is harness overhead, not
    system behavior.
    """

    name = "latency"
    description = "bounded p95 during DDL windows"

    def __init__(self) -> None:
        self.ops: list[tuple[float, float]] = []

    def on_op(self, start: float, end: float, kind: str) -> None:
        self.ops.append((start, end))

    def finalize(self, final: FinalState) -> ProbeReport:
        clear, during_ddl = [], []
        for start, end in self.ops:
            if _overlaps(start, end, final.barrier_windows):
                continue
            latency_ms = (end - start) * 1000.0
            if _overlaps(start, end, final.ddl_windows):
                during_ddl.append(latency_ms)
            else:
                clear.append(latency_ms)
        ddl_p95 = percentile(during_ddl, 0.95)
        violations = []
        if ddl_p95 > final.p95_budget_ms:
            violations.append(
                f"p95 during DDL windows is {ddl_p95:.1f} ms, over the "
                f"{final.p95_budget_ms:.0f} ms budget "
                f"({len(during_ddl)} ops in {len(final.ddl_windows)} windows)"
            )
        return ProbeReport(
            self.name,
            ok=not violations,
            violations=violations,
            details={
                "ops": len(self.ops),
                "ops_during_ddl": len(during_ddl),
                "p95_ms": round(percentile(clear, 0.95), 3),
                "ddl_p95_ms": round(ddl_p95, 3),
                "budget_ms": final.p95_budget_ms,
            },
        )


@register
class AvailabilityProbe(Probe):
    """Serving must keep flowing *through* an online-MATERIALIZE backfill.

    The harness runs ``MATERIALIZE ONLINE`` outside the stream write
    lock and records each move's (start, end) window.  Inside those
    windows client operations must keep completing — none erroring (an
    unexpected statement error crashes the harness outright) — with
    bounded p95.  Operations overlapping a *barrier* window are
    excluded: the differential pause is harness overhead, not system
    behavior.
    """

    name = "availability"
    description = "ops keep completing, bounded, during online backfills"

    #: A backfill window shorter than this can legitimately contain no
    #: completed op — tiny tables move in one chunk.
    MIN_SPAN_SECONDS = 0.5

    def __init__(self) -> None:
        self.ops: list[tuple[float, float]] = []

    def on_op(self, start: float, end: float, kind: str) -> None:
        self.ops.append((start, end))

    def finalize(self, final: FinalState) -> ProbeReport:
        during = []
        for start, end in self.ops:
            if _overlaps(start, end, final.barrier_windows):
                continue
            if _overlaps(start, end, final.backfill_windows):
                during.append((end - start) * 1000.0)
        span = sum(end - start for start, end in final.backfill_windows)
        violations = []
        if span > self.MIN_SPAN_SECONDS and not during:
            violations.append(
                f"no client op completed inside "
                f"{len(final.backfill_windows)} backfill window(s) spanning "
                f"{span:.2f}s — serving stalled during the online move"
            )
        backfill_p95 = percentile(during, 0.95)
        if backfill_p95 > final.p95_budget_ms:
            violations.append(
                f"p95 during online backfills is {backfill_p95:.1f} ms, over "
                f"the {final.p95_budget_ms:.0f} ms budget "
                f"({len(during)} ops in {len(final.backfill_windows)} windows)"
            )
        return ProbeReport(
            self.name,
            ok=not violations,
            violations=violations,
            details={
                "backfill_windows": len(final.backfill_windows),
                "backfill_seconds": round(span, 3),
                "ops_during_backfill": len(during),
                "backfill_p95_ms": round(backfill_p95, 3),
                "budget_ms": final.p95_budget_ms,
            },
        )


@register
class DifferentialProbe(Probe):
    """Every sync barrier must find the live SQLite state byte-identical
    (after canonical relabeling) to the replayed memory oracle."""

    name = "differential"
    description = "live state matches the memory oracle at every barrier"

    def __init__(self) -> None:
        self.barriers: list[tuple[int, bool, str]] = []

    def on_barrier(self, index: int, ok: bool, detail: str) -> None:
        self.barriers.append((index, ok, detail))

    def finalize(self, final: FinalState) -> ProbeReport:
        failed = [entry for entry in self.barriers if not entry[1]]
        violations = [
            f"barrier #{index} diverged: {detail}" for index, _, detail in failed
        ]
        return ProbeReport(
            self.name,
            ok=not failed,
            violations=violations,
            details={"barriers": len(self.barriers), "failed": len(failed)},
        )


@register
class DeltaVerifierProbe(Probe):
    """After the run, the static delta-code verifier must pass: no
    dangling views, no orphaned triggers, no drift between catalog and
    generated SQL."""

    name = "delta"
    description = "post-run check.delta verifier finds no errors"

    def finalize(self, final: FinalState) -> ProbeReport:
        errors = [
            finding for finding in final.delta_findings
            if getattr(finding, "severity", "error") == "error"
        ]
        violations = [str(finding) for finding in errors[:20]]
        return ProbeReport(
            self.name,
            ok=not errors,
            violations=violations,
            details={
                "findings": len(final.delta_findings),
                "errors": len(errors),
            },
        )
