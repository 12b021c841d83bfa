"""Continuous-evolution soak testing: randomized SMO streams under live
mixed workloads, differentially checked against the memory oracle.

Entry points:

- :class:`SoakConfig` / :func:`run_soak` — programmatic API;
- ``python benchmarks/soak`` — the CLI (seeded, JSON reports, one-command
  failure replay);
- :data:`soak.probes.PROBE_FACTORIES` — the invariant probe catalog.

Import it with ``src``, ``benchmarks`` and the repository root on the
path (the comparison and the fault injectors live in ``tests.testing``).
"""

from soak.harness import SoakConfig, SoakHarness, run_soak
from soak.probes import PROBE_FACTORIES, FinalState, Probe, ProbeReport, make_probes
from soak.stream import SmoStream

__all__ = [
    "FinalState",
    "PROBE_FACTORIES",
    "Probe",
    "ProbeReport",
    "SmoStream",
    "SoakConfig",
    "SoakHarness",
    "make_probes",
    "run_soak",
]
