"""repro — reproduction of "Living in Parallel Realities: Co-Existing
Schema Versions with a Bidirectional Database Evolution Language"
(Herrmann, Voigt, Behrend, Rausch, Lehner; SIGMOD 2017).

Public entry points:

- :class:`InVerDa` — the engine: execute BiDEL scripts and migrate the
  physical table schema with one call.
- :func:`connect` — a PEP-249 (DB-API) connection to one schema version:
  cursors, SQL with ``?`` parameter binding, commit/rollback.
- :func:`open` — reopen a SQLite file whose catalog was persisted by a
  previous process: replays the stored BiDEL log, verifies fingerprints,
  and returns a ready engine serving every schema version again.
- :func:`serve` / :func:`connect_remote` — the same connection surface
  over TCP: a threaded wire-protocol server and its client driver.
- :func:`parse_script` / :func:`parse_smo` — the BiDEL parser.
- :mod:`repro.verification` — formal (symbolic) and runtime
  bidirectionality checks.
- :mod:`repro.workloads` — the TasKy, Wikimedia and orders scenarios.

The package is the product.  The paper's evaluation lives beside it:
``benchmarks/bench_*.py`` regenerate its tables and figures (one file
each), ``benchmarks/e2e/`` is the end-to-end benchmark and
``benchmarks/soak/`` the continuous-evolution soak.
"""

from repro.bidel import parse_script, parse_smo
from repro.core import InVerDa
from repro.errors import ReproError
from repro.persist.recovery import open_database as open
from repro.server import ReproServer, connect_remote, serve
from repro.sql import Connection, Cursor, connect

__version__ = "1.6.0"

__all__ = [
    "InVerDa",
    "connect",
    "open",
    "connect_remote",
    "serve",
    "ReproServer",
    "Connection",
    "Cursor",
    "parse_script",
    "parse_smo",
    "ReproError",
    "__version__",
]
