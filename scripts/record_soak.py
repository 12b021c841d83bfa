"""Record the soak trajectory point: one seeded soak phase per transport
with every probe live, written to ``BENCH_soak.json`` at the repo root
via ``benchmarks/record.py``.

The numbers that matter across PRs: sustained mixed-workload throughput
while the SMO stream keeps evolving the catalog, and the client p95
inside DDL windows (the bounded-stall promise).  Exits non-zero if any
phase fails a probe — the trajectory point is still written, because the
numbers matter most when the run goes red.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks"), ROOT]

import record  # noqa: E402 - needs the benchmarks/ path above
from soak import SoakConfig, run_soak  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--duration", type=float, default=10.0)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--smo-rate", type=float, default=0.5)
    args = parser.parse_args(argv)

    phases = []
    ok = True
    for transport in ("inproc", "tcp"):
        report = run_soak(
            SoakConfig(
                seed=args.seed,
                duration=args.duration,
                clients=args.clients,
                smo_rate=args.smo_rate,
                transport=transport,
            )
        )
        ok &= report["ok"]
        stats = report["stats"]
        latency = next(
            (p["details"] for p in report["probes"] if p["name"] == "latency"), {}
        )
        phase = {
            "transport": transport,
            "ok": report["ok"],
            "ops": stats["ops"],
            "ops_per_sec": stats["ops_per_sec"],
            "smo_executed": stats["smo_executed"],
            "barriers": stats["barriers"],
            "final_versions": len(stats["final_versions"]),
            "p95_ms": latency.get("p95_ms"),
            "ddl_p95_ms": latency.get("ddl_p95_ms"),
        }
        phases.append(phase)
        print(
            f"[{transport}] {'OK' if report['ok'] else 'FAIL'}: "
            f"{phase['ops_per_sec']} ops/s, {phase['smo_executed']} SMOs, "
            f"p95 {phase['p95_ms']} ms (DDL windows {phase['ddl_p95_ms']} ms)"
        )
        if not report["ok"]:
            print(f"  replay: {report['repro_command']}", file=sys.stderr)

    path = record.record(
        "soak",
        {
            "seed": args.seed,
            "duration_s": args.duration,
            "clients": args.clients,
            "smo_rate": args.smo_rate,
            "phases": phases,
        },
    )
    print(f"recorded {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
