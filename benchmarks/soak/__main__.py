"""``python benchmarks/soak`` — run the continuous-evolution soak harness
from the repository root.

Examples::

    # 30s on both transports, 8 clients, all probes
    python benchmarks/soak

    # a quick seeded smoke on one transport, JSON report to a file
    python benchmarks/soak --duration 20 --clients 8 --transport inproc \\
        --seed 7 --json soak_report.json

    # reproduce a failure: paste the report's repro_command
    python benchmarks/soak --seed 1337 --duration 60 --clients 8 \\
        --smo-rate 0.5 --transport tcp

Exit status is 0 only when every probe on every transport passed.  On
failure the exact seed, configuration, and SMO log are printed — that is
the complete replay recipe.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks"), ROOT]

from soak.harness import SoakConfig, run_soak  # noqa: E402 - needs the paths above
from soak.probes import PROBE_FACTORIES  # noqa: E402
from tests.testing.faults import parse_fault_spec  # noqa: E402


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/soak",
        description="Randomized SMO stream under a live mixed workload, "
        "differentially checked at sync barriers.",
    )
    parser.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    parser.add_argument(
        "--duration", type=float, default=30.0,
        help="seconds per transport phase (default 30)",
    )
    parser.add_argument("--clients", type=int, default=8, help="worker count (default 8)")
    parser.add_argument(
        "--smo-rate", type=float, default=0.5,
        help="expected SMO stream events per second (default 0.5)",
    )
    parser.add_argument(
        "--transport", choices=("inproc", "tcp", "both"), default="both",
        help="run clients in-process, over TCP, or both phases (default both)",
    )
    parser.add_argument(
        "--barrier-interval", type=float, default=5.0,
        help="seconds between differential sync barriers (default 5)",
    )
    parser.add_argument(
        "--probe", action="append", choices=sorted(PROBE_FACTORIES), default=None,
        help="run only the named probe (repeatable; default: all probes)",
    )
    parser.add_argument(
        "--p95-budget-ms", type=float, default=2500.0,
        help="latency probe: p95 budget during DDL windows (default 2500)",
    )
    parser.add_argument(
        "--inject-fault", default=None, metavar="POINT=RATE[,POINT=RATE...]",
        help="seeded fault injection, e.g. 'evolution:before-commit=1.0'",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the full JSON report to PATH ('-' for stdout)",
    )
    return parser


def _print_failure(report: dict) -> None:
    print("\nSOAK FAILURE — full replay recipe:", file=sys.stderr)
    print(f"  seed:    {report['config']['seed']}", file=sys.stderr)
    print(f"  replay:  {report['repro_command']}", file=sys.stderr)
    if report.get("fault"):
        print(f"  fault:   {report['fault']}", file=sys.stderr)
    for probe in report.get("probes", []):
        for violation in probe["violations"]:
            print(f"  [{probe['name']}] {violation}", file=sys.stderr)
    for error in report.get("client_errors", []):
        print(f"  [client {error['client']}]\n{error['traceback']}", file=sys.stderr)
    print("  SMO log:", file=sys.stderr)
    for event in report.get("smo_log", []):
        line = f"    #{event['seq']} t={event['t']}s {event['kind']} -> {event['outcome']}: "
        print(line + event["script"].replace("\n", " "), file=sys.stderr)


def _summarize(report: dict) -> None:
    stats = report["stats"]
    status = "OK" if report["ok"] else "FAIL"
    print(
        f"[{report['config']['transport']}] {status}: "
        f"{stats['ops']} ops in {stats['elapsed_s']}s "
        f"({stats['ops_per_sec']}/s over {stats['load_s']}s of load, "
        f"{stats['barrier_s']}s in barriers), {stats['smo_executed']} SMOs executed "
        f"({stats['smo_events']} generated), {stats['barriers']} barriers, "
        f"{len(stats['final_versions'])} live versions "
        f"(generation {stats['final_generation']})"
    )
    for probe in report.get("probes", []):
        mark = "ok " if probe["ok"] else "FAIL"
        print(f"    probe {probe['name']:<12} {mark} {probe['details']}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    fault_rates = parse_fault_spec(args.inject_fault) if args.inject_fault else {}
    transports = ("inproc", "tcp") if args.transport == "both" else (args.transport,)
    phases = []
    for transport in transports:
        config = SoakConfig(
            seed=args.seed,
            duration=args.duration,
            clients=args.clients,
            smo_rate=args.smo_rate,
            transport=transport,
            barrier_interval=args.barrier_interval,
            probes=args.probe,
            p95_budget_ms=args.p95_budget_ms,
            fault_rates=fault_rates,
        )
        report = run_soak(config)
        phases.append(report)
        _summarize(report)
        if not report["ok"]:
            _print_failure(report)
    combined = {"ok": all(phase["ok"] for phase in phases), "phases": phases}
    if args.json == "-":
        json.dump(combined, sys.stdout, indent=2)
        print()
    elif args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(combined, handle, indent=2)
        print(f"report written to {args.json}")
    return 0 if combined["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
