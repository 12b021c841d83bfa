#!/usr/bin/env python3
"""The repo's benchmark: one runner for all four workloads.

    python3 benchmarks/e2e/run.py --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
    python3 benchmarks/e2e/run.py --all [--trace] [--smoke] [--json PATH]
    python3 benchmarks/e2e/run.py --aa K [--json PATH]
    python3 benchmarks/e2e/run.py --write-contract

A single-workload run prints every metric by name with its unit (the
calibrated value, and the raw wall-clock value beside it), checks every
result against the shadow model, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
without ``--trace``, the per-layer metrics with it.  See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sqlite3
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)
# The program under test is the checkout this file sits in.
sys.path.insert(0, os.path.join(ROOT, "src"))

try:
    import repro
except ImportError as exc:  # pragma: no cover - exercised by the driver's bare-directory run
    sys.stderr.write(f"run.py: cannot import the program under test from {ROOT}/src: {exc}\n")
    sys.exit(2)
if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.stderr.write(f"run.py: 'repro' resolves to {repro.__file__}, not to this checkout\n")
    sys.exit(2)

import floor  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
from harness import LEAF_CYCLES, MOVE_PAIRS, REOPENS, SETUPS, Run  # noqa: E402
from opgen import CLASSES  # noqa: E402
from quantiles import quartiles, spread  # noqa: E402
from workloads import BY_NAME, WORKLOADS, rounds_for  # noqa: E402

RUN_SECONDS = 15
DEFAULT_SEED = 15
COMMAND = ["python3", "benchmarks/e2e/run.py"]


def environment() -> dict:
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "nproc": cores,
        "CAL_NOMINAL_MS": floor.CAL_NOMINAL_MS,
        "PROBE_NOMINAL_MS": floor.PROBE_NOMINAL_MS,
        "flush_policy": floor.FLUSH_POLICY,
        "loop": "closed, 1 client, 1 thread, 3 pinned connections used in turn",
    }


def pin_to_one_cpu() -> None:
    """Keep every thread of a run on one CPU.  The wire workload's client
    and server threads otherwise land on the same or on different cores as
    the scheduler pleases, and a round trip costs 0.17 ms or 0.27 ms
    accordingly (a spread of 17 % between identical runs); under the GIL a
    second core buys them nothing anyway."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Sizes:
    """How much of everything a run does.  ``--smoke`` runs every phase
    of every workload once, on a small database: it checks the plumbing
    and the correctness gate, its timings mean nothing."""

    def __init__(self, smoke: bool):
        self.setups = 1 if smoke else SETUPS
        self.reopens = 2 if smoke else REOPENS
        self.leaf_cycles = 3 if smoke else LEAF_CYCLES
        self.move_pairs = 1 if smoke else MOVE_PAIRS
        self.smoke = smoke

    def rounds(self, workload, seconds: float) -> int:
        return 3 if self.smoke else rounds_for(workload, seconds)

    def sized(self, workload):
        if not self.smoke:
            return workload
        return dataclasses.replace(
            workload,
            scenario_args=tuple(min(arg, 300) for arg in workload.scenario_args),
            operations_per_round=max(12, workload.operations_per_round // 8),
        )


def run_directory(workload_name: str) -> str:
    os.makedirs(OUT, exist_ok=True)
    return os.path.join(OUT, f"run-{os.getpid()}-{workload_name}")


def finish(run: Run, sizes: Sizes) -> bool:
    """The phases after the steady one; returns whether the contents
    check held both times."""
    intact = run.check_contents("after the steady phase")
    if not run.workload.cycles_per_round:
        run.transitions(sizes.leaf_cycles, sizes.move_pairs)
    elif "move_offline" not in run.recorder.sections:
        run.move_pair()  # a churn phase too short to reach its first pair
    return run.restart(sizes.reopens) and intact


def untraced_pass(workload, seed: int, seconds: float, sizes: Sizes) -> dict:
    run = Run(workload, seed, run_directory(workload.name))
    try:
        run.setup(sizes.setups)
        run.warm_up()
        run.steady(sizes.rounds(workload, seconds))
        intact = finish(run, sizes)
        recorder = run.recorder
        lane = recorder.lanes[False]
        calibrated, wall, counts = metrics.end_to_end(recorder, lane)
        lines = []
        for metric in metrics.END_TO_END:
            lines.append(
                f"{metric.name:<22}{calibrated[metric.name]:>14.6g} {metric.unit:<5}"
                f"{metric.name + '.wall':<28}{wall[metric.name]:>14.6g} {metric.unit:<5}"
                f"n={counts[metric.name]}"
            )
        for label, classes in (("read", (0, 1, 2)), ("write", (3, 4, 5))):
            q, value, beyond = metrics.tail(lane, classes)
            lines.append(
                f"{label}_tail: p{q:g} = {value:.6g} ms with {beyond} samples beyond it "
                "(highest percentile with >= 10 beyond; not gated)"
            )
        dropped = sum(section.dropped for section in recorder.sections.values())
        total = sum(len(section) for section in recorder.sections.values())
        lines.append(f"floor.rounds_dropped       {dropped} of {total} sections not timed in")
        return report(workload, recorder, intact, lines, {
            metric.name: {"value": calibrated[metric.name], "unit": metric.unit}
            for metric in metrics.END_TO_END
        }, wall=wall)
    finally:
        run.close()


def traced_pass(workload, seed: int, seconds: float, sizes: Sizes) -> dict:
    tracer = layers.Tracer()
    run = Run(workload, seed, run_directory(workload.name + "-traced"), tracer=tracer)
    try:
        run.setup(1)
        run.warm_up()
        cache_before = run.system.connections[0].stats()["plan_cache"]
        # A quarter of the rounds with spans on, a quarter with spans off,
        # alternating; whole rotations of the per-round batch.
        rounds = 6 * max(1, round(sizes.rounds(workload, seconds) / 12))
        run.steady(rounds, traced_every=2)
        cache_after = run.system.connections[0].stats()["plan_cache"]
        peel = layers.Peel(run)
        peel.run_all()
        values = layers.statement_probes(run)
        intact = run.check_contents("after the steady phase")
        if not workload.cycles_per_round:
            run.transitions(max(3, sizes.leaf_cycles // 2), 1 if sizes.smoke else 2)
        elif "move_offline" not in run.recorder.sections:
            run.move_pair()
        values.update(layers.catalog_probes(run))
        path = run.system.path
        intact = run.restart(2) and intact
        run.system.close()
        run.system = None
        values.update(layers.file_probes(path))
        closure_rows = closure(run, peel)
        values.update(layer_values(run, peel, cache_before, cache_after))
        values["obs.closure_residual_pct"] = max(row[3] for row in closure_rows)
        recorder = run.recorder
        if peel.mismatches:
            recorder.fail(f"peel: {peel.mismatches} statements disagreed between levels")
        lines = [
            f"{metric.name:<36}{values[metric.name]:>14.6g} {metric.unit:<6}"
            f"{'exact' if metric.exact else ''}"
            for metric in metrics.PER_LAYER
        ]
        lines += closure_lines(run, peel, closure_rows)
        lines.append("self time by span (seconds): " + ", ".join(
            f"{name} {seconds_:.3f}"
            for name, seconds_ in sorted(layers.self_times(tracer.spans).items())
        ))
        trace_path = os.path.join(OUT, f"trace-{workload.name}.jsonl")
        tracer.write(trace_path)
        lines.append(f"{len(tracer.spans)} spans written to {os.path.relpath(trace_path)}")
        return report(workload, recorder, intact, lines, {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in metrics.PER_LAYER
        })
    finally:
        run.close()


def closure(run: Run, peel) -> list[tuple[str, float, float, float]]:
    """Per class: (name, peel top level ms, traced steady p50 ms, residual %)."""
    top = "wire" if run.workload.transport == "wire" else "inproc"
    traced = run.recorder.lanes[True]
    rows = []
    for cls, name in enumerate(CLASSES):
        level = peel.median(cls, top)
        p50 = statistics.median(traced.calibrated[cls]) * 1000.0
        rows.append((name, level, p50, 100.0 * abs(level - p50) / p50))
    return rows


def closure_lines(run: Run, peel, rows) -> list[str]:
    top = "wire" if run.workload.transport == "wire" else "inproc"
    lines = ["trace closure (peel levels are medians in ms; self times telescope to the top level):"]
    for cls, (name, level, p50, residual) in enumerate(rows):
        parts = " ".join(f"{lv}={peel.median(cls, lv):.4f}" for lv in layers.LEVELS)
        lines.append(
            f"  {name:<12} {parts}  top({top})={level:.4f}  traced_p50={p50:.4f}  "
            f"residual={residual:.1f}%"
        )
    return lines


def layer_values(run: Run, peel, cache_before: dict, cache_after: dict) -> dict:
    recorder = run.recorder
    sections = recorder.sections
    values: dict[str, float] = {}
    reads, writes = (0, 1, 2), (3, 4, 5)
    values["server.wire_self_ms"] = peel.difference(reads + writes, "wire", "inproc")
    values["sql.self_ms.read"] = peel.difference(reads, "inproc", "backend_sql")
    values["sql.self_ms.write"] = peel.difference(writes, "inproc", "backend_sql")
    for pin, role in enumerate(("local", "fwd", "bwd")):
        values[f"backend.view_self_ms.{role}"] = peel.difference((pin,), "backend_sql", "floor")
        values[f"backend.trigger_self_ms.{role}"] = peel.difference(
            (3 + pin,), "backend_sql", "floor"
        )
    values["floor.read_ms"] = statistics.median(
        v for cls in reads for v in peel.samples[cls]["floor"]
    ) * 1000.0
    values["floor.write_ms"] = statistics.median(
        v for cls in writes for v in peel.samples[cls]["floor"]
    ) * 1000.0
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    values["sql.plancache_hit_ratio"] = hits / (hits + misses)
    for name, section in (
        ("core.evolve_ms", "evolve"), ("core.drop_ms", "drop"),
        ("backend.move_offline_ms", "move_offline"), ("backend.move_online_ms", "move_online"),
    ):
        values[name] = statistics.median(sections[section].calibrated()) * 1000.0
    batch = sections["batch"]
    values["backend.batch_row_ms"] = statistics.median(
        batch.wall[i] * batch.factor(i) / batch.work[i] for i in batch.timed_in()
    ) * 1000.0
    values["floor.cal_factor_iqr"] = spread(run.floor.readings)
    values["floor.rounds_dropped"] = sum(section.dropped for section in sections.values())
    off, on = (
        statistics.median(n / c for n, _w, c in recorder.lanes[traced].rounds)
        for traced in (False, True)
    )
    values["obs.trace_overhead_pct"] = 100.0 * (off - on) / off
    return values


def report(workload, recorder, intact: bool, lines, metric_values, wall=None) -> dict:
    return {
        "workload": workload.name,
        "lines": lines,
        "problems": recorder.problems,
        "wall": wall or {},
        "intact": intact,
        "result": {
            "correct": bool(intact and recorder.failed == 0),
            "attempted": recorder.attempted,
            "failed": recorder.failed,
            "metrics": metric_values,
        },
    }


def print_report(outcome: dict, seed: int, seconds: float, traced: bool) -> None:
    env = environment()
    print("# environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(
        f"# workload {outcome['workload']} seed {seed} seconds {seconds:g} "
        f"{'traced' if traced else 'untraced'} pass; times are calibrated "
        "(floor.py), <name>.wall is the raw wall-clock value"
    )
    for line in outcome["lines"]:
        print(line)
    for problem in outcome["problems"]:
        print("PROBLEM " + problem)
    result = outcome["result"]
    print(
        f"# attempted {result['attempted']} failed {result['failed']} "
        f"correct {result['correct']}"
    )
    print(json.dumps(result))


# -- many runs ---------------------------------------------------------------


def child(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """One run in a fresh interpreter (the way the driver runs it);
    returns the parsed last line plus the wall time of the whole run."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced)),
    ] + (["--smoke"] if smoke else [])
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"run.py: {' '.join(command)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["run_wall_s"] = elapsed
    result["output"] = done.stdout
    return result


def run_all(args) -> int:
    results = {}
    failed = False
    for workload in WORKLOADS:
        passes = [False, True] if args.trace else [False]
        for traced in passes:
            result = child(workload.name, args.seed, args.seconds, traced, args.smoke)
            sys.stdout.write(result.pop("output"))
            key = workload.name + (".traced" if traced else "")
            results[key] = result
            failed = failed or not result["correct"]
    if args.json:
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump({"environment": environment(), "seed": args.seed,
                       "seconds": args.seconds, "results": results}, out, indent=1)
    total = sum(result["run_wall_s"] for result in results.values())
    print(f"# --all: {len(results)} runs in {total:.1f} s, "
          f"{'all correct' if not failed else 'FAILURES'}")
    return 1 if failed else 0


def run_aa(args) -> int:
    """Two interleaved sets of K untraced runs of this working tree, each
    run on its own seed (the same K seeds in both sets): per metric and
    workload each set's median and quartiles, the spread, and the gap
    between the two medians against the bound."""
    bounds = {metric.name: metric for metric in metrics.END_TO_END}
    sets = {"A": {}, "B": {}}
    for index in range(args.aa):
        for label in ("A", "B"):
            for workload in WORKLOADS:
                result = child(workload.name, args.seed + index, args.seconds, False, False)
                if not result["correct"]:
                    raise SystemExit(f"run.py --aa: {workload.name} seed {args.seed + index} incorrect")
                cell = sets[label].setdefault(workload.name, {})
                for name, entry in result["metrics"].items():
                    cell.setdefault(name, []).append(entry["value"])
                cell.setdefault("run_wall_s", []).append(result["run_wall_s"])
                print(f"# {label}{index} {workload.name} {result['run_wall_s']:.1f} s",
                      file=sys.stderr, flush=True)
    table = []
    worst = 0.0
    print(f"| workload | metric | A median [q1, q3] | B median [q1, q3] | spread A | spread B | gap | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in WORKLOADS:
        for metric in metrics.END_TO_END:
            a = sets["A"][workload.name][metric.name]
            b = sets["B"][workload.name][metric.name]
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            worse = (bm - am) / am if metric.better == "lower" else (am - bm) / am
            row = {
                "workload": workload.name, "metric": metric.name, "unit": metric.unit,
                "A": [a1, am, a3], "B": [b1, bm, b3],
                "spread_A": spread(a), "spread_B": spread(b),
                "gap": worse, "bound": metric.bound,
            }
            table.append(row)
            if metric.name != "setup_s":
                worst = max(worst, spread(a) / metric.bound, spread(b) / metric.bound)
            worst = max(worst, abs(worse) / metric.bound)
            print(
                f"| {workload.name} | {metric.name} | {am:.5g} [{a1:.5g}, {a3:.5g}] | "
                f"{bm:.5g} [{b1:.5g}, {b3:.5g}] | {spread(a):.3f} | {spread(b):.3f} | "
                f"{worse:+.3f} | {metric.bound:.2f} |"
            )
    print(f"# worst cell uses {worst:.2f} of its bound "
          f"({'within' if worst <= 1.0 else 'OUTSIDE'} bounds)")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump({
                "environment": environment(), "first_seed": args.seed, "runs_per_set": args.aa,
                "seconds": args.seconds, "cells": table,
                "run_wall_s": {
                    w.name: statistics.median(sets["A"][w.name]["run_wall_s"]) for w in WORKLOADS
                },
            }, out, indent=1)
    return 0 if worst <= 1.0 else 1


def contract() -> dict:
    def entry(metric, with_bound):
        item = {"name": metric.name, "unit": metric.unit, "better": metric.better}
        if with_bound:
            item["bound"] = metric.bound
        return item

    return {
        "command": COMMAND,
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [entry(metric, True) for metric in metrics.END_TO_END],
        "per_layer": [entry(metric, False) for metric in metrics.PER_LAYER],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--aa", type=int, nargs="?", const=5, metavar="K",
                        help="A/A self-check: two interleaved sets of K runs per workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="size of the steady phase (its length on the quiet sandbox)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="run the traced pass and report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (every phase once), for checking the plumbing")
    parser.add_argument("--json", metavar="PATH", help="also write the results here")
    parser.add_argument("--write-contract", action="store_true",
                        help="write BENCHMARK.json at the root of the checkout")
    args = parser.parse_args(argv)
    if args.write_contract:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as out:
            json.dump(contract(), out, indent=2)
            out.write("\n")
        return 0
    if args.aa:
        return run_aa(args)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("one of --workload, --all, --aa, --write-contract is required")
    sizes = Sizes(args.smoke)
    workload = sizes.sized(BY_NAME[args.workload])
    pin_to_one_cpu()
    if args.trace:
        outcome = traced_pass(workload, args.seed, args.seconds, sizes)
    else:
        outcome = untraced_pass(workload, args.seed, args.seconds, sizes)
    print_report(outcome, args.seed, args.seconds, bool(args.trace))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump({"environment": environment(), **outcome}, out, indent=1)
    # A failed final-state check is a broken database, not a slow one.
    return 0 if outcome["intact"] else 1


if __name__ == "__main__":
    sys.exit(main())
