"""artinlink benchmark: one workload per run, metrics as JSON on the last line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload oracle_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs one round of the work untraced, then the same round
with every binding of the traced functions wrapped (see ``tracer.py``);
it prints the per-layer metrics and a table of every layer's self time
and calls, and writes the span dump to ``bench/out/``.  Each run is
serial and single-threaded, in one process.  Times are host-normalised
(see ``hostspeed.py``) and described in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from hostspeed import Timings  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 9
# Per-layer self times reported as metrics: only layers that every
# workload calls, so no reported time is zero by construction.  The
# table printed by a traced run has every layer.
SELF_TIME_LAYERS = (
    "presentations.build_triangular",
    "complex_link.build_complex",
    "complex_link.build_link",
)
LOOP_LAYERS = ("cycles.has_short_loop", "cycles.girth", "cycles.min_angle_cycle")


def _purge_artinlink() -> None:
    for key in [k for k in sys.modules if k == "artinlink" or k.startswith("artinlink.")]:
        del sys.modules[key]


def set_up(workload: str) -> tuple[dict, dict[str, str]]:
    """Import the program from ``src/`` and generate the workload's inputs."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    _purge_artinlink()
    mods = {
        "batteries": importlib.import_module("artinlink.batteries"),
        "cli": importlib.import_module("artinlink.cli"),
    }
    paths = {}
    if workload == "certify_corpus":
        paths = workloads.write_corpus(os.path.join(workloads.OUT_DIR, "corpus"))
    return mods, paths


def measure(mods, plan, seed, paths, expected_dir=workloads.EXPECTED_DIR):
    if plan.workload == "oracle_sweep":
        return workloads.run_oracle_sweep(mods, plan, seed)
    if plan.workload == "b2_sweep":
        return workloads.run_b2_sweep(mods, plan, seed)
    return workloads.run_certify_corpus(mods, plan, seed, paths, expected_dir)


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(timings, setup_s: float) -> dict[str, tuple[float, str]]:
    """Metrics from each unit's median time; wall_s adds the enumerations."""
    best = sorted(workloads.best(ts) for ts in timings.unit_times.values())
    loop_s = sum(best)
    fixed_s = sum(workloads.best(ts) for ts in timings.fixed_times.values())
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (fixed_s + loop_s, "s"),
        "cases_per_s": (len(best) / loop_s, "1/s"),
        "case_us_p50": (percentile(best, 50) * 1e6, "us"),
        "case_us_p95": (percentile(best, 95) * 1e6, "us"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
        ),
    }


def per_layer(tracer: Tracer, totals: dict, overhead_s: float) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    for name in tracer.names:
        out[f"{name}.calls"] = (totals[name]["calls"], "count")
    out["complex_link.build_link.vertices"] = (tracer.link_vertices, "count")
    out["complex_link.build_link.edges"] = (tracer.link_edges, "count")
    for name in SELF_TIME_LAYERS:
        out[f"{name}.self_s"] = (totals[name]["self_s"], "s")
    out["cycles.self_s"] = (sum(totals[n]["self_s"] for n in LOOP_LAYERS), "s")
    out["tracing.overhead_s"] = (overhead_s, "s")
    return out


def layer_table(tracer: Tracer, totals: dict) -> list[str]:
    lines = [f"{'layer':<52} {'calls':>9} {'self_s':>10}"]
    for name in tracer.names:
        t = totals[name]
        lines.append(f"{name:<52} {t['calls']:>9} {t['self_s']:>10.4f}")
    lines.append(
        f"complex_link.build_link sums: vertices {tracer.link_vertices}, "
        f"edges {tracer.link_edges}"
    )
    return lines


def run(workload, seed, seconds, trace, plan=None, expected_dir=workloads.EXPECTED_DIR):
    """One benchmark run; returns (info lines, result object)."""
    with Timings() as setups:
        for _ in range(SETUP_REPEATS):
            mods, paths = setups.call(setups.fixed_times, "setup", set_up, workload)
    plan = plan or workloads.plan_for(workload, seconds)
    if trace:
        # one round untraced, then the same round traced
        plan = dataclasses.replace(plan, rounds=1)
    timings = measure(mods, plan, seed, paths, expected_dir)
    attempted, failures = timings.attempted, list(timings.failures)
    metrics = end_to_end(timings, statistics.median(setups.fixed_times["setup"]))
    info = [
        f"workload {workload} seed {seed}: {plan}",
        f"{len(timings.unit_times)} cases x {plan.rounds} rounds; a case's "
        f"latency is the median of its rounds, host-normalised",
        f"host slowdown against the reference speed: {timings.slowdown():.3f}x",
    ]
    if workload == "certify_corpus":
        for name, ts in timings.unit_times.items():
            info.append(f"certify_s.{name} {workloads.best(ts):.4f}")

    if trace:
        untraced_wall = metrics["wall_s"][0]
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(mods, plan, seed, paths, expected_dir)
        finally:
            tracer.uninstall()
        attempted += traced.attempted
        failures += traced.failures
        traced_wall = end_to_end(traced, 0.0)["wall_s"][0]
        totals = tracer.layer_totals()
        metrics = per_layer(tracer, totals, traced_wall - untraced_wall)
        info += layer_table(tracer, totals)
        info.append(
            f"tracing: wall_s traced {traced_wall:.4f} - untraced "
            f"{untraced_wall:.4f} = {traced_wall - untraced_wall:.4f}; "
            f"{len(tracer.spans)} spans"
        )
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        dump = os.path.join(workloads.OUT_DIR, f"spans-{workload}-seed{seed}.json")
        tracer.dump(dump, {"workload": workload, "seed": seed, "seconds": seconds})
        info.append(f"span dump: {os.path.relpath(dump)}")

    info.append(f"failed_frac {len(failures) / attempted:.6f} ({len(failures)}/{attempted})")
    info += [f"failed: {f}" for f in failures[:20]]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(SRC, "artinlink")):
        print(f"error: no artinlink sources under {SRC}", file=sys.stderr)
        return 2
    info, result = run(args.workload, args.seed, args.seconds, args.trace)
    for line in info:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
