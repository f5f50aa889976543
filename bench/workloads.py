"""The three benchmark workloads, their inputs and their output checks.

Every workload runs a fixed list of units (one sweep case, one
enumeration step, or one ``certify`` of a corpus graph) ``rounds``
times, timing each execution and checking each output.  Times are
host-normalised (see ``hostspeed.py``), and a unit's time is the
median over its rounds.

* ``oracle_sweep`` -- acceptance 06 on a seeded sample: enumerate the
  oriented 5-vertex states and their wildcard variants, then run
  ``batteries.oracle_case`` on sampled indices, with the battery's
  girth cross-check on every 97th index.
* ``b2_sweep`` -- acceptance 07 on a seeded sample: enumerate the
  triangle-free oriented states, then run ``batteries.b2_case``.
* ``certify_corpus`` -- ``artinlink certify --format json`` in-process
  on a fixed corpus of large graphs; stdout must match the stored
  output byte for byte.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import statistics
import time
from dataclasses import dataclass

from hostspeed import Timings

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("oracle_sweep", "b2_sweep", "certify_corpus")

# Nominal costs on the reference 2-core host at the commit that added
# the benchmark.  They only size the work from ``--seconds``; the work
# done for a given ``--seconds`` never depends on measured speed, so
# call counts repeat exactly.
_ORACLE_FIXED_S = 5.0  # enumeration plus wildcard variants, one round
_ORACLE_CASE_S = 0.0009
_B2_FIXED_S = 0.2
_B2_CASE_S = 0.0055
_CORPUS_PASS_S = 13.0
ROUNDS = 3
B2_ROUNDS = 5
GIRTH_STRIDE = 97  # as in batteries._oracle_chunk


# -- the certify corpus ---------------------------------------------------


def _grid(n: int) -> str:
    lines = [f"vertex v{i}_{j}" for i in range(n) for j in range(n)]
    for i in range(n):
        for j in range(n):
            if i + 1 < n:
                lines.append(f"edge v{i}_{j} v{i + 1}_{j} 3")
            if j + 1 < n:
                lines.append(f"edge v{i}_{j} v{i}_{j + 1} 3")
    return "\n".join(lines) + "\n"


def _complete_bipartite(n: int, direction: str) -> str:
    lines = [f"vertex a{i}" for i in range(n)] + [f"vertex b{i}" for i in range(n)]
    lines += [f"edge a{i} b{j} 3 {direction}" for i in range(n) for j in range(n)]
    return "\n".join(lines) + "\n"


def _triangle(m: int, n: int, p: int) -> str:
    return (
        "vertex a\nvertex b\nvertex c\n"
        f"edge a b {m} >\nedge b c {n} >\nedge c a {p} >\n"
    )


def corpus_texts() -> dict[str, str]:
    """Corpus graph name -> line-format defining graph."""
    return {
        "grid4": _grid(4),
        "grid8": _grid(8),
        "grid12": _grid(12),
        # unoriented: the orientation search runs and fails
        "k55": _complete_bipartite(5, "."),
        # every edge a -> b: triangle-free, so the B2 scheme applies
        "k88": _complete_bipartite(8, ">"),
        "tri345": _triangle(3, 4, 5),
        "tri50": _triangle(50, 50, 50),
        "tri200": _triangle(200, 200, 200),
    }


CORPUS = tuple(corpus_texts())


def write_corpus(directory: str, names=CORPUS) -> dict[str, str]:
    """Write the named corpus graphs as ``.gamma`` files; name -> path."""
    os.makedirs(directory, exist_ok=True)
    texts = corpus_texts()
    paths = {}
    for name in names:
        path = os.path.join(directory, f"{name}.gamma")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(texts[name])
        paths[name] = path
    return paths


def run_certify(cli, path: str) -> tuple[int, str]:
    """``artinlink certify <path> --format json`` in-process: (exit, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["certify", path, "--format", "json"])
    return code, out.getvalue()


def expected_certify(name: str, expected_dir: str = EXPECTED_DIR) -> str:
    with open(os.path.join(expected_dir, f"{name}.json"), encoding="utf-8") as fh:
        return fh.read()


def enumeration_digest(states) -> dict:
    """Count and order-free digest of an enumeration's output."""
    blob = repr(sorted(states)).encode()
    return {"count": len(states), "sha256": hashlib.sha256(blob).hexdigest()}


def expected_enumerations() -> dict:
    with open(os.path.join(EXPECTED_DIR, "enumerations.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- plans ----------------------------------------------------------------


@dataclass(frozen=True)
class Plan:
    """How much work one run does.  ``cases`` is the sweep sample size;
    ``graphs`` the certify corpus; every unit runs ``rounds`` times."""

    workload: str
    rounds: int
    cases: int = 0
    vertices: int = 5
    graphs: tuple[str, ...] = ()


def plan_for(workload: str, seconds: int) -> Plan:
    """The fixed work that takes about ``seconds`` on the reference host."""
    per_round = seconds / ROUNDS
    if workload == "oracle_sweep":
        cases = int((per_round - _ORACLE_FIXED_S) / _ORACLE_CASE_S)
        return Plan(workload, ROUNDS, cases=max(50, cases))
    if workload == "b2_sweep":
        # short cases: more rounds per case cost little and steady the medians
        per_round = seconds / B2_ROUNDS
        cases = int((per_round - _B2_FIXED_S) / _B2_CASE_S)
        return Plan(workload, B2_ROUNDS, cases=max(20, cases))
    if workload == "certify_corpus":
        rounds = max(2, round(seconds / _CORPUS_PASS_S))
        return Plan(workload, rounds, graphs=CORPUS)
    raise ValueError(f"unknown workload {workload!r}")


# -- timed execution ------------------------------------------------------


def best(times: list[float]) -> float:
    """A unit's time: the median of its host-normalised executions."""
    return statistics.median(times)


def _check_enumeration(timings, expected, key, states):
    want = expected.get(key)
    got = enumeration_digest(states)
    timings.check(want == got, f"{key}: {got} != {want}")


def sample(rng: random.Random, population: int, size: int, stride: int = 0) -> list[int]:
    """Sorted seeded sample of indices, walked in order as the battery does.

    With ``stride``, the indices it divides (the battery's girth
    cross-checks) and the rest are sampled separately, each in its
    share of the population, so that every seed gets the same mix.
    """
    size = min(size, population)
    if not stride:
        return sorted(rng.sample(range(population), size))
    marked = range(0, population, stride)
    rest = [i for i in range(population) if i % stride]
    k = round(size * len(marked) / population)
    return sorted(rng.sample(marked, k) + rng.sample(rest, size - k))


def run_oracle_sweep(mods, plan: Plan, seed: int) -> Timings:
    batteries = mods["batteries"]
    expected = expected_enumerations()
    n = plan.vertices
    rng = random.Random(seed)
    indices = None
    with Timings() as timings:
        fixed, cases = timings.fixed_times, timings.unit_times
        for _ in range(plan.rounds):
            gc.collect()  # free the last round's cyclic garbage before this one
            states = timings.call(
                fixed, "enumerate", batteries.enumerate_oriented_states, n
            )
            wilds = timings.call(
                fixed, "wildcards", batteries.wildcard_variants, states, n
            )
            _check_enumeration(timings, expected, f"oriented_states_{n}", states)
            _check_enumeration(timings, expected, f"wildcard_variants_{n}", wilds)
            work = states + wilds
            del states, wilds  # hold one round's enumeration at a time
            if indices is None:
                indices = sample(rng, len(work), plan.cases, GIRTH_STRIDE)
            for idx in indices:
                ok, _, girth_ok = timings.call(
                    cases, idx, batteries.oracle_case,
                    work[idx], n, idx % GIRTH_STRIDE == 0,
                )
                timings.check(ok and girth_ok, f"oracle_case idx={idx} state={work[idx]}")
            del work
    return timings


def run_b2_sweep(mods, plan: Plan, seed: int) -> Timings:
    batteries = mods["batteries"]
    expected = expected_enumerations()
    n = plan.vertices
    rng = random.Random(seed)
    indices = None
    with Timings() as timings:
        fixed, cases = timings.fixed_times, timings.unit_times
        for _ in range(plan.rounds):
            gc.collect()
            states = timings.call(
                fixed, "enumerate", batteries.enumerate_triangle_free_oriented_states, n
            )
            _check_enumeration(timings, expected, f"triangle_free_states_{n}", states)
            if indices is None:
                indices = sample(rng, len(states), plan.cases)
            for idx in indices:
                holds, _, _ = timings.call(cases, idx, batteries.b2_case, states[idx], n)
                timings.check(holds, f"b2_case idx={idx} state={states[idx]}")
            del states
    return timings


def _certify_or_error(cli, path: str) -> tuple[object, str]:
    try:
        return run_certify(cli, path)
    except Exception as exc:  # a crash is a failed case, not a failed run
        return f"{type(exc).__name__}: {exc}", ""


def run_certify_corpus(
    mods, plan: Plan, seed: int, paths: dict[str, str], expected_dir: str = EXPECTED_DIR
) -> Timings:
    cli = mods["cli"]
    expected = {name: expected_certify(name, expected_dir) for name in plan.graphs}
    rng = random.Random(seed)
    with Timings() as timings:
        for _ in range(plan.rounds):
            gc.collect()
            order = list(plan.graphs)
            rng.shuffle(order)
            for name in order:
                code, out = timings.call(
                    timings.unit_times, name, _certify_or_error, cli, paths[name]
                )
                same = out == expected[name]
                timings.check(
                    code == 0 and same,
                    f"certify {name}: exit {code}, stdout "
                    + ("matches" if same else "differs"),
                )
    return timings
