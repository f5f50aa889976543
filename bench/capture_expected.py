"""Write the stored outputs that the benchmark checks against.

    python3 bench/capture_expected.py

writes ``bench/expected/<graph>.json`` (the exact stdout of
``artinlink certify <graph> --format json``) for every corpus graph and
``bench/expected/enumerations.json`` (count and sorted-list digest of
each enumeration at 4 and 5 vertices).  Run it only at a commit whose
outputs are known to be right: the benchmark treats any later
difference as a failure.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def main() -> int:
    mods, _ = run.set_up("oracle_sweep")
    batteries, cli = mods["batteries"], mods["cli"]
    os.makedirs(workloads.EXPECTED_DIR, exist_ok=True)
    paths = workloads.write_corpus(os.path.join(workloads.OUT_DIR, "corpus"))
    for name, path in paths.items():
        code, out = workloads.run_certify(cli, path)
        if code != 0:
            print(f"certify {name} exited {code}", file=sys.stderr)
            return 1
        target = os.path.join(workloads.EXPECTED_DIR, f"{name}.json")
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(out)
    digests = {}
    for n in (4, 5):
        states = batteries.enumerate_oriented_states(n)
        digests[f"oriented_states_{n}"] = workloads.enumeration_digest(states)
        digests[f"wildcard_variants_{n}"] = workloads.enumeration_digest(
            batteries.wildcard_variants(states, n)
        )
        digests[f"triangle_free_states_{n}"] = workloads.enumeration_digest(
            batteries.enumerate_triangle_free_oriented_states(n)
        )
    target = os.path.join(workloads.EXPECTED_DIR, "enumerations.json")
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
