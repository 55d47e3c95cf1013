"""Record the reference counts the benchmark checks its ops against.

    PYTHONPATH=src python3 perfbench/make_references.py

For every op whose forbidden set R is drawn from the seed, every R of that size
is counted once with the census engine, so any seed has a reference. Fixed
rows are recorded too (q = 17, R = {0}, n = 5 is checks.PINNED_Q17_NO_ZERO).
R = {} needs no row: run.py uses Gauss's formula. Run only at a commit
whose census is trusted; the output replaces references.json.
"""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

from ffdigits import FieldSpec, RestrictedSet, count_restricted, get_field

from workloads import WORKLOADS, build_ops, ref_key, seeded_population


def shapes() -> set:
    rows = set()
    for workload in WORKLOADS:
        for op in build_ops(workload, 0):
            if not op.get("forbid"):
                continue
            sets = (
                combinations(seeded_population(op["q"]), len(op["forbid"]))
                if op["seeded"]
                else [tuple(op["forbid"])]
            )
            for R in sets:
                for n in op.get("ns", [op.get("n")]):
                    rows.add((op["q"], R, n))
    return rows


def main():
    counts = {}
    for q, R, n in sorted(shapes()):
        spec = FieldSpec.from_q(q)
        field = get_field(spec.p, spec.k, spec.modulus)
        key = ref_key(q, R, n)
        counts[key] = count_restricted(RestrictedSet(field, frozenset(R)), n)
        print(key, counts[key], flush=True)
    path = Path(__file__).resolve().parent / "references.json"
    path.write_text(json.dumps({"count": counts}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
