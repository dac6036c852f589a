#!/usr/bin/env python3
"""Write ``perfbench/expected.json``: the answer digests of the first rounds
of the deterministic workloads, for the canonical and the held-out seed.

Usage (from the repository root)::

    python3 perfbench/pin_digests.py

``run.py`` compares every item it runs on a pinned seed against these, so a
change that alters an exact answer shows as a failed item.  Re-pin only when
the workload definitions change, never to absorb a changed answer.  Chain
outputs (``sweep``) are not pinned: a new chain kernel may change the random
stream while staying correct.
"""

from __future__ import annotations

import json

import run
import workloads

SEEDS = {"canonical": 1, "held_out": 2}
PINNED_ROUNDS = {"oracle": 12, "reduction": 4}


def main() -> int:
    lib = run.load_library()
    doc = {
        "about": "per-item answer digests by workload and seed: oracle [min size, optimal-set count], "
                 "reduction [satisfiable, control set within target]",
        "seeds": SEEDS,
    }
    for name, rounds in PINNED_ROUNDS.items():
        workload = workloads.WORKLOADS[name]
        doc[name] = {}
        for seed in SEEDS.values():
            records = []
            for r in range(rounds):
                records += run.run_items(lib, workload, workload.make_round(lib, seed, r))
            bad = [rec for rec in records if rec.error]
            if bad:
                raise SystemExit(f"error: {name} seed {seed}: {bad[0].kind}: {bad[0].error}")
            doc[name][str(seed)] = [rec.digest for rec in records]
    with open(run.EXPECTED_PATH, "w") as fh:
        fh.write(format_doc(doc))
    return 0


def format_doc(doc: dict) -> str:
    """One top-level key per line, so a changed digest shows in a diff."""
    lines = [f" {json.dumps(key)}: {json.dumps(value)}" for key, value in doc.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    raise SystemExit(main())
