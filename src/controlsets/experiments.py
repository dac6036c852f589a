"""Benchmark harness: random-graph sweeps comparing the randomized search
against the exhaustive oracle and a highest-degree heuristic.

Two graph families are built in: ``dense`` keeps the edge probability at
0.4 while ``sparse`` uses 4*ln(n)/n, which stays connected with high
probability as n grows.  Every row of a sweep derives its own RNG streams
from the master seed, so a run is reproducible regardless of scheduling,
and sink-producing graph draws advance to the next derived seed (bounded,
recorded) instead of being silently resampled.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction

from ._ratio import as_ratio
from .chain import ChainConfig, ChainRun, run_search
from .coordination import majority_game
from .errors import InputError, InternalCheckError
from .game_core import Game, Profile
from .graph import GraphGenerationError, WeightedGraph, erdos_renyi
from .scs import closure_mask, is_sufficient, optimal_oracle

CSV_COLUMNS = ("n", "p", "trial", "chain_size", "oracle_size", "coverage", "runtime_ms")

FAMILIES = ("dense", "sparse")

# Derived seeds a row tries before it is skipped as having no valid graph.
SEED_ADVANCE_LIMIT = 20


def edge_probability(family: str, n: int) -> float:
    if family == "dense":
        return 0.4
    if family == "sparse":
        return min(1.0, 4 * math.log(n) / n)
    raise InputError(f"unknown family {family!r}; choose from {FAMILIES}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: a family, the n values to visit, and the chain protocol.

    ``steps=None`` takes the chain's default (:class:`ChainConfig`).
    ``restarts`` independent walks run per row and the best result is kept;
    set it to 1 to replicate a single-walk protocol.  The oracle runs only
    for n up to ``oracle_cutoff``.
    """

    family: str = "dense"
    n_values: tuple[int, ...] = (10,)
    trials: int = 5
    epsilon: Fraction = Fraction(3, 10)
    steps: int | None = None
    restarts: int = 10
    oracle_cutoff: int = 16
    master_seed: int | str = 0

    def __post_init__(self):
        object.__setattr__(self, "epsilon", as_ratio(self.epsilon, "epsilon"))
        object.__setattr__(self, "n_values", tuple(self.n_values))
        if self.family not in FAMILIES:
            raise InputError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if not self.n_values:
            raise InputError("n_values must be nonempty")
        if any(n < 2 for n in self.n_values):
            raise InputError("every n must be >= 2")
        if self.trials < 1:
            raise InputError("trials must be >= 1")
        if self.restarts < 1:
            raise InputError("restarts must be >= 1")


@dataclass(frozen=True)
class ResultRow:
    n: int
    p: float
    trial: int
    chain_size: int | None
    oracle_size: int | None
    coverage: Fraction | None
    runtime_ms: int
    chain_set: frozenset[int] | None = None
    graph_seed: str | None = None
    skipped: bool = False


def degree_heuristic(game: Game, g: WeightedGraph, k: int) -> tuple[frozenset[int], Fraction]:
    """Seed the k highest out-degree nodes (ties to the lower index), run
    the cascade, and report the fraction of nodes converted."""
    if g.n != game.n:
        raise InputError(f"graph has {g.n} nodes but the game has {game.n} players")
    if not 1 <= k <= g.n:
        raise InputError(f"k must lie in [1, {g.n}], got {k}")
    ranked = sorted(range(g.n), key=lambda i: (-g.out_degrees[i], i))
    chosen = frozenset(ranked[:k])
    final = closure_mask(game, Profile.from_players(g.n, chosen).mask)
    return chosen, Fraction(final.bit_count(), g.n)


def _generate_graph(spec: ExperimentSpec, n: int, trial: int):
    p = edge_probability(spec.family, n)
    for attempt in range(SEED_ADVANCE_LIMIT):
        seed = f"{spec.master_seed}/{spec.family}/n{n}/t{trial}/a{attempt}"
        try:
            return erdos_renyi(n, p, seed), p, seed
        except GraphGenerationError:
            continue
    return None, p, None


def best_of_restarts(
    game: Game, epsilon, steps: int | None, seed, restarts: int,
    trace_points: int = ChainConfig.trace_points,
) -> ChainRun:
    """Run ``restarts`` walks seeded ``f"{seed}/r{k}"`` and keep the one with
    the smallest best set, the earliest on a tie.  Each walk keeps a trace
    of ``trace_points`` points; a caller that never reads it passes 1."""
    if restarts < 1:
        raise InputError(f"restarts must be >= 1, got {restarts}")
    best = None
    for k in range(restarts):
        config = ChainConfig(
            epsilon=epsilon, steps=steps, seed=f"{seed}/r{k}", trace_points=trace_points
        )
        run = run_search(game, config)
        if best is None or run.best_size < best.best_size:
            best = run
    return best


def run_row(spec: ExperimentSpec, n: int, trial: int) -> ResultRow:
    """One benchmark point; fully determined by (spec, n, trial)."""
    t0 = time.perf_counter()
    graph, p, seed = _generate_graph(spec, n, trial)
    if graph is None:
        ms = int((time.perf_counter() - t0) * 1000)
        return ResultRow(
            n=n, p=p, trial=trial, chain_size=None, oracle_size=None,
            coverage=None, runtime_ms=ms, skipped=True,
        )
    game = majority_game(graph)
    best = best_of_restarts(game, spec.epsilon, spec.steps, seed, spec.restarts, trace_points=1)
    chain_set = best.best_profile.players
    if not is_sufficient(game, best.best_profile):
        raise InternalCheckError(
            f"search returned a non-sufficient set {sorted(chain_set)} "
            f"(n={n}, trial={trial}, seed={seed!r})"
        )
    oracle_size = None
    if n <= spec.oracle_cutoff:
        oracle_size = optimal_oracle(game).min_size
        if oracle_size is None or len(chain_set) < oracle_size:
            raise InternalCheckError(
                f"oracle inconsistency at n={n}, trial={trial}: "
                f"chain={len(chain_set)}, oracle={oracle_size}"
            )
    _, coverage = degree_heuristic(game, graph, len(chain_set))
    ms = int((time.perf_counter() - t0) * 1000)
    return ResultRow(
        n=n, p=p, trial=trial, chain_size=len(chain_set), oracle_size=oracle_size,
        coverage=coverage, runtime_ms=ms, chain_set=chain_set, graph_seed=seed,
    )


def run_experiment(spec: ExperimentSpec, workers: int | None = None) -> list[ResultRow]:
    """All (n, trial) rows of a sweep, in deterministic order.

    ``workers`` defaults to the CONTROLSETS_WORKERS environment variable
    (1 if unset) and must be a positive integer; rows are independent jobs,
    and results are identical for any worker count because every row owns
    its derived seeds.
    """
    if workers is None:
        text = os.environ.get("CONTROLSETS_WORKERS", "1")
        try:
            workers = int(text)
        except ValueError:
            raise InputError(f"CONTROLSETS_WORKERS must be an integer, got {text!r}") from None
    if workers < 1:
        raise InputError(f"worker count must be >= 1, got {workers}")
    jobs = [(n, trial) for n in spec.n_values for trial in range(spec.trials)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_row, spec, n, t) for n, t in jobs]
            return [f.result() for f in futures]
    return [run_row(spec, n, t) for n, t in jobs]


def rows_to_csv(rows) -> str:
    """Render rows in the fixed column order (RFC-4180 via the csv module).

    Skipped rows keep their n/p/trial/runtime fields and leave the metric
    columns empty.
    """
    if not rows:
        raise InputError("no rows to write")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in rows:  # the csv module writes None as an empty field
        coverage = None if r.coverage is None else repr(float(r.coverage))
        writer.writerow([r.n, repr(r.p), r.trial, r.chain_size, r.oracle_size, coverage, r.runtime_ms])
    return buf.getvalue()


PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Render the two summary figures from results.csv.

Reads only the CSV (no re-simulation).  Usage: python plot_results.py [results.csv]
"""
import csv
import sys
from collections import defaultdict

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

path = sys.argv[1] if len(sys.argv) > 1 else "results.csv"
rows = []
with open(path, newline="") as fh:
    for rec in csv.DictReader(fh):
        if not rec["chain_size"]:
            continue  # skipped row
        rows.append(rec)
if not rows:
    raise SystemExit("no usable rows in " + path)

def series(metric):
    acc = defaultdict(list)
    for rec in rows:
        if rec[metric]:
            acc[(rec["p"], int(rec["n"]))].append(float(rec[metric]))
    grouped = defaultdict(dict)
    for (p, n), vals in acc.items():
        grouped[p][n] = sum(vals) / len(vals)
    return grouped

fig, ax = plt.subplots()
for p, by_n in sorted(series("chain_size").items()):
    ns = sorted(by_n)
    ax.plot(ns, [by_n[n] for n in ns], marker="o", label=f"search, p={p}")
for p, by_n in sorted(series("oracle_size").items()):
    ns = sorted(by_n)
    ax.plot(ns, [by_n[n] for n in ns], marker="x", linestyle="--", label=f"oracle, p={p}")
ax.set_xlabel("n")
ax.set_ylabel("control set size")
ax.legend()
fig.savefig("control_set_size.png", dpi=150)

fig, ax = plt.subplots()
for p, by_n in sorted(series("coverage").items()):
    ns = sorted(by_n)
    ax.plot(ns, [by_n[n] for n in ns], marker="o", label=f"p={p}")
ax.set_xlabel("n")
ax.set_ylabel("coverage of top-degree set")
ax.set_ylim(0, 1)
ax.legend()
fig.savefig("degree_heuristic_coverage.png", dpi=150)
print("wrote control_set_size.png and degree_heuristic_coverage.png")
'''


def emit_outputs(rows, out_dir: str) -> tuple[str, str]:
    """Write results.csv and the standalone plot script; returns the paths."""
    text = rows_to_csv(rows)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "results.csv")
    plot_path = os.path.join(out_dir, "plot_results.py")
    try:
        with open(csv_path, "w", newline="") as fh:
            fh.write(text)
        with open(plot_path, "w") as fh:
            fh.write(PLOT_SCRIPT)
    except OSError as exc:
        raise InputError(f"cannot write outputs under {out_dir!r}: {exc}") from None
    return csv_path, plot_path
