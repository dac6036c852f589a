"""Shared helpers: seeded instance generators and independent oracles."""

from __future__ import annotations

import random
from fractions import Fraction

from controlsets import (
    Cnf3,
    erdos_renyi,
    majority_game,
    random_supermodular_table,
)
from controlsets.graph import GraphGenerationError, WeightedGraph


def random_simple_graph(rng: random.Random, n: int, p: float = 0.5) -> WeightedGraph:
    """Seeded random simple graph, advancing derived seeds past sink draws."""
    for attempt in range(200):
        seed = f"fixture/{n}/{p}/{rng.randint(0, 10**9)}/{attempt}"
        try:
            return erdos_renyi(n, p, seed)
        except GraphGenerationError:
            continue
    raise AssertionError("could not draw a sink-free graph")


def random_weighted_graph(rng: random.Random, n: int, max_w: int = 4) -> WeightedGraph:
    """Random symmetric integer-weighted graph without sinks."""
    while True:
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    edges.append((i, j, rng.randint(1, max_w)))
        touched = {v for e in edges for v in e[:2]}
        if len(touched) == n:
            return WeightedGraph.from_edges(n, edges)


def random_game(rng: random.Random, n: int):
    """Either a majority game on a random graph or a random monotone table."""
    if rng.random() < 0.5:
        return majority_game(random_simple_graph(rng, n))
    return random_supermodular_table(min(n, 8), rng)


def cascade_random_order(game, seed_players, rng: random.Random) -> frozenset[int]:
    """Cascade that flips a uniformly random eligible player each step;
    independent of the package's lowest-index rule."""
    mask = 0
    for p in seed_players:
        mask |= 1 << p
    n = game.n
    while True:
        eligible = [
            i
            for i in range(n)
            if not (mask >> i) & 1 and game.delta_sign(i, mask) >= 0
        ]
        if not eligible:
            break
        mask |= 1 << rng.choice(eligible)
    return frozenset(i for i in range(n) if (mask >> i) & 1)


def max_min_cohesion_brute(g: WeightedGraph, members) -> Fraction | None:
    """Independent route for cohesiveness: enumerate subsets in descending
    mask order, no early exit, and return the max-min inside fraction."""
    ms = sorted(set(members))
    k = len(ms)
    best = None
    for sub in range((1 << k) - 1, 0, -1):
        chosen = [ms[a] for a in range(k) if (sub >> a) & 1]
        inside = set(chosen)
        ratios = [
            Fraction(sum(w for j, w in g.rows[i] if j in inside), g.out_degrees[i])
            for i in chosen
        ]
        low = min(ratios)
        if best is None or low > best:
            best = low
    return best


def random_cnf3(rng: random.Random, max_vars: int = 6, max_clauses: int = 6) -> Cnf3:
    nv = rng.randint(3, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, nv + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return Cnf3(nv, tuple(clauses))


def transition_rows_reference(game, states, epsilon) -> list[dict[int, Fraction]]:
    """One-step kernel rows over ``states`` built by accumulation: every
    admissible flip adds its probability, the diagonal takes the remainder."""
    n = game.n
    index = {s.mask: a for a, s in enumerate(states)}
    rows = []
    for a, s in enumerate(states):
        row: dict[int, Fraction] = {}
        for i in range(n):
            bit = 1 << i
            prob = Fraction(1, n) if s.mask & bit else Fraction(epsilon) / n
            if prob and game.delta_sign(i, s.mask) >= 0:
                b = index[s.mask ^ bit]
                row[b] = row.get(b, Fraction(0)) + prob
        row[a] = row.get(a, Fraction(0)) + 1 - sum(row.values())
        rows.append(row)
    return rows
