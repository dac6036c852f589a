"""Weighted directed graphs, standard generators, and cohesiveness checks.

Graphs carry nonnegative integer weights, no self-loops, and no sinks
(every node has positive out-degree).  The undirected families used by the
generators are stored as symmetric directed matrices; nothing downstream
assumes symmetry.

Text format (round-trips bit-exactly through :func:`format_graph`)::

    graph <n> <m> directed|undirected
    i j w        # m lines, 0-based endpoints, positive integer weight

An undirected line ``i j w`` stands for both arcs.  Blank lines and lines
starting with ``#`` are ignored.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Sequence

from ._ratio import as_fraction
from .errors import BudgetError, InputError

SUBSET_ENUMERATION_LIMIT = 22


class GraphFormatError(InputError):
    """Malformed graph text; the message carries the offending line number."""


class GraphGenerationError(InputError):
    """A generator produced an invalid graph (e.g. an isolated node)."""

    def __init__(self, message: str, seed=None):
        super().__init__(message)
        self.seed = seed


class WeightedGraph:
    """Immutable weighted directed graph with positive out-degrees."""

    __slots__ = ("n", "rows", "out_degrees", "neighbor_masks", "unit_weights", "provenance")

    def __init__(self, n: int, arcs: Mapping[tuple[int, int], int], provenance=None):
        if n < 1:
            raise InputError(f"graph needs at least one node, got n={n}")
        rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (i, j), w in arcs.items():
            if not (0 <= i < n and 0 <= j < n):
                raise InputError(f"arc ({i},{j}) out of range for n={n}")
            if i == j:
                raise InputError(f"self-loop at node {i} is not allowed")
            if not isinstance(w, int) or w <= 0:
                raise InputError(f"arc ({i},{j}) needs a positive integer weight, got {w!r}")
            rows[i].append((j, w))
        for i in range(n):
            rows[i].sort()
        degrees = tuple(sum(w for _, w in row) for row in rows)
        for i, d in enumerate(degrees):
            if d == 0:
                raise InputError(f"node {i} is a sink (out-degree 0), which is not allowed")
        masks = []
        unit = True
        for row in rows:
            m = 0
            for j, w in row:
                m |= 1 << j
                if w != 1:
                    unit = False
            masks.append(m)
        self.n = n
        self.rows = tuple(tuple(row) for row in rows)
        self.out_degrees = degrees
        self.neighbor_masks = tuple(masks)
        self.unit_weights = unit
        self.provenance = dict(provenance) if provenance else {}

    @classmethod
    def from_edges(cls, n: int, edges: Iterable, directed: bool = False, provenance=None) -> "WeightedGraph":
        """Build a graph from (i, j) or (i, j, w) tuples.

        With ``directed=False`` every edge contributes both arcs; listing the
        same pair twice is rejected rather than summed.
        """
        arcs: dict[tuple[int, int], int] = {}

        def add(i, j, w):
            if (i, j) in arcs:
                raise InputError(f"duplicate arc ({i},{j})")
            arcs[(i, j)] = w

        for edge in edges:
            if len(edge) == 2:
                i, j = edge
                w = 1
            elif len(edge) == 3:
                i, j, w = edge
            else:
                raise InputError(f"edge {edge!r} must be (i, j) or (i, j, w)")
            add(i, j, w)
            if not directed and i != j:
                add(j, i, w)
        return cls(n, arcs, provenance=provenance)

    def out_degree(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"node {i} out of range for n={self.n}")
        return self.out_degrees[i]

    def neighbors(self, i: int) -> tuple[tuple[int, int], ...]:
        if not 0 <= i < self.n:
            raise IndexError(f"node {i} out of range for n={self.n}")
        return self.rows[i]

    def weight(self, i: int, j: int) -> int:
        for k, w in self.neighbors(i):
            if k == j:
                return w
        return 0

    def arcs(self):
        for i, row in enumerate(self.rows):
            for j, w in row:
                yield i, j, w

    def arc_count(self) -> int:
        return sum(len(row) for row in self.rows)

    def is_symmetric(self) -> bool:
        table = {(i, j): w for i, j, w in self.arcs()}
        return all(table.get((j, i)) == w for (i, j), w in table.items())

    def undirected_edges(self) -> tuple[tuple[int, int, int], ...]:
        """Edges as (i, j, w) with i < j; only valid for symmetric graphs."""
        if not self.is_symmetric():
            raise InputError("graph is not symmetric; it has no undirected edge list")
        return tuple((i, j, w) for i, j, w in self.arcs() if i < j)

    def __eq__(self, other):
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, arcs={self.arc_count()})"


# ---------------------------------------------------------------------------
# generators


def complete(n: int) -> WeightedGraph:
    if n < 2:
        raise InputError(f"complete graph needs n >= 2, got {n}")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return WeightedGraph.from_edges(n, edges, provenance={"family": "complete", "n": n})


def ring(n: int) -> WeightedGraph:
    if n < 3:
        raise InputError(f"ring needs n >= 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return WeightedGraph.from_edges(n, edges, provenance={"family": "ring", "n": n})


def path(n: int) -> WeightedGraph:
    if n < 2:
        raise InputError(f"path needs n >= 2, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)]
    return WeightedGraph.from_edges(n, edges, provenance={"family": "path", "n": n})


def grid(k: int, d: int) -> WeightedGraph:
    """d-dimensional grid on {0..k-1}^d; nodes adjacent at L1 distance 1."""
    if k < 2 or d < 1:
        raise InputError(f"grid needs k >= 2 and d >= 1, got k={k}, d={d}")
    n = k**d
    edges = []
    for idx in range(n):
        coords = _grid_coords(idx, k, d)
        for h in range(d):
            if coords[h] + 1 < k:
                edges.append((idx, idx + k**h))
    return WeightedGraph.from_edges(
        n, edges, provenance={"family": "grid", "k": k, "d": d}
    )


def _grid_coords(idx: int, k: int, d: int) -> tuple[int, ...]:
    out = []
    for _ in range(d):
        out.append(idx % k)
        idx //= k
    return tuple(out)


def grid_layer(k: int, d: int, level: int) -> frozenset[int]:
    """Nodes of grid(k, d) whose coordinates sum to ``level``."""
    return frozenset(
        idx for idx in range(k**d) if sum(_grid_coords(idx, k, d)) == level
    )


def tree(parents: Sequence[int]) -> WeightedGraph:
    """Tree from a parent list; the root has parent -1."""
    n = len(parents)
    if n < 2:
        raise InputError(f"tree needs n >= 2, got {n}")
    roots = [i for i, p in enumerate(parents) if p == -1]
    if len(roots) != 1:
        raise InputError(f"tree needs exactly one root (parent -1), found {len(roots)}")
    edges = []
    for i, p in enumerate(parents):
        if p == -1:
            continue
        if not 0 <= p < n:
            raise InputError(f"parent {p} of node {i} out of range")
        edges.append((i, p))
    # Cycle check: every node must reach the root.
    for i in range(n):
        seen = set()
        v = i
        while v != -1:
            if v in seen:
                raise InputError(f"parent list has a cycle through node {v}")
            seen.add(v)
            v = parents[v]
    return WeightedGraph.from_edges(
        n, edges, provenance={"family": "tree", "parents": tuple(parents)}
    )


def erdos_renyi(n: int, p: float, seed) -> WeightedGraph:
    """Seeded random graph: each pair linked independently with probability p.

    A draw producing an isolated node is rejected with the seed reported,
    never silently resampled, so the generator stays a pure function of
    (n, p, seed).
    """
    if n < 2:
        raise InputError(f"random graph needs n >= 2, got {n}")
    p = float(p)
    if not 0 < p <= 1:
        raise InputError(f"edge probability must be in (0, 1], got {p}")
    rng = random.Random(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    touched = set()
    for i, j in edges:
        touched.add(i)
        touched.add(j)
    if len(touched) != n:
        isolated = sorted(set(range(n)) - touched)
        raise GraphGenerationError(
            f"random draw produced isolated node(s) {isolated} "
            f"(n={n}, p={p}, seed={seed!r}); pick another seed",
            seed=seed,
        )
    return WeightedGraph.from_edges(
        n, edges, provenance={"family": "erdos_renyi", "n": n, "p": p, "seed": seed}
    )


_FAMILIES = {
    "complete": complete,
    "ring": ring,
    "path": path,
    "grid": grid,
    "tree": tree,
    "erdos_renyi": erdos_renyi,
}


def generate(family: str, **params) -> WeightedGraph:
    """Build a graph of a named generator family from keyword parameters,
    e.g. ``generate("grid", k=3, d=2)``.  The CLI's ``generate`` command
    builds through it."""
    try:
        fn = _FAMILIES[family]
    except KeyError:
        raise InputError(
            f"unknown graph family {family!r}; choose from {sorted(_FAMILIES)}"
        ) from None
    return fn(**params)


# ---------------------------------------------------------------------------
# cohesiveness


def _normalize_members(g: WeightedGraph, members) -> list[int]:
    out = sorted(set(members))
    for i in out:
        if not 0 <= i < g.n:
            raise InputError(f"node {i} out of range for n={g.n}")
    return out


def alpha_cohesive(g: WeightedGraph, members, alpha) -> bool:
    """True iff every member keeps at least an ``alpha`` fraction of its
    out-weight inside the set.  Exact rational comparison."""
    ms = _normalize_members(g, members)
    if not ms:
        raise InputError("cohesiveness of the empty set is vacuous; pass a nonempty set")
    a = as_fraction(alpha)
    inside = set(ms)
    for i in ms:
        total = sum(w for j, w in g.rows[i] if j in inside)
        if total * a.denominator < a.numerator * g.out_degrees[i]:
            return False
    return True


def uniformly_at_most_cohesive(g: WeightedGraph, members, theta, max_size: int = SUBSET_ENUMERATION_LIMIT) -> bool:
    """True iff no nonempty subset of ``members`` holds together more tightly
    than ``theta``.

    Enumerates every nonempty subset and looks for one whose members all
    keep strictly more than a ``theta`` fraction of their out-weight inside
    it.  Exponential in ``len(members)``; guarded by ``max_size``.
    """
    ms = _normalize_members(g, members)
    k = len(ms)
    if k == 0:
        return True
    if k > max_size:
        raise BudgetError(
            f"subset enumeration over {k} nodes exceeds the budget of {max_size}"
        )
    t = as_fraction(theta)
    p, q = t.numerator, t.denominator
    bounds = [p * g.out_degrees[i] for i in ms]
    pos = {node: a for a, node in enumerate(ms)}
    if g.unit_weights:
        local = []
        for i in ms:
            m = 0
            for j, _ in g.rows[i]:
                if j in pos:
                    m |= 1 << pos[j]
            local.append(m)
        for sub in range(1, 1 << k):
            rest = sub
            held = True
            while rest:
                low = rest & -rest
                a = low.bit_length() - 1
                if (local[a] & sub).bit_count() * q <= bounds[a]:
                    held = False
                    break
                rest ^= low
            if held:
                return False
        return True
    weighted = [
        tuple((pos[j], w) for j, w in g.rows[i] if j in pos) for i in ms
    ]
    for sub in range(1, 1 << k):
        rest = sub
        held = True
        while rest:
            low = rest & -rest
            a = low.bit_length() - 1
            inside = sum(w for b, w in weighted[a] if (sub >> b) & 1)
            if inside * q <= bounds[a]:
                held = False
                break
            rest ^= low
        if held:
            return False
    return True


# ---------------------------------------------------------------------------
# text format


def parse_graph(text: str) -> WeightedGraph:
    """Parse the graph text format; errors carry 1-based line numbers."""
    header = None
    body: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = (lineno, line)
        else:
            body.append((lineno, line))
    if header is None:
        raise GraphFormatError("empty graph file")
    lineno, line = header
    parts = line.split()
    if len(parts) != 4 or parts[0] != "graph":
        raise GraphFormatError(
            f"line {lineno}: expected header 'graph <n> <m> directed|undirected'"
        )
    try:
        n, m = int(parts[1]), int(parts[2])
    except ValueError:
        raise GraphFormatError(f"line {lineno}: n and m must be integers") from None
    if parts[3] not in ("directed", "undirected"):
        raise GraphFormatError(f"line {lineno}: mode must be 'directed' or 'undirected'")
    directed = parts[3] == "directed"
    if len(body) != m:
        raise GraphFormatError(
            f"header declares {m} edges but file has {len(body)} edge lines"
        )
    edges = []
    for lineno, line in body:
        toks = line.split()
        if len(toks) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'i j w'")
        try:
            i, j, w = int(toks[0]), int(toks[1]), int(toks[2])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: endpoints and weight must be integers") from None
        if w <= 0:
            raise GraphFormatError(f"line {lineno}: weight must be positive, got {w}")
        edges.append((i, j, w))
    try:
        return WeightedGraph.from_edges(n, edges, directed=directed)
    except InputError as exc:
        raise GraphFormatError(str(exc)) from None


def format_graph(g: WeightedGraph) -> str:
    """Canonical text form; symmetric graphs are written undirected."""
    if g.is_symmetric():
        edges = g.undirected_edges()
        lines = [f"graph {g.n} {len(edges)} undirected"]
        lines += [f"{i} {j} {w}" for i, j, w in edges]
    else:
        arcs = sorted(g.arcs())
        lines = [f"graph {g.n} {len(arcs)} directed"]
        lines += [f"{i} {j} {w}" for i, j, w in arcs]
    return "\n".join(lines) + "\n"
