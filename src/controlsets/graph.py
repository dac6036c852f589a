"""Weighted directed graphs, standard generators, and cohesiveness checks.

Graphs carry nonnegative integer weights, no self-loops, and no sinks
(every node has positive out-degree).  The undirected families used by the
generators are stored as symmetric directed matrices; nothing downstream
assumes symmetry.  Each graph also keeps its in-arcs (``in_rows``), which
a symmetric graph shares with its out-arcs (``in_rows is rows``).

Text format (round-trips bit-exactly through :func:`format_graph`)::

    graph <n> <m> directed|undirected
    i j w

The header is followed by ``m`` edge lines with 0-based endpoints and a
positive integer weight; an undirected line ``i j w`` stands for both
arcs.  Blank lines and lines starting with ``#`` are ignored, and errors
name the file line.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Iterable, Mapping, Sequence

from ._ratio import as_count, as_fraction
from .errors import InputError


class GraphFormatError(InputError):
    """Malformed graph text; the message carries the offending line number."""


class GraphGenerationError(InputError):
    """A generator produced an invalid graph (e.g. an isolated node)."""

    def __init__(self, message: str, seed=None):
        super().__init__(message)
        self.seed = seed


class WeightedGraph:
    """Immutable weighted directed graph with positive out-degrees."""

    __slots__ = ("n", "rows", "in_rows", "out_degrees")

    def __init__(self, n: int, arcs: Mapping[tuple[int, int], int]):
        as_count(n, "n", 2)
        # With more nodes than arcs some node is a sink; dicts then keep the
        # time and memory of the checks bounded by the arcs, not by n.
        if n <= len(arcs):
            out, into, degrees = [[] for _ in range(n)], [[] for _ in range(n)], [0] * n
        else:
            out, into, degrees = defaultdict(list), defaultdict(list), defaultdict(int)
        try:
            for arc, w in arcs.items():
                i, j = arc
                if not (0 <= i < n and 0 <= j < n):
                    raise InputError(f"arc ({i},{j}) out of range for n={n}")
                if i == j:
                    raise InputError(f"self-loop at node {i} is not allowed")
                if not isinstance(w, int) or w <= 0:
                    raise InputError(f"arc ({i},{j}) needs a positive integer weight, got {w!r}")
                out[i].append((j, w))
                into[j].append((i, w))
                degrees[i] += w
        except (TypeError, ValueError):
            raise InputError(f"arc {arc!r} needs two int endpoints") from None
        if len(out) < n or not all(out):
            sink = next(i for i in range(n) if not out[i])  # at most len(arcs)
            raise InputError(f"node {sink} is a sink (out-degree 0), which is not allowed")
        rows = tuple(map(tuple, map(sorted, out)))
        self.n = n
        self.rows = rows
        # in_rows[j] lists (i, w) for every arc i -> j, sorted by source i.
        # A symmetric graph keeps one table; an undirected edge list fills
        # ``into`` in the order of ``out``, so its sort is skipped.
        in_rows = rows if into == out else tuple(map(tuple, map(sorted, into)))
        self.in_rows = rows if in_rows == rows else in_rows
        self.out_degrees = tuple(degrees)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable, directed: bool = False) -> "WeightedGraph":
        """Build a graph from (i, j) or (i, j, w) tuples.

        With ``directed=False`` every edge contributes both arcs; listing the
        same pair twice is rejected rather than summed.
        """
        arcs: dict[tuple[int, int], int] = {}
        for edge in edges:
            if len(edge) == 2:
                i, j = edge
                w = 1
            elif len(edge) == 3:
                i, j, w = edge
            else:
                raise InputError(f"edge {edge!r} must be (i, j) or (i, j, w)")
            if (i, j) in arcs:
                raise InputError(f"duplicate arc ({i},{j})")
            arcs[i, j] = w
            if not directed:  # undirected arcs come in pairs, so (j, i) is new too
                arcs[j, i] = w
        return cls(n, arcs)

    def out_degree(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"node {i} out of range for n={self.n}")
        return self.out_degrees[i]

    def neighbors(self, i: int) -> tuple[tuple[int, int], ...]:
        if not 0 <= i < self.n:
            raise IndexError(f"node {i} out of range for n={self.n}")
        return self.rows[i]

    def arcs(self):
        for i, row in enumerate(self.rows):
            for j, w in row:
                yield i, j, w

    def arc_count(self) -> int:
        return sum(map(len, self.rows))

    def is_symmetric(self) -> bool:
        # Both sorted by neighbor, no repeats: equal iff each arc has its
        # mirror, and equal tables are kept as one.
        return self.in_rows is self.rows

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
    as_count(n, "n", 2)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return WeightedGraph.from_edges(n, edges)


def ring(n: int) -> WeightedGraph:
    as_count(n, "n", 3)
    edges = [(i, (i + 1) % n) for i in range(n)]
    return WeightedGraph.from_edges(n, edges)


def path(n: int) -> WeightedGraph:
    as_count(n, "n", 2)
    edges = [(i, i + 1) for i in range(n - 1)]
    return WeightedGraph.from_edges(n, edges)


def grid(k: int, d: int) -> WeightedGraph:
    """d-dimensional grid on {0..k-1}^d; nodes adjacent at L1 distance 1."""
    as_count(k, "k", 2)
    as_count(d, "d", 1)
    n = k**d
    edges = []
    for idx in range(n):
        coords = _grid_coords(idx, k, d)
        for h in range(d):
            if coords[h] + 1 < k:
                edges.append((idx, idx + k**h))
    return WeightedGraph.from_edges(n, edges)


def _grid_coords(idx: int, k: int, d: int) -> tuple[int, ...]:
    return tuple(idx // k**h % k for h in range(d))


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
    # Cycle check: every node must reach the root.  A walk stops at the first
    # node known to reach it, so each node is walked once.
    reaches = {-1}
    for i in range(n):
        seen = set()
        v = i
        while v not in reaches:
            if v in seen:
                raise InputError(f"parent list has a cycle through node {v}")
            seen.add(v)
            v = parents[v]
        reaches |= seen
    return WeightedGraph.from_edges(n, edges)


def erdos_renyi(n: int, p: float, seed) -> WeightedGraph:
    """Seeded random graph: each pair linked independently with probability p.

    A draw producing an isolated node is rejected with the seed reported,
    never silently resampled, so the generator stays a pure function of
    (n, p, seed).
    """
    as_count(n, "n", 2)
    p = float(p)
    if not 0 < p <= 1:
        raise InputError(f"edge probability must be in (0, 1], got {p}")
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    touched = {v for edge in edges for v in edge}
    if len(touched) != n:
        isolated = sorted(set(range(n)) - touched)
        raise GraphGenerationError(
            f"random draw produced isolated node(s) {isolated} "
            f"(n={n}, p={p}, seed={seed!r}); pick another seed",
            seed=seed,
        )
    return WeightedGraph.from_edges(n, edges)


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


def uniformly_at_most_cohesive(g: WeightedGraph, members, theta) -> bool:
    """True iff no nonempty subset of ``members`` holds together more tightly
    than ``theta``, i.e. no subset whose members all keep strictly more than
    a ``theta`` fraction of their out-weight inside it.

    Such subsets are closed under union, so there is a unique largest one,
    and deleting members at or below ``theta`` one at a time finds it
    (Morris, "Contagion", Rev. Econ. Stud. 2000).  The answer is True
    exactly when this peeling empties ``members``.  It takes O(arcs) exact
    integer comparisons.
    """
    ms = _normalize_members(g, members)
    t = as_fraction(theta)
    p, q = t.numerator, t.denominator
    live = set(ms)
    # slack[i] > 0 iff i keeps more than theta of its out-weight in ``live``.
    slack = {
        i: q * sum(w for j, w in g.rows[i] if j in live) - p * g.out_degrees[i]
        for i in ms
    }
    work = [i for i in ms if slack[i] <= 0]
    live.difference_update(work)
    while work:
        j = work.pop()
        for i, w in g.in_rows[j]:
            if i in live:
                slack[i] -= q * w
                if slack[i] <= 0:
                    live.discard(i)
                    work.append(i)
    return not live


# ---------------------------------------------------------------------------
# text format


def _text_lines(text: str, comment: str = "#") -> list[tuple[int, str]]:
    """``(file line number, stripped line)`` for every line of ``text`` that
    is neither blank nor starts with ``comment``; every text format reads
    its lines through here, so every error can name its file line."""
    lines = ((no, raw.strip()) for no, raw in enumerate(text.splitlines(), 1))
    return [(no, line) for no, line in lines if line and not line.startswith(comment)]


def _read_graph(lines: list[tuple[int, str]], whole: bool = False):
    """Read a ``graph <n> <m> <mode>`` header and its ``m`` edge lines off
    the front of ``lines`` (from :func:`_text_lines`).  Returns the graph
    and the lines left over; with ``whole`` none may be left."""
    if not lines:
        raise GraphFormatError("file ends before the header 'graph <n> <m> directed|undirected'")
    head, line = lines[0]
    parts = line.split()
    if len(parts) != 4 or parts[0] != "graph":
        raise GraphFormatError(f"line {head}: expected header 'graph <n> <m> directed|undirected'")
    try:
        n, m = int(parts[1]), int(parts[2])
    except ValueError:
        raise GraphFormatError(f"line {head}: n and m must be integers") from None
    if parts[3] not in ("directed", "undirected"):
        raise GraphFormatError(f"line {head}: mode must be 'directed' or 'undirected'")
    given = len(lines) - 1
    if not 0 <= m <= given or (whole and m != given):
        raise GraphFormatError(
            f"line {head}: header declares {m} edges but file has {given} edge lines"
        )
    edges = []
    for no, line in lines[1 : m + 1]:
        toks = line.split()
        if len(toks) != 3:
            raise GraphFormatError(f"line {no}: expected 'i j w'")
        try:
            i, j, w = int(toks[0]), int(toks[1]), int(toks[2])
        except ValueError:
            raise GraphFormatError(f"line {no}: endpoints and weight must be integers") from None
        if w <= 0:
            raise GraphFormatError(f"line {no}: weight must be positive, got {w}")
        edges.append((i, j, w))
    try:
        graph = WeightedGraph.from_edges(n, edges, directed=parts[3] == "directed")
    except InputError as exc:
        raise GraphFormatError(f"line {head}: {exc}") from None
    return graph, lines[m + 1 :]


def parse_graph(text: str) -> WeightedGraph:
    """Parse the graph text format; errors carry 1-based line numbers."""
    return _read_graph(_text_lines(text), whole=True)[0]


def format_graph(g: WeightedGraph) -> str:
    """Canonical text form; symmetric graphs are written undirected."""
    symmetric = g.is_symmetric()
    edges = g.undirected_edges() if symmetric else sorted(g.arcs())
    lines = [f"graph {g.n} {len(edges)} {'undirected' if symmetric else 'directed'}"]
    lines += [f"{i} {j} {w}" for i, j, w in edges]
    return "\n".join(lines) + "\n"
