import itertools
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from controlsets import (
    InputError,
    WeightedGraph,
    alpha_cohesive,
    complete,
    erdos_renyi,
    format_graph,
    grid,
    grid_layer,
    parse_graph,
    path,
    ring,
    tree,
    uniformly_at_most_cohesive,
)
from controlsets.graph import GraphFormatError, GraphGenerationError, _grid_coords
from conftest import (
    is_symmetric_reference,
    max_min_cohesion_brute,
    random_directed_graph,
    random_simple_graph,
    random_weighted_graph,
)


class TestGenerators:
    def test_complete_edge_count(self):
        assert len(complete(5).undirected_edges()) == 10

    def test_ring_degrees(self):
        g = ring(6)
        assert all(g.out_degree(i) == 2 for i in range(6))

    def test_path_endpoints(self):
        g = path(5)
        assert g.out_degree(0) == 1
        assert g.out_degree(4) == 1
        assert g.out_degree(2) == 2

    def test_grid_5x5_counts(self):
        g = grid(5, 2)
        assert g.n == 25
        # Independent count: pairs at L1 distance exactly 1.
        coords = [_grid_coords(i, 5, 2) for i in range(25)]
        expected = sum(
            1
            for a, b in itertools.combinations(range(25), 2)
            if sum(abs(x - y) for x, y in zip(coords[a], coords[b])) == 1
        )
        assert expected == 40
        assert len(g.undirected_edges()) == expected

    def test_grid_corner_degree(self):
        g = grid(5, 2)
        corner = 0
        assert g.out_degree(corner) == 2

    def test_grid_3d(self):
        g = grid(3, 3)
        assert g.n == 27
        assert len(g.undirected_edges()) == 3 * 2 * 9

    def test_grid_layer(self):
        anti = grid_layer(3, 2, 2)
        assert len(anti) == 3

    def test_tree_roundtrip(self):
        g = tree([-1, 0, 0, 1])
        assert g.out_degree(0) == 2
        assert g.out_degree(3) == 1

    def test_tree_rejects_two_roots(self):
        with pytest.raises(InputError, match="root"):
            tree([-1, -1, 0])

    def test_tree_rejects_cycle(self):
        with pytest.raises(InputError, match="cycle"):
            tree([-1, 2, 1])

    def test_tree_cycle_names_first_repeat(self):
        # Node 1 reaches the root; node 2's walk 2 -> 4 -> 3 -> 4 repeats 4.
        with pytest.raises(InputError, match="cycle through node 4$"):
            tree([-1, 0, 4, 4, 3])

    def test_long_path_tree_builds(self):
        # A path-shaped parent list: one walk to the root per node would be
        # quadratic in n.
        n = 200_000
        g = tree([-1] + list(range(n - 1)))
        assert g.n == n and g.out_degree(0) == 1 and g.out_degree(n // 2) == 2

    def test_erdos_renyi_deterministic(self):
        assert erdos_renyi(10, 0.4, seed=1) == erdos_renyi(10, 0.4, seed=1)

    def test_erdos_renyi_sink_rejected_with_seed(self):
        with pytest.raises(GraphGenerationError, match="seed=0") as err:
            erdos_renyi(2, 0.01, seed=0)
        assert err.value.seed == 0

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            complete(1)
        with pytest.raises(InputError):
            ring(2)
        with pytest.raises(InputError):
            grid(1, 2)
        with pytest.raises(InputError):
            erdos_renyi(5, 0.0, seed=1)


class TestInvariants:
    def test_self_loop_rejected(self):
        with pytest.raises(InputError, match="self-loop"):
            WeightedGraph.from_edges(2, [(0, 0), (0, 1)])

    def test_sink_rejected(self):
        with pytest.raises(InputError, match="sink"):
            WeightedGraph.from_edges(3, [(0, 1)])

    def test_huge_node_count_rejected_before_allocation(self):
        with pytest.raises(GraphFormatError, match="sink"):
            parse_graph("graph 50000000 0 undirected\n")

    @pytest.mark.parametrize(
        "g",
        [
            WeightedGraph.from_edges(4, [(0, 1, 2), (0, 3, 1), (1, 2, 5), (2, 0, 3), (3, 1, 4)], directed=True),
            WeightedGraph.from_edges(5, [(0, 1, 3), (1, 2, 1), (2, 3, 2), (3, 4, 7), (0, 4, 2), (1, 3, 4)]),
        ],
        ids=["directed", "weighted"],
    )
    def test_in_rows_reverse_rows(self, g):
        expected = [[] for _ in range(g.n)]
        for i, row in enumerate(g.rows):
            for j, w in row:
                expected[j].append((i, w))
        assert g.in_rows == tuple(tuple(sorted(row)) for row in expected)

    def test_duplicate_arc_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            WeightedGraph.from_edges(2, [(0, 1), (1, 0)])

    # One case per message, each with a lower-ranked fault beside it: per
    # arc, range before self-loop before weight, the first bad arc first,
    # and every arc before the sink.  n = 10**12 takes the path for more
    # nodes than arcs, which must not allocate per node.
    HUGE = 10**12

    @pytest.mark.parametrize(
        "n, arcs, message",
        [
            (0, {(0, 0): 0}, "graph needs at least one node, got n=0"),
            (2, {(0, 1): 1, (2, 2): 0}, "arc (2,2) out of range for n=2"),
            (HUGE, {(0, HUGE): 0}, f"arc (0,{HUGE}) out of range for n={HUGE}"),
            (2, {(1, 1): 0, (0, 1): 1}, "self-loop at node 1 is not allowed"),
            (HUGE, {(1, 1): 0}, "self-loop at node 1 is not allowed"),
            (2, {(0, 1): 0, (1, 1): 1}, "arc (0,1) needs a positive integer weight, got 0"),
            (2, {(0, 1): 1, (1, 0): 1.5}, "arc (1,0) needs a positive integer weight, got 1.5"),
            (HUGE, {(0, 1): -1}, "arc (0,1) needs a positive integer weight, got -1"),
            (3, {(0, 1): 1, (1, 0): 1, (0, 2): 1}, "node 2 is a sink (out-degree 0), which is not allowed"),
            (HUGE, {(0, 1): 1, (1, 0): 1}, "node 2 is a sink (out-degree 0), which is not allowed"),
            (2, {(1.0, 0): 1, (0, 1): 1}, "arc (1.0, 0) needs two int endpoints"),
            (2, {(0, 1): 1, ("1", 0): 1}, "arc ('1', 0) needs two int endpoints"),
            (2, {(0, 1, 1): 1, (1, 0): 1}, "arc (0, 1, 1) needs two int endpoints"),
            (2, {5: 1, (0, 1): 1}, "arc 5 needs two int endpoints"),
            # Not indexed per node, a float endpoint here meets the sink error.
            (HUGE, {(1.0, 0): 1}, "node 0 is a sink (out-degree 0), which is not allowed"),
        ],
    )
    def test_constructor_errors_and_their_order(self, n, arcs, message):
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                WeightedGraph(n, arcs)
            assert tracemalloc.get_traced_memory()[1] < 100_000
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "edges, directed, message",
        [
            ([(0, 1), (1, 2), (0, 1, 3)], False, "duplicate arc (0,1)"),
            ([(0, 1), (1, 2), (1, 0)], False, "duplicate arc (1,0)"),
            ([(0, 1), (1, 0), (0, 1)], True, "duplicate arc (0,1)"),
            ([(0, 1), (1, 1), (1, 1)], False, "duplicate arc (1,1)"),
            ([(0, 1), (0, 1, 2, 3)], False, "edge (0, 1, 2, 3) must be (i, j) or (i, j, w)"),
        ],
    )
    def test_from_edges_errors(self, edges, directed, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            WeightedGraph.from_edges(3, edges, directed=directed)

    def test_symmetric_graph_keeps_one_row_table(self):
        g = ring(5)
        assert g.in_rows is g.rows
        # Out- and in-arcs met in different orders still share one table.
        arcs = {(0, 2): 1, (0, 1): 2, (1, 0): 2, (2, 0): 1, (1, 2): 3, (2, 1): 3}
        g = WeightedGraph(3, arcs)
        assert g.in_rows is g.rows and g.is_symmetric()
        directed = WeightedGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)], directed=True)
        uneven = WeightedGraph(3, arcs | {(2, 1): 4})
        for g in directed, uneven:
            assert g.in_rows is not g.rows and not g.is_symmetric()
            assert g.in_rows != g.rows

    def test_positive_weight_required(self):
        with pytest.raises(InputError, match="positive integer"):
            WeightedGraph.from_edges(2, [(0, 1, 0)])

    def test_out_degree_bounds(self):
        g = ring(4)
        with pytest.raises(IndexError):
            g.out_degree(4)

    def test_directed_asymmetric(self):
        g = WeightedGraph.from_edges(2, [(0, 1), (1, 0)], directed=True)
        assert g.is_symmetric()
        g2 = WeightedGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)], directed=True)
        assert not g2.is_symmetric()
        with pytest.raises(InputError):
            g2.undirected_edges()

    @pytest.mark.parametrize("kind", ["undirected", "directed", "asymmetric-weight"])
    def test_symmetry_matches_the_arc_table(self, kind):
        # Equal out- and in-rows against the arc table on random graphs; an
        # asymmetric-weight graph has every reverse arc, one with another weight.
        rng = random.Random(f"symmetric/{kind}")
        verdicts = set()
        for _ in range(40):
            n = rng.randint(2, 9)
            if kind == "directed":
                g = random_directed_graph(rng, n)
            else:
                g = random_weighted_graph(rng, n)
            if kind == "asymmetric-weight":
                arcs = {(i, j): w for i, j, w in g.arcs()}
                arc = rng.choice(sorted(arcs))
                arcs[arc] += rng.randint(1, 3)
                g = WeightedGraph(n, arcs)
            assert g.is_symmetric() == is_symmetric_reference(g), (kind, g.rows)
            verdicts.add(g.is_symmetric())
        assert verdicts == {"undirected": {True}, "directed": {True, False}}.get(kind, {False})


class TestAlphaCohesive:
    def test_complete_graph_triple(self):
        # Each member keeps 2 of its 4 out-neighbors inside: 2 >= 4 * 1/2.
        assert alpha_cohesive(complete(5), {0, 1, 2}, Fraction(1, 2))

    def test_ring_singleton_never_cohesive(self):
        assert not alpha_cohesive(ring(4), {0}, Fraction(1, 100))

    def test_whole_set_fully_cohesive(self):
        g = random_simple_graph(random.Random(4), 7)
        assert alpha_cohesive(g, set(range(7)), 1)

    def test_empty_set_rejected(self):
        with pytest.raises(InputError, match="nonempty"):
            alpha_cohesive(ring(4), set(), Fraction(1, 2))

    def test_monotone_in_alpha(self):
        rng = random.Random(21)
        for _ in range(20):
            g = random_weighted_graph(rng, 6)
            members = set(rng.sample(range(6), rng.randint(1, 6)))
            values = [Fraction(k, 8) for k in range(9)]
            flags = [alpha_cohesive(g, members, a) for a in values]
            # Once it fails at some alpha it must fail for every larger one.
            assert flags == sorted(flags, reverse=True)


class TestUniformlyAtMostCohesive:
    def test_complete_graph_pair(self):
        assert uniformly_at_most_cohesive(complete(5), {0, 1}, Fraction(1, 2))

    def test_triangle_is_one_cohesive(self):
        assert not uniformly_at_most_cohesive(complete(3), {0, 1, 2}, Fraction(1, 2))

    def test_empty_set_vacuous(self):
        assert uniformly_at_most_cohesive(ring(4), set(), Fraction(1, 2))

    def test_large_member_set_is_peeled(self):
        # No size guard: each of 23 members of K24 keeps 22 of 23 arcs inside.
        g = complete(24)
        assert not uniformly_at_most_cohesive(g, set(range(23)), Fraction(1, 2))

    def test_agrees_with_independent_enumeration(self):
        rng = random.Random(33)
        for _ in range(25):
            g = (
                random_simple_graph(rng, rng.randint(3, 8))
                if rng.random() < 0.6
                else random_weighted_graph(rng, rng.randint(3, 7))
            )
            members = set(rng.sample(range(g.n), rng.randint(0, g.n)))
            theta = Fraction(rng.randint(0, 4), 4)
            got = uniformly_at_most_cohesive(g, members, theta)
            best = max_min_cohesion_brute(g, members)
            expected = True if best is None else best <= theta
            assert got == expected

    def test_agrees_with_brute_on_directed_and_weighted(self):
        # theta at the brute-force max-min value is the boundary: the most
        # cohesive subset then has a member exactly at theta, which peels.
        rng = random.Random(34)
        for _ in range(60):
            n = rng.randint(2, 8)
            g = random_directed_graph(rng, n) if rng.random() < 0.6 else random_weighted_graph(rng, n)
            members = set(rng.sample(range(n), rng.randint(0, n)))
            best = max_min_cohesion_brute(g, members)
            thetas = {Fraction(0), Fraction(1), Fraction(rng.randint(0, 12), 12)}
            if best is not None:
                thetas |= {best, best - Fraction(1, 1000)}
            for theta in thetas:
                expected = best is None or best <= theta
                assert uniformly_at_most_cohesive(g, members, theta) == expected, (
                    format_graph(g), sorted(members), theta
                )


class TestTextFormat:
    def test_roundtrip_unweighted(self):
        g = grid(3, 2)
        text = format_graph(g)
        assert parse_graph(text) == g
        assert format_graph(parse_graph(text)) == text

    def test_roundtrip_weighted_directed(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 2), (1, 2, 3), (2, 0, 1)], directed=True)
        text = format_graph(g)
        assert text.startswith("graph 3 3 directed")
        assert parse_graph(text) == g

    def test_header_errors(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_graph("grph 3 1 undirected\n0 1 1\n")
        with pytest.raises(GraphFormatError, match="mode"):
            parse_graph("graph 3 1 sideways\n0 1 1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError, match="2 edges"):
            parse_graph("graph 3 2 undirected\n0 1 1\n")

    def test_edge_line_errors(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_graph("graph 3 1 undirected\n0 one 1\n")
        with pytest.raises(GraphFormatError, match="positive"):
            parse_graph("graph 3 1 undirected\n0 1 -2\n")

    def test_structural_errors_surface(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            parse_graph("graph 2 1 undirected\n0 0 1\n")

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\ngraph 3 2 undirected\n0 1 1\n\n1 2 1\n"
        assert parse_graph(text) == path(3)
