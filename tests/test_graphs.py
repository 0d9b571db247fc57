"""Labeled graphs, homomorphism counts, and the regularization gadget."""

import random
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from kunzlab.graphs import (
    LabeledGraph,
    complete_bipartite,
    degree_deficit,
    graph_from_text,
    graph_to_text,
    heavy_index_graph,
    hom_count,
    hom_kdd,
    regularize,
    threshold_graph,
    threshold_target,
)


# ---------------------------------------------------------------------------
# the graph type itself
# ---------------------------------------------------------------------------


def test_multiedges_count_toward_degree():
    g = LabeledGraph(3, [(1, 2), (1, 2), (2, 3)])
    assert g.degree(1) == 2
    assert g.degree(2) == 3
    assert g.edges().count((1, 2)) == 2
    assert g.neighbors(2) == {1, 3}
    assert g.has_edge(2, 1)


def test_loops_add_two_to_degree():
    g = LabeledGraph(2, [(1, 1), (1, 2)])
    assert g.degree(1) == 3
    assert g.degree(2) == 1
    assert not g.is_loop_free()
    assert g.has_edge(1, 1)
    assert 1 in g.neighbors(1)


def test_equality_sees_multiplicity():
    single = LabeledGraph(2, [(1, 2)])
    double = LabeledGraph(2, [(1, 2), (2, 1)])
    assert single != double
    assert single == LabeledGraph(2, [(2, 1)])
    assert hash(single) != hash(double)


def test_regularity_check():
    assert complete_bipartite(2, 2).is_regular(2)
    assert not complete_bipartite(1, 2).is_regular(2)
    assert LabeledGraph(2, [(1, 2), (1, 2)]).is_regular(2)


def test_text_round_trip():
    g = LabeledGraph(5, [(1, 2), (1, 2), (3, 3), (4, 5)], red=(4, 5))
    back = graph_from_text(graph_to_text(g))
    assert back == g
    assert graph_from_text("# vertices: 2\n1 2\n") == LabeledGraph(2, [(1, 2)])


@pytest.mark.parametrize("text,number,line", [
    ("1 2\n1 2 3\n", 2, "1 2 3"),
    ("\n# a comment\n  4  \n", 3, "4"),
    ("1 x\n", 1, "1 x"),
    ("# vertices: many\n1 2\n", 1, "# vertices: many"),
    ("1 2\n# red: 1 two\n", 2, "# red: 1 two"),
])
def test_text_names_a_malformed_line(text, number, line):
    with pytest.raises(ValueError) as info:
        graph_from_text(text)
    assert str(info.value) == (f"graph text line {number} is malformed: "
                               f"{line!r}")


# ---------------------------------------------------------------------------
# the specific graphs the bounds use
# ---------------------------------------------------------------------------


def test_threshold_target_edges():
    assert threshold_target(3).edges() == [
        (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
    assert threshold_target(1).edges() == [(1, 1)]
    assert threshold_target(2).edges() == [(1, 1), (1, 2), (2, 2)]
    assert [threshold_target(3).label(v) for v in (1, 2, 3)] == [1, 2, 3]
    with pytest.raises(ValueError):
        threshold_target(0)


def test_threshold_graph_custom_labels():
    g = threshold_graph([5, 1, 1], 6)
    assert g.edges() == [(1, 1), (1, 2), (1, 3)]
    with pytest.raises(ValueError):
        threshold_graph([], 3)


def test_complete_bipartite_shape():
    g = complete_bipartite(2, 3)
    assert g.vertex_count == 5
    assert [g.degree(v) for v in range(1, 6)] == [3, 3, 2, 2, 2]
    assert g.is_loop_free()
    with pytest.raises(ValueError):
        complete_bipartite(0, 2)


def test_heavy_index_graph():
    assert heavy_index_graph(3, {4}).edges() == [(1, 3)]
    assert heavy_index_graph(3, {6}).edges() == []  # only the loop 3+3
    assert heavy_index_graph(4, {5, 6}).edges() == [(1, 4), (2, 3), (2, 4)]
    with pytest.raises(ValueError):
        heavy_index_graph(3, {3})
    with pytest.raises(ValueError):
        heavy_index_graph(0, {2})


def test_degree_deficit():
    g = LabeledGraph(3, [(1, 2)])
    assert degree_deficit(g, 2) == 4
    assert degree_deficit(complete_bipartite(2, 2), 2) == 0


# ---------------------------------------------------------------------------
# homomorphism counting
# ---------------------------------------------------------------------------


def brute_hom(pattern: LabeledGraph, target: LabeledGraph) -> int:
    n, tn = pattern.vertex_count, target.vertex_count
    pattern_edges = pattern.edges()
    total = 0
    for image in product(range(1, tn + 1), repeat=n):
        if all(target.has_edge(image[u - 1], image[v - 1])
               for u, v in pattern_edges):
            total += 1
    return total


def test_hom_count_path_into_target():
    path = LabeledGraph(3, [(1, 2), (2, 3)])
    assert hom_count(path, threshold_target(3)) == 22


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_hom_count_matches_brute(q):
    target = threshold_target(q)
    patterns = [
        LabeledGraph(1, []),
        LabeledGraph(2, [(1, 2)]),
        LabeledGraph(3, [(1, 2), (2, 3), (1, 3)]),
        LabeledGraph(4, [(1, 2), (3, 4)]),
        LabeledGraph(3, [(1, 1), (1, 2)]),          # loop in the pattern
        LabeledGraph(4, [(1, 2), (1, 2), (2, 3)]),  # multi-edge, isolated 4
        complete_bipartite(2, 2),
    ]
    for pattern in patterns:
        assert hom_count(pattern, target) == brute_hom(pattern, target)


def random_pattern(rng: random.Random) -> LabeledGraph:
    """Up to 7 vertices; random endpoints make loops and repeats."""
    n = rng.randint(1, 7)
    edges = [(rng.randint(1, n), rng.randint(1, n))
             for _ in range(rng.randint(0, n + 3))]
    return LabeledGraph(n, edges)


def _components(graph: LabeledGraph) -> int:
    seen: set[int] = set()
    parts = 0
    for v in range(1, graph.vertex_count + 1):
        if v in seen:
            continue
        parts += 1
        stack = [v]
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(graph.neighbors(u))
    return parts


def _random_looped_target() -> LabeledGraph:
    rng = random.Random(7)
    edges = [(u, v) for u in range(1, 5) for v in range(u, 5)
             if rng.random() < 0.5]
    return LabeledGraph(4, edges)


HOM_TARGETS = {
    **{f"threshold{q}": threshold_target(q) for q in range(1, 6)},
    "triangle": LabeledGraph(3, [(1, 2), (2, 3), (1, 3)]),
    "four_cycle": LabeledGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    "random_looped": _random_looped_target(),
}


@pytest.mark.parametrize("name", sorted(HOM_TARGETS))
def test_hom_count_matches_brute_on_random_patterns(name):
    target = HOM_TARGETS[name]
    rng = random.Random(f"hom/{name}")
    patterns = [random_pattern(rng) for _ in range(24)]
    # the sample covers every pattern feature the sweep must handle
    assert any(not p.is_loop_free() for p in patterns)
    assert any(len(p.edges()) > len(set(p.edges())) for p in patterns)
    assert any(p.degree(v) == 0 for p in patterns
               for v in range(1, p.vertex_count + 1))
    assert any(_components(p) > 1 for p in patterns)
    for pattern in patterns:
        assert hom_count(pattern, target) == brute_hom(pattern, target), \
            pattern


def test_random_looped_target_is_not_threshold():
    target = HOM_TARGETS["random_looped"]
    loops = [v for v in range(1, 5) if target.has_edge(v, v)]
    assert 0 < len(loops) < 4


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_hom_count_twelve_cycle_is_trace_of_power(q):
    # hom(C_12, T_q) = trace(A^12), A the adjacency of T_q: i ~ j iff i+j >= q
    a = [[int(i + j >= q) for j in range(1, q + 1)] for i in range(1, q + 1)]
    power = [[int(i == j) for j in range(q)] for i in range(q)]
    for _ in range(12):
        power = [[sum(power[i][k] * a[k][j] for k in range(q))
                  for j in range(q)] for i in range(q)]
    cycle = LabeledGraph(12, [(v, v % 12 + 1) for v in range(1, 13)])
    trace = sum(power[i][i] for i in range(q))
    assert hom_count(cycle, threshold_target(q)) == trace


def test_hom_ignores_edge_multiplicity():
    single = LabeledGraph(3, [(1, 2), (2, 3)])
    doubled = LabeledGraph(3, [(1, 2), (1, 2), (2, 3)])
    t = threshold_target(4)
    assert hom_count(single, t) == hom_count(doubled, t)


def test_hom_count_guard():
    big = LabeledGraph(13, [])
    with pytest.raises(ValueError):
        hom_count(big, threshold_target(2))
    assert hom_count(LabeledGraph(13, []), threshold_target(2),
                     max_vertices=13) == 2 ** 13
    assert hom_count(LabeledGraph(0, []), threshold_target(2)) == 1


def test_hom_kdd_closed_form():
    assert hom_kdd(1, 2) == 4
    assert hom_kdd(1, 3) == 8
    for d in (1, 2, 3):
        for q in (1, 2, 3, 4):
            assert hom_kdd(d, q) == hom_count(
                complete_bipartite(d, d), threshold_target(q))
    with pytest.raises(ValueError):
        hom_kdd(0, 3)


def test_hom_kdd_matches_the_sum_over_both_minima():
    # a side of minimum x has (q-x+1)^d - (q-x)^d assignments, and two
    # sides fit when their minima sum to at least q
    for d in range(1, 9):
        for q in range(1, 41):
            n_min = [(q - x + 1) ** d - (q - x) ** d for x in range(q + 1)]
            pairs = sum(n_min[a] * n_min[b]
                        for a in range(1, q + 1) for b in range(1, q + 1)
                        if a + b >= q)
            assert hom_kdd(d, q) == pairs, (d, q)


def brute_heads(h: int, q: int, positions) -> int:
    """Head assignments whose pair sums onto the given positions reach q.

    Unlike the graph, this also enforces the diagonal constraint 2*w_x >= q
    when 2x is a position, so it can only be smaller than the hom count.
    """
    count = 0
    for head in product(range(1, q + 1), repeat=h):
        ok = True
        for s in positions:
            for x in range(max(1, s - h), s // 2 + 1):
                if head[x - 1] + head[s - x - 1] < q:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


@pytest.mark.parametrize("h,q,positions", [
    (3, 3, (4,)),
    (4, 3, (5, 6)),
    (4, 4, (5, 7)),
    (5, 3, (6, 7, 8)),
])
def test_heavy_graph_homs_bound_heads(h, q, positions):
    g = heavy_index_graph(h, positions)
    assert brute_heads(h, q, positions) <= hom_count(g, threshold_target(q))


# ---------------------------------------------------------------------------
# regularization
# ---------------------------------------------------------------------------


def test_regularize_single_edge():
    out = regularize(LabeledGraph(2, [(1, 2)]), 1)
    assert out.vertex_count == 4
    assert out.red == {3, 4}
    assert out.edges() == [(1, 2), (3, 4)]
    assert out.is_regular(1)


def test_regularize_keeps_regular_cycle():
    cycle = LabeledGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    out = regularize(cycle, 2)
    assert out.is_regular(2)
    assert out.red == {5, 6}
    assert out.edges().count((5, 6)) == 2  # doubled red edge fills both


def test_regularize_cycle_to_three_regular():
    cycle = LabeledGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    out = regularize(cycle, 3)
    assert out.is_regular(3)
    assert out.red == {5, 6, 7, 8}
    assert (1, 2) not in out.edges()  # one blue edge was thinned away
    assert out.edges().count((7, 8)) == 2


def test_regularize_guards():
    with pytest.raises(ValueError):
        regularize(LabeledGraph(2, [(1, 2)]), 0)
    with pytest.raises(ValueError):
        regularize(LabeledGraph(2, [(1, 1)]), 2)           # loop
    with pytest.raises(ValueError):
        regularize(LabeledGraph(2, [(1, 2)], red=(2,)), 2)  # red input
    with pytest.raises(ValueError):
        regularize(complete_bipartite(1, 3), 2)            # degree 3 > d


_PAIRS = [(u, v) for u in range(1, 7) for v in range(u + 1, 7)]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 6),
    d=st.integers(1, 3),
    picked=st.sets(st.sampled_from(_PAIRS), max_size=9),
)
def test_regularize_postconditions(n, d, picked):
    edges = [(u, v) for u, v in picked if v <= n]
    g = LabeledGraph(n, edges)
    assume(all(g.degree(v) <= d for v in range(1, n + 1)))
    out = regularize(g, d)
    assert out.is_regular(d)
    # every original vertex is still blue, reds come after
    assert out.red == set(range(n + n % 2 + 1, out.vertex_count + 1))
    padded_deficit = d * (n + n % 2) - 2 * len(edges)
    assert out.vertex_count <= (
        1 + max(3 + padded_deficit // d, 2 * ((d + 1) // 2)) + n)
    # homomorphisms into the threshold target never decrease
    for q in (2, 3):
        assert (hom_count(g, threshold_target(q))
                <= hom_count(out, threshold_target(q), max_vertices=16))
