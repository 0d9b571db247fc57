"""The hom suite's census of labeled regular graphs, its orbit check, its
brute-force oracle and its vertex bound, and the MED identities' use of
their counts."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from kunzlab import graphs, verify

# labeled d-regular graphs on n vertices: A001147 (d = 1), A001205 (d = 2),
# A002829 (d = 3)
LABELED = {
    1: {2: 1, 4: 3, 6: 15, 8: 105},
    2: {3: 1, 4: 3, 5: 12, 6: 70, 7: 465, 8: 3507},
    3: {4: 1, 6: 70, 8: 19355},
}


def _pairs(n):
    return list(itertools.combinations(range(1, n + 1), 2))


def _decode(mask, n):
    """The edges of an edge-bit mask: bit i is the i-th pair of 1..n."""
    return tuple(pair for i, pair in enumerate(_pairs(n)) if mask >> i & 1)


@pytest.mark.parametrize("d", sorted(LABELED))
def test_labeled_regular_matches_oeis(d):
    for n in range(2, 9):
        masks = list(verify._labeled_regular(n, d))
        assert len(set(masks)) == len(masks)
        assert len(masks) == LABELED[d].get(n, 0)
        for edges in (_decode(mask, n) for mask in masks):
            degree = [0] * (n + 1)
            for u, v in edges:
                assert 1 <= u < v <= n
                degree[u] += 1
                degree[v] += 1
            assert degree[1:] == [d] * n


def test_hom_suite_counts_shapes_and_labeled_graphs():
    result = verify.check_hom_suite()
    assert result.passed, result.detail
    assert "over 23 shapes covering 23608 labeled regular graphs" in result.detail


GENERATE = verify._labeled_regular


@pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 8)
                                 for d in range(1, 4)] + [(8, 1)])
def test_labeled_regular_matches_brute_force(n, d):
    # every set of n*d/2 edges, in the order of `combinations`, kept when
    # each vertex meets d of them
    pairs = _pairs(n)
    want = []
    for picked in itertools.combinations(range(len(pairs)), n * d // 2):
        degree = [0] * (n + 1)
        for i in picked:
            u, v = pairs[i]
            degree[u] += 1
            degree[v] += 1
        if degree[1:] == [d] * n:
            want.append(sum(1 << i for i in picked))
    assert list(GENERATE(n, d)) == want


@pytest.mark.parametrize("d", range(1, 4))
def test_labeled_regular_edges_increase(d):
    # the index-based mutants below rely on this order
    for n in range(2, 9):
        edges = [_decode(mask, n) for mask in GENERATE(n, d)]
        assert all(a < b for a, b in zip(edges, edges[1:]))


@pytest.mark.parametrize("n", range(2, 9))
def test_orbit_matches_every_permutation(n):
    # the orbit of each class's first graph, against the masks of all n!
    # relabelings of its edges
    bit = [[0] * (n + 1) for _ in range(n + 1)]
    for i, (u, v) in enumerate(itertools.combinations(range(1, n + 1), 2)):
        bit[u][v] = bit[v][u] = 1 << i
    gens = verify._generator_tables(n, bit)
    for d in range(1, 4):
        labeled = set()
        seen = set()
        for mask in GENERATE(n, d):
            labeled.add(mask)
            if mask in seen:
                continue
            edges = _decode(mask, n)
            relabeled = {sum(bit[p[u - 1]][p[v - 1]] for u, v in edges)
                         for p in itertools.permutations(range(1, n + 1))}
            assert verify._orbit(mask, gens) == relabeled, (n, d, edges)
            seen |= relabeled
        assert seen == labeled


@pytest.mark.parametrize("dropped", [0, 1])
def test_hom_suite_needs_both_generators(monkeypatch, dropped):
    # (1 2) alone, or the n-cycle alone, generates a smaller group than
    # S_n, whose orbits split the classes: the check itself must see that
    # the class count of some (n, d) is off, not only this test's total
    tables = verify._generator_tables

    def mutant(n, bit):
        gens = tables(n, bit)
        del gens[dropped]
        return gens

    monkeypatch.setattr(verify, "_generator_tables", mutant)
    result = verify.check_hom_suite()
    assert not result.passed
    assert "-regular graphs on " in result.detail
    assert "vertices fall into" in result.detail


def _has_edge_oracle(pattern, target):
    """Homomorphisms by brute force, one ``has_edge`` call per pattern edge
    per assignment."""
    total = 0
    for image in itertools.product(range(1, target.vertex_count + 1),
                                   repeat=pattern.vertex_count):
        if all(target.has_edge(image[u - 1], image[v - 1])
               for u, v in pattern.edges()):
            total += 1
    return total


def _random_pattern(rng):
    """A graph on 1..6 vertices whose edges may repeat and include loops."""
    n = rng.randint(1, 6)
    edges = [(rng.randint(1, n), rng.randint(1, n))
             for _ in range(rng.randint(0, 2 * n))]
    return graphs.LabeledGraph(n, edges)


@pytest.mark.parametrize("q", range(1, 5))
def test_hom_oracle_matches_has_edge_brute_force(q):
    # vertex 1 of threshold_target(q) has no loop for q >= 2, so a looped
    # pattern vertex may not land there
    target = graphs.threshold_target(q)
    rng = random.Random(2500 + q)
    patterns = [graphs.LabeledGraph(2, [(1, 1), (1, 2)]),
                graphs.LabeledGraph(3, [(1, 2), (2, 3), (3, 3), (1, 2)])]
    patterns += [_random_pattern(rng) for _ in range(30)]
    for pattern in patterns:
        assert verify._hom_oracle(pattern, target) == \
            _has_edge_oracle(pattern, target), pattern.edges()


def test_vertex_bound_matches_the_rational_form():
    # the regularization bound n0 + 1 + max(3 + deficit/d, 2*ceil(d/2)),
    # in Fractions, against the integer test, over every deficit of a
    # graph on n0 vertices of degree at most d and padded sizes on both
    # sides of the bound
    decided = Counter()
    for n0 in range(1, 9):
        for d in range(1, 5):
            for deficit in range(d * (n0 + n0 % 2) + 1):
                cap = n0 + 1 + max(Fraction(3) + Fraction(deficit, d),
                                   Fraction(2 * ((d + 1) // 2)))
                for vertices in range(n0, int(cap) + 3):
                    over = vertices > cap
                    assert verify._over_vertex_bound(
                        n0, d, deficit, vertices) == over, \
                        (n0, d, deficit, vertices)
                    decided[over] += 1
    assert decided[True] and decided[False]


def _partitions(n: int, least: int) -> int:
    """Partitions of n into parts of at least ``least``."""
    return 1 if not n else sum(_partitions(n - part, part)
                               for part in range(least, n + 1))


def test_shapes_match_independent_counts():
    # a 1-regular graph is a perfect matching, a 2-regular graph a union
    # of cycles; 4 + 10 + 9 classes in all
    assert verify._SHAPES[1] == {n: 1 for n in range(2, 9, 2)}
    assert verify._SHAPES[2] == {n: _partitions(n, 3) for n in range(3, 9)}
    assert [sum(row.values()) for _, row in sorted(verify._SHAPES.items())] \
        == [4, 10, 9]


@pytest.mark.parametrize("index", [0, 1000])
def test_hom_suite_fails_when_a_graph_is_dropped(monkeypatch, index):
    dropped = list(GENERATE(8, 3))[index]

    def mutant(n, d):
        for mask in GENERATE(n, d):
            if (n, d, mask) != (8, 3, dropped):
                yield mask

    monkeypatch.setattr(verify, "_labeled_regular", mutant)
    result = verify.check_hom_suite()
    assert not result.passed
    assert (f"relabelings never generated for the 3-regular graphs on 8 "
            f"vertices: 1, among them {_decode(dropped, 8)}") in result.detail


# a class's first graph, a later one, and K4, whose only relabeling is itself
@pytest.mark.parametrize("n,d,index", [(6, 2, 0), (6, 2, 30), (4, 3, 0)])
def test_hom_suite_fails_when_a_graph_is_repeated(monkeypatch, n, d, index):
    repeated = list(GENERATE(n, d))[index]

    def mutant(n_, d_):
        for mask in GENERATE(n_, d_):
            yield mask
            if (n_, d_, mask) == (n, d, repeated):
                yield mask

    monkeypatch.setattr(verify, "_labeled_regular", mutant)
    result = verify.check_hom_suite()
    assert not result.passed
    assert (f"the {d}-regular graph {_decode(repeated, n)} on {n} vertices "
            f"was generated twice") in result.detail


def test_med_identities_ask_for_each_count_once(monkeypatch):
    # every MED count the three identities share is computed once and reused
    med_count = verify.eng.med_count
    asked = Counter()

    def counting(frobenius, depth=None):
        asked[frobenius, depth] += 1
        return med_count(frobenius, depth)

    monkeypatch.setattr(verify.eng, "med_count", counting)
    result = verify.check_med_identities()
    assert result.passed, result.detail
    assert asked and max(asked.values()) == 1, \
        [key for key, n in asked.items() if n > 1]
