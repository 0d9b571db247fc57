"""The hom suite's census of labeled regular graphs and its orbit check."""

import itertools

import pytest

from kunzlab import verify

# labeled d-regular graphs on n vertices: A001147 (d = 1), A001205 (d = 2),
# A002829 (d = 3)
LABELED = {
    1: {2: 1, 4: 3, 6: 15, 8: 105},
    2: {3: 1, 4: 3, 5: 12, 6: 70, 7: 465, 8: 3507},
    3: {4: 1, 6: 70, 8: 19355},
}


@pytest.mark.parametrize("d", sorted(LABELED))
def test_labeled_regular_matches_oeis(d):
    for n in range(2, 9):
        graphs = list(verify._labeled_regular(n, d))
        assert len(set(graphs)) == len(graphs)
        assert len(graphs) == LABELED[d].get(n, 0)
        for edges in graphs:
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


@pytest.mark.parametrize("n", range(2, 9))
def test_orbit_matches_every_permutation(n):
    # the orbit of each class's first graph, against the masks of all n!
    # relabelings of its edges
    bit = [[0] * (n + 1) for _ in range(n + 1)]
    for i, (u, v) in enumerate(itertools.combinations(range(1, n + 1), 2)):
        bit[u][v] = bit[v][u] = 1 << i
    swaps = verify._swap_tables(n, bit)
    for d in range(1, 4):
        labeled = set()
        seen = set()
        for edges in GENERATE(n, d):
            mask = sum(bit[u][v] for u, v in edges)
            labeled.add(mask)
            if mask in seen:
                continue
            relabeled = {sum(bit[p[u - 1]][p[v - 1]] for u, v in edges)
                         for p in itertools.permutations(range(1, n + 1))}
            assert verify._orbit(mask, swaps) == relabeled, (n, d, edges)
            seen |= relabeled
        assert seen == labeled


@pytest.mark.parametrize("dropped", [0, 3, -1])
def test_hom_suite_needs_every_transposition(monkeypatch, dropped):
    # without (1 2), (4 5) or (n-1 n) the rest generate a smaller group,
    # whose orbits split the classes: the check itself must see that the
    # class count of some (n, d) is off, not only this test's total
    tables = verify._swap_tables

    def mutant(n, bit):
        swaps = tables(n, bit)
        if dropped < len(swaps):
            del swaps[dropped]
        return swaps

    monkeypatch.setattr(verify, "_swap_tables", mutant)
    result = verify.check_hom_suite()
    assert not result.passed
    assert "-regular graphs on " in result.detail
    assert "vertices fall into" in result.detail


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
        for edges in GENERATE(n, d):
            if (n, d, edges) != (8, 3, dropped):
                yield edges

    monkeypatch.setattr(verify, "_labeled_regular", mutant)
    result = verify.check_hom_suite()
    assert not result.passed
    assert (f"relabelings never generated for the 3-regular graphs on 8 "
            f"vertices: 1, among them {dropped}") in result.detail


# a class's first graph, a later one, and K4, whose only relabeling is itself
@pytest.mark.parametrize("n,d,index", [(6, 2, 0), (6, 2, 30), (4, 3, 0)])
def test_hom_suite_fails_when_a_graph_is_repeated(monkeypatch, n, d, index):
    repeated = list(GENERATE(n, d))[index]

    def mutant(n_, d_):
        for edges in GENERATE(n_, d_):
            yield edges
            if (n_, d_, edges) == (n, d, repeated):
                yield edges

    monkeypatch.setattr(verify, "_labeled_regular", mutant)
    result = verify.check_hom_suite()
    assert not result.passed
    assert (f"the {d}-regular graph {repeated} on {n} vertices was generated "
            f"twice") in result.detail
