"""The tree of numerical semigroups as an oracle for the genus histograms.

Every numerical semigroup other than N arises exactly once from N by
repeatedly removing a minimal generator larger than the Frobenius number
(Bras-Amorós, 2008; Fromentin and Hivert, Math. Comp. 2016).  Walking this
tree down to a genus bound lists every semigroup with at most that many gaps.
The walk knows nothing of Kunz words, so its counts by (Frobenius number,
genus) check the engine, closed genus polynomials included, from outside.
"""

from collections import Counter, defaultdict

import pytest

from kunzlab.enumeration import genus_histogram
from kunzlab.words import CountQuery

GENUS_MAX = 18

# OEIS A007323: numerical semigroups by genus
BY_GENUS = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693,
            2857, 4806, 8045, 13467)


def semigroup_tree(genus_max: int) -> dict[int, Counter]:
    """``frobenius -> Counter(genus)`` over every semigroup of genus at most
    ``genus_max`` (N itself under Frobenius number -1).

    A node keeps, for each x below a bound, the number of pairs a <= b of
    its elements with a + b = x: x is an element when that is at least 1
    (the pair 0 + x) and a minimal generator when it is exactly 1.  Removing
    a minimal generator x takes away the pairs {a, x}, one for every
    element a.  Minimal generators above the Frobenius number F are
    positive and at most F + m, m the multiplicity (x - m is an element
    beyond that), except for N, whose generator 1 is F + m + 1.  F + m is
    at most 3g for genus g.
    """
    size = 3 * genus_max + 2
    tree: dict[int, Counter] = defaultdict(Counter)
    # (pair counts, Frobenius number, multiplicity, genus), starting at N
    stack = [([x // 2 + 1 for x in range(size)], -1, 1, 0)]
    while stack:
        pairs, frob, mult, genus = stack.pop()
        tree[frob][genus] += 1
        if genus == genus_max:
            continue
        for x in range(max(frob + 1, 1), frob + mult + 2):
            if pairs[x] != 1:
                continue
            child = pairs[:]
            for a in range(size - x):
                if pairs[a]:
                    child[x + a] -= 1
            child_mult = mult
            if x == mult:
                child_mult = next(y for y in range(x + 1, size) if child[y])
            stack.append((child, x, child_mult, genus + 1))
    return tree


@pytest.fixture(scope="module")
def tree():
    return semigroup_tree(GENUS_MAX)


def test_tree_counts_semigroups_by_genus(tree):
    by_genus = Counter()
    for hist in tree.values():
        by_genus.update(hist)
    assert tuple(by_genus[g] for g in range(GENUS_MAX + 1)) == BY_GENUS


@pytest.mark.parametrize("f", range(1, GENUS_MAX + 1))
def test_frobenius_genus_histograms_match_tree(tree, f):
    # the gaps of a semigroup with Frobenius number f lie in 1..f, so its
    # genus is at most f <= GENUS_MAX and the tree holds all of them
    assert genus_histogram(CountQuery(frobenius=f)) == dict(tree[f])
