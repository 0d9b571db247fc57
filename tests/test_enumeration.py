"""Engine counts cross-checked against a direct product-scan oracle.

The oracle enumerates every candidate word over the bounded alphabet and
filters by definition; it is independent of the engine's pruning and of the
closed forms, so agreement here pins both down.
"""

import json
from collections import Counter
from dataclasses import replace
from itertools import chain, islice, product
from operator import le

import pytest

from kunzlab import cli, enumeration
from kunzlab.enumeration import (
    TailHeavySpec,
    closed_k2,
    closed_k3,
    count_and_genus,
    count_by_length,
    count_depth_le3,
    count_stressed3,
    count_words,
    enumerate_words,
    genus_histogram,
    is_tail_heavy,
    lower_bound_family,
    med_count,
    schur_colorings,
    stressed3_genus_total,
    tail_heavy_count,
)
from kunzlab.refdata import load_table2
from kunzlab.words import CountQuery, KunzWord, invariants, is_kunz, is_med


def brute_frobenius(f: int) -> list[KunzWord]:
    """All Kunz words with Frobenius number f, by exhaustive scan.

    For each length the depth is forced (f = (ell+1)(q-1) + j with
    1 <= j <= ell has at most one solution), so the alphabet is bounded and
    the scan is finite.
    """
    words = []
    for ell in range(1, f + 1):
        m = ell + 1
        if f % m == 0:
            continue
        q = (f - 1) // m + 1
        for entries in product(range(1, q + 1), repeat=ell):
            w = KunzWord(entries)
            if w.frobenius == f and is_kunz(w):
                words.append(w)
    return words


def test_frobenius_five_exactly():
    expected = {(1, 1, 1, 1, 1), (1, 2), (2, 1, 1), (2, 2), (3,)}
    assert set(brute_frobenius(5)) == expected
    assert set(enumerate_words(CountQuery(frobenius=5))) == expected
    assert count_words(CountQuery(frobenius=5)) == 5


@pytest.mark.parametrize("f", range(1, 14))
def test_enumeration_matches_oracle(f):
    # the engine's order is ascending tuple order, so no sort on its side
    oracle = sorted(brute_frobenius(f))
    engine = list(enumerate_words(CountQuery(frobenius=f)))
    assert engine == oracle
    assert all(type(w) is KunzWord for w in engine)
    assert count_words(CountQuery(frobenius=f)) == len(oracle)


def test_cell_words_match_walker():
    # the product structure of the closed depth <= 3 cells against the
    # walker's tuples, word for word and in order, the empty q = 1 cells
    # included; bytes keys are read back with tuple()
    for length in range(1, 15):
        for q in (1, 2, 3):
            for j in range(1, length + 1):
                scan = enumeration._frobenius_scan(length, q, j)
                want = list(enumeration._words(scan))
                assert list(enumeration._cell_words(scan)) == want
                keys = enumeration._cell_words(scan, bytes)
                assert list(map(tuple, keys)) == want
                assert q > 1 or len(want) == (j == length)


def _cell(scan):
    """``(q, j)`` when a plan is a cell: not MED, its maximum q pinned at
    j, no cap above q before j or above q - 1 after it; else ``None``."""
    length, caps, j, strict = scan
    if strict or not 1 <= j <= length:
        return None
    q = caps[j - 1]
    if max(caps[:j]) > q or max(caps[j:], default=0) > q - 1:
        return None
    return q, j


def _counting(stream, pulled):
    """``stream``, adding each word it hands out to ``pulled[0]``."""
    for word in stream:
        pulled[0] += 1
        yield word


def _assert_blocks(blocks, streams, size, pulled):
    """The blocks are non-empty and sorted and concatenate to the sorted
    words of ``streams``; each block together with the words buffered
    behind it (pulled from the streams, not yet handed out) is at most
    ``size`` words per stream; and since every block empties a buffer,
    there are no more blocks than buffer fills of ``size`` words."""
    want = sorted(chain.from_iterable(streams))
    got = []
    count = 0
    for block in blocks:
        assert block and block == sorted(block)
        assert pulled[0] - len(got) <= size * len(streams)
        got += map(tuple, block)  # bytes keys read back as tuples
        count += 1
    assert got == want
    assert count <= sum(-(-len(stream) // size) for stream in streams)


# depth-exact length queries with length <= 8 and q <= 4, each plain, MED,
# stressed and with a `contains` that lowers a cap, a depth bound below the
# length (its closed cells) and one at the length or above (one walked box)
MERGED_QUERIES = [CountQuery(frobenius=f) for f in range(31)] + [
    CountQuery(length=length, depth_exact=q, **extra)
    for length in range(1, 9) for q in range(1, 5)
    for extra in ({}, dict(med=True), dict(stressed=True),
                  dict(contains=(length + 3,)))
] + [CountQuery(length=6, depth_max=3), CountQuery(length=4, depth_max=5)] + [
    # the words (255) and (256) on either side of the bytes keys' limit, and
    # 1..300 as tuples
    CountQuery(frobenius=509, length=1), CountQuery(frobenius=511, length=1),
    CountQuery(length=1, depth_max=300)]


def test_word_blocks_match_sorted_cells(monkeypatch):
    # the oracle sorts every cell's words, as tuples, at once and shares no
    # code with the block merge; the merge reads _BATCH // plans words of
    # each cell at a time, one batch in all
    cell_words = enumeration._cell_words
    pulled = [0]
    monkeypatch.setattr(enumeration, "_cell_words",
                        lambda scan, pack: _counting(cell_words(scan, pack),
                                                     pulled))
    for query in MERGED_QUERIES:
        cells = [list(cell_words(scan)) for scan in enumeration._plans(query)]
        size = max(enumeration._BATCH // max(len(cells), 1), 1)
        pulled[0] = 0
        _assert_blocks(enumeration._word_blocks(query), cells, size, pulled)
        assert list(enumerate_words(query)) == sorted(chain(*cells))


def test_word_keys_are_bytes_below_256():
    # one container for the whole query: bytes while every plan caps its
    # entries below 256, so the byte 255 is still an entry, else tuples
    for query, kind in ((CountQuery(frobenius=509, length=1), bytes),
                        (CountQuery(frobenius=511, length=1), tuple),
                        (CountQuery(length=1, depth_max=255), bytes),
                        (CountQuery(length=1, depth_max=256), tuple),
                        (CountQuery(frobenius=30), bytes)):
        keys = list(chain.from_iterable(enumeration._word_blocks(query)))
        assert keys and {type(key) for key in keys} == {kind}
        assert list(map(tuple, keys)) == list(enumerate_words(query))


def test_huge_depth_cap_is_not_expanded_ahead_of_the_words():
    # contains=(4,) lowers the first cap to 1, so the second entry is at
    # most 2 and the query has two words, however large depth_max is
    query = CountQuery(length=2, depth_max=10**9, contains=(4,))
    assert list(enumerate_words(query)) == [(1, 1), (1, 2)]
    # one walked box whose last range runs to 10**9, read lazily
    query = CountQuery(length=1, depth_max=10**9)
    assert list(islice(enumerate_words(query), 3)) == [(1,), (2,), (3,)]


def test_merge_blocks_on_hand_made_streams():
    # a longer word can fall between two words of another stream
    chain_streams = [[(1, 2), (1, 3)], [(1, 2, 1)], [(1, 2, 2), (1, 2, 3)]]
    words = [w for n in (1, 2, 3) for w in product((1, 2, 3), repeat=n)]
    cases = [chain_streams, [], [[], []], [[], [(2,)], []], [sorted(words)],
             [sorted(words[::2]), [], sorted(words[1::2])]]
    cases += [[sorted(words[i::k]) for i in range(k)] for k in (3, 5)]
    cases += [[sorted(w for w in words if w[0] == i) for i in (3, 1, 2)]]
    for streams in cases:
        for size in (1, 2, 7, len(words) + 1):
            pulled = [0]
            counted = [_counting(stream, pulled) for stream in streams]
            _assert_blocks(enumeration._merge_blocks(counted, size), streams,
                           size, pulled)


FILTER_QUERIES = [
    dict(med=True),
    dict(depth_exact=2),
    dict(depth_exact=3),
    dict(depth_max=3),
    dict(depth_exact=2, stressed=True),
    dict(depth_exact=3, stressed=True),
    dict(contains=(7,)),
    dict(length=4),
    dict(length=5, depth_max=2),
    dict(med=True, depth_exact=2),
    dict(contains=(4, 9)),
]


@pytest.mark.parametrize("extra", FILTER_QUERIES)
@pytest.mark.parametrize("f", [10, 11])
def test_filters_match_definition(f, extra):
    query = CountQuery(frobenius=f, **extra)
    oracle = sorted(w for w in brute_frobenius(f) if query.matches(w))
    assert sorted(enumerate_words(query)) == oracle
    assert count_words(query) == len(oracle)
    assert genus_histogram(query) == Counter(w.genus for w in oracle)
    assert count_by_length(query) == Counter(len(w) for w in oracle)


def test_genus_histogram_matches_counter():
    q = CountQuery(frobenius=11)
    expected = Counter(w.genus for w in brute_frobenius(11))
    assert genus_histogram(q) == dict(expected)
    # and again under a depth filter
    q2 = CountQuery(frobenius=11, depth_max=2)
    expected2 = Counter(w.genus for w in brute_frobenius(11) if w.depth <= 2)
    assert genus_histogram(q2) == dict(expected2)


def test_signed_histogram_matches_brute():
    # no Frobenius number: an exact depth q is the union of the cells
    # j = 1..length, closed unless MED makes them strict, and a depth bound
    # is its closed cells below the length and one box otherwise (or with
    # MED); MED counts and histograms go through the lift and MED words
    # are walked; every variant against the definition over
    # {1..q}^length, whose product order is the engine's word order
    for length in range(1, 7):
        for q in range(1, 5):
            words = list(map(KunzWord,
                             product(range(1, q + 1), repeat=length)))
            exact = CountQuery(length=length, depth_exact=q)
            box = CountQuery(length=length, depth_max=q)
            assert all(_cell(scan) for scan in enumeration._plans(exact))
            contains = (q * (length + 1) - 3,)
            for query in (exact, replace(exact, stressed=True),
                          replace(exact, med=True),
                          replace(exact, contains=contains),
                          box, replace(box, med=True),
                          replace(box, contains=contains)):
                want = [w for w in words if query.matches(w)]
                assert list(enumerate_words(query)) == want
                assert genus_histogram(query) == Counter(w.genus
                                                         for w in want)
                assert count_and_genus(query) == (
                    len(want), sum(w.genus for w in want))
                assert count_words(query) == len(want)


def test_walker_matches_definition_on_small_scans():
    # every Frobenius cell and every depth-bound box of length l <= 5 and
    # depth q <= 6, plain, MED, and plain with one cap lowered as a
    # contains lowers it, walked (_fold, _words) against the definition:
    # the words of {1..q}^l between floors and caps that satisfy both
    # inequality families, strictly for MED, in product order, the floor
    # 1 but at a cell's pin j, where it is the pinned cap; lengths 1 and 2,
    # where the walker loops position 1 flat or not at all, included
    scans = leaves = 0
    for length in range(1, 6):
        for q in range(1, 7):
            words = list(product(range(1, q + 1), repeat=length))
            valid = ([w for w in words if is_kunz(w)],
                     [w for w in words if is_med(w)])
            for base in [(length, (q,) * length, 0)] + [
                    enumeration._frobenius_scan(length, q, j)[:3]
                    for j in range(1, length + 1)]:
                _, caps, j = base
                floors = tuple(caps[r] if r == j - 1 else 1
                               for r in range(length))
                forms = [(caps, 0), (caps, 1)] + [
                    (caps[:r] + (caps[r] - 1,) + caps[r + 1:], 0)
                    for r in range(length) if caps[r] > floors[r]]
                for top, strict in forms:
                    scan = (length, top, j, strict)
                    want = [w for w in valid[strict]
                            if all(map(le, floors, w)) and
                            all(map(le, w, top))]
                    assert list(enumeration._words(scan)) == want
                    walked = _trimmed(enumeration._fold(scan))
                    hist = Counter(map(sum, want))
                    assert walked == [hist[g] for g in range(len(walked))]
                    assert sum(walked) == len(want)
                    n = sum(1 for _ in enumeration._walk(scan))
                    assert length > 1 or n == (len(want) > 0)
                    scans += 1
                    leaves += n
    assert (scans, leaves) == (495, 17520)


def test_depth_bound_cells_match_walked_box():
    # an unfiltered depth bound q below the length l is planned as its
    # closed cells for every depth up to q; the raw box, walked, shares no
    # code with their closed forms
    def box(length, q):
        return length, (q,) * length, 0, 0

    pairs = [(length, q) for q in range(1, 6) for length in range(q + 1, 10)]
    for length, q in pairs + [(7, 6), (8, 6)]:
        query = CountQuery(length=length, depth_max=q)
        assert all(_cell(scan) for scan in enumeration._plans(query))
        walked = enumeration._fold(box(length, q))
        assert genus_histogram(query) == {g: n for g, n in enumerate(walked)
                                          if n}
        if q <= 4 and length <= 8:
            assert list(enumerate_words(query)) == \
                list(enumeration._words(box(length, q)))
    # a contains below the length lowers one cap of every cell: still
    # cells, against the raw box with that cap lowered by hand
    for length, q, member, caps in ((7, 3, 9, (1, 3, 3, 3, 3, 3, 3)),
                                    (6, 2, 10, (2, 2, 1, 2, 2, 2)),
                                    (8, 4, 20, (4, 2, 4, 4, 4, 4, 4, 4)),
                                    (5, 4, 8, (4, 1, 4, 4, 4))):
        query = CountQuery(length=length, depth_max=q, contains=(member,))
        assert all(_cell(scan) for scan in enumeration._plans(query))
        walked = enumeration._fold((length, caps, 0, 0))
        assert genus_histogram(query) == {g: n for g, n in enumerate(walked)
                                          if n}
    # a bound at the length or above, or MED, keeps the one box
    for query in (CountQuery(length=4, depth_max=4),
                  CountQuery(length=4, depth_max=300),
                  CountQuery(length=4, depth_max=4, contains=(7,)),
                  CountQuery(length=7, depth_max=3, med=True)):
        (scan,) = enumeration._plans(query)
        assert scan[3] == int(query.med)
        assert scan[2] == 0


def test_count_and_genus_consistency():
    q = CountQuery(frobenius=13)
    count, gsum = count_and_genus(q)
    words = brute_frobenius(13)
    assert count == len(words)
    assert gsum == sum(w.genus for w in words)


@pytest.mark.parametrize("threads", [2, 5])
def test_threaded_counts_agree(threads, capsys):
    # --threads is accepted and changes nothing: the CLI's count, the
    # engine's and the histogram's mass agree (a MED count and histogram
    # both come from the lift; test_med_lift_matches_strict_walk checks
    # them against the strict walk)
    for argv, q in (
            (["--f", "16"], CountQuery(frobenius=16)),
            (["--f", "24"], CountQuery(frobenius=24)),
            (["--f", "24", "--med"], CountQuery(frobenius=24, med=True)),
            (["--ell", "5", "--depth-max", "6"],
             CountQuery(length=5, depth_max=6)),
            (["--ell", "7", "--depth", "3"],
             CountQuery(length=7, depth_exact=3)),
            (["--ell", "4", "--depth-max", "40"],
             CountQuery(length=4, depth_max=40))):
        assert cli.main(["count", *argv, "--threads", str(threads)]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == \
            count_words(q) == sum(genus_histogram(q).values())


def test_plans_hold_only_scans_with_words():
    # a scan keeps words only while every cap is at least 1 and a cell's
    # pinned cap is still its q: a q = 1 cell longer than f (caps of 0), a
    # cap that contains lowered below 1, or a pin it lowered below q leaves
    # none; no such scan is planned, walked or solved
    med = CountQuery(frobenius=6, length=14, med=True)
    assert enumeration._plans(med) == []
    assert count_words(med) == 0
    lowered = CountQuery(frobenius=22, contains=(6,))
    assert len(enumeration._cells(lowered)) == 4
    assert len(enumeration._plans(lowered)) == 3
    assert len(enumeration._plans(CountQuery(frobenius=30,
                                             contains=(7,)))) == 2
    # contains 3 keeps one cell, (2, 7, 2), and 11 lowers its pin to 3
    pinned = CountQuery(frobenius=20, contains=(3, 11))
    assert enumeration._cells(pinned) == [(2, 7, 2)]
    assert enumeration._plans(pinned) == []
    assert count_words(pinned) == 0
    for query in (med, CountQuery(frobenius=6, length=14), lowered,
                  CountQuery(frobenius=30, contains=(7,)), pinned,
                  CountQuery(frobenius=29, length=9, contains=(4,)),
                  CountQuery(length=6, depth_exact=3, contains=(5,)),
                  CountQuery(length=6, depth_max=3, contains=(2,))):
        for length, caps, j, _ in enumeration._plans(query):
            assert min(caps) >= 1
            if query.frobenius is not None:
                # the pin holds the q that f fixes at this length
                q = -((query.frobenius + 1) // -(length + 1))
                assert j and caps[j - 1] == q
                assert query.frobenius == (length + 1) * (q - 1) + j


def test_infinite_query_rejected():
    with pytest.raises(ValueError):
        count_words(CountQuery(length=4))
    with pytest.raises(ValueError):
        list(enumerate_words(CountQuery(depth_max=2)))


# ---------------------------------------------------------------------------
# closed forms and the stressed depth-3 table
# ---------------------------------------------------------------------------


def _walked_count(query: CountQuery) -> int:
    # the walker alone: the engine would answer these scans in closed form
    return sum(enumeration._walked_histogram(query).values())


def test_closed_forms_match_engine():
    for f in range(1, 17):
        for ell in range(1, f + 1):
            assert closed_k2(f, ell) == _walked_count(
                CountQuery(frobenius=f, length=ell, depth_exact=2))
            assert closed_k3(f, ell) == _walked_count(
                CountQuery(frobenius=f, length=ell, depth_exact=3))


def _trimmed(hist: list[int]) -> list[int]:
    while hist and not hist[-1]:
        hist = hist[:-1]
    return hist


def test_closed_genus_polynomials_match_walker():
    # every scan of the Frobenius queries, and of the fixed-multiplicity
    # reference cells (some of them longer than f), up to f = 30, every
    # depth-4 Frobenius scan up to length 12, and every depth-5 and depth-6
    # one up to length 11
    scans = {scan for f in range(1, 31)
             for scan in enumeration._plans(CountQuery(frobenius=f))}
    scans |= {scan for f, m in load_table2() if f <= 30
              for scan in enumeration._plans(
                  CountQuery(frobenius=f, length=m - 1))}
    scans |= {enumeration._frobenius_scan(length, 4, j)
              for length in range(1, 13) for j in range(1, length + 1)}
    scans |= {enumeration._frobenius_scan(length, q, j) for q in (5, 6)
              for length in range(1, 12) for j in range(1, length + 1)}
    closed = depth4 = deep = 0
    for scan in scans:
        profile = _cell(scan)
        assert profile is not None  # no unfiltered Frobenius scan is walked
        closed += 1
        depth4 += profile[0] == 4
        deep += profile[0] >= 5
        assert _trimmed(enumeration._closed_form(scan)) == \
            _trimmed(enumeration._fold(scan))
    assert closed > 300
    assert depth4 >= 78
    assert deep >= 132


def _brute_closed_forms(q: int, max_length: int) -> None:
    # every word over {1..q} up to the given length, filtered by the
    # definition and binned by its Frobenius number, which fixes the last
    # q's position
    for length in range(1, max_length + 1):
        want = {j: Counter() for j in range(1, length + 1)}
        for entries in product(range(1, q + 1), repeat=length):
            if max(entries) == q and is_kunz(entries):
                inv = invariants(entries)
                j = inv.frobenius - (q - 1) * inv.multiplicity
                want[j][inv.genus] += 1
        for j, hist in want.items():
            got = enumeration._closed_form(
                enumeration._frobenius_scan(length, q, j))
            assert {g: n for g, n in enumerate(got) if n} == hist


def test_depth4_closed_form_matches_brute():
    _brute_closed_forms(4, 7)


def test_depth5_closed_form_matches_brute():
    _brute_closed_forms(5, 6)


def test_subset_scan_matches_tuned_cases():
    # the one rule set, run at q = 3, against its tuned case (depth 4 and up
    # have no other scan: the _fold sweep and the brute force cover them)
    for length in range(1, 11):
        for j in range(1, length + 1):
            scan = enumeration._frobenius_scan(length, 3, j)
            assert _trimmed(list(enumeration._subset_scan(*scan[:3]))) == \
                _trimmed(enumeration._closed_form(scan))


def test_filtered_scans_keep_the_walker():
    # a cap that contains lowered keeps a closed form; MED strictness
    # changes the scan, which only the walker answers, as it answers a
    # depth-bound box (no pin, j = 0)
    capped = enumeration._plans(CountQuery(frobenius=11, contains=(4,)))
    profiles = [_cell(scan) for scan in capped]
    assert None not in profiles
    assert any(scan != enumeration._frobenius_scan(scan[0], *profile)
               for scan, profile in zip(capped, profiles))
    assert all(enumeration._closed_form(scan) is None
               for scan in enumeration._plans(CountQuery(frobenius=11,
                                                         med=True)))
    (box,) = enumeration._plans(CountQuery(length=4, depth_max=4))
    assert box[2] == 0 and enumeration._closed_form(box) is None


def test_capped_cells_match_walker():
    # every cell of a Frobenius query with one contains, most with a cap
    # lowered, in closed form against the walker's fold of the same scan
    cells = capped = 0
    for f in range(1, 29):
        for n in range(1, f + 3):
            for scan in enumeration._plans(CountQuery(frobenius=f,
                                                      contains=(n,))):
                profile = _cell(scan)
                assert profile is not None
                assert _trimmed(enumeration._closed_form(scan)) == \
                    _trimmed(enumeration._fold(scan))
                cells += 1
                capped += scan != enumeration._frobenius_scan(scan[0],
                                                              *profile)
    assert cells == 3016
    assert capped > 1000


def test_deep_cells_match_walker():
    # cells far deeper than they are long, where many low+low sums carry
    # past level q-1 and are dropped: each uncapped, and with one cap
    # lowered to the slot's least value (forcing it), just below that (the
    # slot dropped, every low value kept), halfway, and to 1
    scans = set()
    for length in range(1, 6):
        for q in (3, 4, 5, 7, 12) + ((40,) if length < 5 else ()):
            for j in range(1, length + 1):
                scan = enumeration._frobenius_scan(length, q, j)
                scans.add(scan)
                caps = scan[1]
                for p, top in enumerate(caps):
                    for cap in {top - 1, top - 2, (top + 1) // 2, 1}:
                        if p != j - 1 and 1 <= cap < top:
                            lowered = caps[:p] + (cap,) + caps[p + 1:]
                            scans.add((length, lowered, j, 0))
    for scan in scans:
        assert _trimmed(enumeration._closed_form(scan)) == \
            _trimmed(enumeration._fold(scan))
    assert len(scans) == 765


def test_empty_depth1_scan_counts_zero():
    # f = 6 with length 14: depth 1 with its last 1 at position 6 < 14, so
    # positions 7..14 are capped at 0 and the scan holds no words
    query = CountQuery(frobenius=6, length=14)
    assert count_words(query) == 0 == _walked_count(query)
    assert genus_histogram(query) == {}
    # the lift's contains queries meet such scans; a phantom word would
    # make med_count's two routes disagree and raise
    assert med_count(4) == 2


def test_stressed3_small_values():
    # length 1: only (3); length 2: (2,3) and (3,3)
    assert count_stressed3(1) == 1
    assert count_stressed3(2) == 2
    assert count_stressed3(3) == 7
    assert count_stressed3(12) == 28897
    assert stressed3_genus_total(0) == (1, 0)
    assert stressed3_genus_total(1) == (1, 3)
    assert stressed3_genus_total(2) == (2, 11)  # genus 5 + genus 6
    with pytest.raises(ValueError):
        count_stressed3(0)


@pytest.mark.parametrize("ell", range(1, 9))
def test_stressed3_matches_engine(ell):
    # a stressed depth-3 word of length ell has Frobenius number 3*ell + 2
    q = CountQuery(frobenius=3 * ell + 2, length=ell,
                   depth_exact=3, stressed=True)
    walked = enumeration._walked_histogram(q)
    assert count_stressed3(ell) == sum(walked.values())
    count, total = stressed3_genus_total(ell)
    assert total == sum(w.genus for w in enumerate_words(q))
    assert (count, total) == (sum(walked.values()),
                              sum(g * n for g, n in walked.items()))


def test_stressed3_scan_matches_subset_scan():
    # the general rule set at q = 3 and j = length shares no code with the
    # tuned scan's top window: lengths 1..20 cover both parities, the uncut
    # lengths below 11 and the window sizes k = 1..3 picked from there on
    for length in range(1, 21):
        scan = enumeration._frobenius_scan(length, 3, length)
        assert enumeration._stressed3_scan(length) == \
            enumeration._subset_scan(*scan[:3])


def test_stressed3_totals_past_the_checked_rows():
    # (count, genus total) as a leaf-by-leaf walk over S gives them, with no
    # top window; the counts are rows 25..28 of table1
    assert [stressed3_genus_total(length) for length in range(25, 29)] == [
        (6827159829, 377685882371),
        (13424984452, 777048186211),
        (42195919228, 2521886067637),
        (83374340587, 5195390823538),
    ]


@pytest.mark.parametrize("ell", range(0, 10))
def test_depth_le3_matches_engine(ell):
    expected = 1 if ell == 0 else _walked_count(
        CountQuery(length=ell, depth_max=3))
    assert count_depth_le3(ell) == expected


# ---------------------------------------------------------------------------
# MED counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("f", range(1, 14))
def test_med_count_matches_oracle(f):
    words = brute_frobenius(f)
    assert med_count(f) == sum(1 for w in words if is_med(w))
    for depth in (1, 2, 3):
        assert med_count(f, depth=depth) == sum(
            1 for w in words if is_med(w) and w.depth == depth)
    with pytest.raises(ValueError):
        med_count(0)


# MED queries with every filter: the depth filters, stressed, a length and
# contains values on either side of the multiplicity, and below 0
MED_QUERIES = [
    CountQuery(frobenius=f, med=True, **extra) for f in range(1, 23)
    for extra in ([{}] + [dict(depth_exact=q) for q in range(1, 6)]
                  + [dict(depth_max=q) for q in range(1, 6)]
                  + [dict(depth_exact=q, stressed=True) for q in range(1, 6)]
                  + [dict(length=ell) for ell in range(1, f + 2)]
                  + [dict(contains=(n,)) for n in range(-1, f + 4)])
] + [CountQuery(length=ell, med=True, **{bound: q})
     for ell in range(9) for q in range(1, 6)
     for bound in ("depth_exact", "depth_max")] + [
    CountQuery(length=ell, depth_max=3, med=True, contains=(n,))
    for ell in range(1, 7) for n in (-1, 1, ell, ell + 1, ell + 2, 2 * ell + 3)]


def test_med_lift_matches_strict_walk():
    # MED counts, histograms and length splits come from the lift onto
    # closed contains cells; the strict walk of each plan shares no code
    # with them, and its folds, summed, are _walked_histogram's
    for query in MED_QUERIES:
        walked, by_length = Counter(), Counter()
        for scan in enumeration._plans(query):
            hist = enumeration._fold(scan)
            walked.update(dict(enumerate(hist)))
            by_length[scan[0]] += sum(hist)
        assert genus_histogram(query) == +walked, query
        assert count_by_length(query) == +by_length, query
        assert count_words(query) == sum(by_length.values()), query


def test_med_count_raises_when_its_routes_disagree(monkeypatch):
    # med_count must check the lift against the strict walk, not against
    # genus_histogram, which takes the lift too
    walk = enumeration._walked_histogram
    monkeypatch.setattr(enumeration, "_walked_histogram",
                        lambda query: {**walk(query), -1: 1})
    with pytest.raises(ArithmeticError):
        med_count(9)


# ---------------------------------------------------------------------------
# the explicit lower-bound family
# ---------------------------------------------------------------------------


def test_family_is_valid_and_sized():
    stream, size = lower_bound_family(4, 5, 3)
    words = list(stream)
    assert size == 54
    assert len(words) == size
    assert len(set(words)) == size
    for w in words:
        assert is_kunz(w)
        assert w.depth == 4
        assert w.frobenius == 6 * 3 + 3


def test_family_other_shape():
    stream, size = lower_bound_family(3, 4, 2)
    words = list(stream)
    assert len(words) == size == 8
    for w in words:
        assert is_kunz(w)
        assert w.depth == 3
        assert w.frobenius == 5 * 2 + 2


def test_family_guards():
    with pytest.raises(ValueError):
        lower_bound_family(2, 5, 3)
    with pytest.raises(ValueError):
        lower_bound_family(4, 5, 0)
    with pytest.raises(ValueError):
        lower_bound_family(4, 5, 6)


# ---------------------------------------------------------------------------
# tail-heavy words
# ---------------------------------------------------------------------------


def brute_tail_heavy(spec: TailHeavySpec) -> int:
    """Tail-heavy words of [q]^length, word by word from the definition.

    A tail position s is heavy when it holds q and every head pair x <= y
    with x + y = s reaches q; a word is tail-heavy when its heavy count
    exceeds sqrt(length).
    """
    q, ell = spec.depth, spec.length
    h = ell - spec.tail_width
    checks = [(s - 1, [(x - 1, s - x - 1) for x in range(1, s // 2 + 1)
                       if s - x <= h])
              for s in range(h + 1, ell + 1)]
    total = 0
    for word in product(range(1, q + 1), repeat=ell):
        heavy = sum(1 for s, pairs in checks if word[s] == q
                    and all(word[x] + word[y] >= q for x, y in pairs))
        if heavy * heavy > ell:
            total += 1
    return total


@pytest.mark.parametrize("shape", [(5, 3, 3), (6, 4, 2), (7, 5, 3),
                                   (5, 5, 3), (4, 2, 3), (6, 2, 4)])
def test_tail_heavy_count_matches_brute(shape):
    spec = TailHeavySpec(*shape)
    words = product(range(1, spec.depth + 1), repeat=spec.length)
    predicate = sum(1 for w in words if is_tail_heavy(w, spec))
    assert tail_heavy_count(spec) == brute_tail_heavy(spec) == predicate


def test_tail_heavy_count_matches_brute_on_every_small_shape():
    # every shape with q^length <= 2e4: q = 2 (one value class), an empty
    # head (t = length), and tails too narrow to be heavy (n_min > t)
    for q in range(2, 6):
        ell = 1
        while q ** ell <= 2 * 10 ** 4:
            for t in range(1, ell + 1):
                spec = TailHeavySpec(ell, t, q)
                assert tail_heavy_count(spec) == brute_tail_heavy(spec), \
                    (ell, t, q)
            ell += 1


# tail_heavy_count((14, t, 4)) for t = 4..14, from the one-head-at-a-time scan
# over all 4^(14 - t) heads
GOLDEN_TAIL_HEAVY_14_4 = {
    4: 130011, 5: 706868, 6: 2433934, 7: 6055980, 8: 13833265,
    9: 25779472, 10: 43703548, 11: 63598120, 12: 86767927,
    13: 107271052, 14: 128489326,
}


def test_tail_heavy_count_golden_length_14():
    got = {t: tail_heavy_count(TailHeavySpec(14, t, 4))
           for t in GOLDEN_TAIL_HEAVY_14_4}
    assert got == GOLDEN_TAIL_HEAVY_14_4


# tail_heavy_count((14, t, q)) for q = 2, 3 and t = 4..14, from the
# value-class scan over all (q-1)^(14 - t) heads, before the failing-sum mask
GOLDEN_TAIL_HEAVY_14 = {
    2: {4: 1024, 5: 3072, 6: 5632, 7: 8192, 8: 10432, 9: 12224, 10: 13568,
        11: 14528, 12: 15188, 13: 15628, 14: 15914},
    3: {4: 11488, 5: 50352, 6: 155192, 7: 314868, 8: 660174, 9: 1073337,
        10: 1654665, 11: 2163321, 12: 2730105, 13: 3128185, 14: 3533689},
}


@pytest.mark.parametrize("q", sorted(GOLDEN_TAIL_HEAVY_14))
def test_tail_heavy_count_golden_length_14_low_depth(q):
    got = {t: tail_heavy_count(TailHeavySpec(14, t, q))
           for t in GOLDEN_TAIL_HEAVY_14[q]}
    assert got == GOLDEN_TAIL_HEAVY_14[q]


def test_tail_heavy_zero_when_tail_too_narrow():
    spec = TailHeavySpec(9, 2, 2)
    assert spec.n_min == 4
    assert tail_heavy_count(spec) == 0
    assert brute_tail_heavy(spec) == 0


def test_tail_heavy_spec_guards():
    with pytest.raises(ValueError):
        TailHeavySpec(5, 0, 3)
    with pytest.raises(ValueError):
        TailHeavySpec(5, 6, 3)
    with pytest.raises(ValueError):
        TailHeavySpec(5, 3, 1)
    spec = TailHeavySpec(5, 3, 3)
    with pytest.raises(ValueError):
        is_tail_heavy((3, 3, 3), spec)


# ---------------------------------------------------------------------------
# colourings
# ---------------------------------------------------------------------------


def brute_schur(n: int) -> int:
    total = 0
    for colors in product((1, 2, 3), repeat=n):
        ok = True
        for x in range(1, n + 1):
            if colors[x - 1] != 1:
                continue
            for y in range(x, n + 1 - x):
                if colors[y - 1] == 1 and colors[x + y - 1] == 3:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            total += 1
    return total


@pytest.mark.parametrize("n", range(0, 10))
def test_schur_colorings_match_brute(n):
    assert schur_colorings(n) == brute_schur(n)
    assert count_depth_le3(n) == brute_schur(n)


def test_schur_guard():
    with pytest.raises(ValueError):
        schur_colorings(-1)
