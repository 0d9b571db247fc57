"""Exact enumeration and counting of Kunz words.

The generic entry points (:func:`count_words`, :func:`count_and_genus`,
:func:`genus_histogram`, :func:`enumerate_words`) take a
:class:`~kunzlab.words.CountQuery` and expand it into disjoint scans whose
union is the query's word set.  Almost every scan is a cell: the words of one
length l whose maximum q occurs last at position j, which is the Frobenius
number (q-1)(l+1) + j, with the caps that ``contains`` lowers.  A query that
pins the Frobenius number holds at most one cell per length, a length query
with an exact depth q is the union of its l cells, and a length query with a
depth bound q below the length l is the union of its cells for every depth
up to q.  A length query with a depth bound at the length or above, and any
MED length query with a depth bound, is one walked box scan instead (see
:func:`_plans` for why).

Every cell without MED strictness has a closed genus polynomial
(:func:`_closed_form`): the cell (l, q, j) has x^l (q = 1, j = l),
x^(l+1)(1+x)^k (q = 2, k the positions before j still capped at 2) and
S_j(x)(x+x^2)^(l-j) (q = 3, no cap lowered), where S_j is the genus
polynomial of the stressed depth-3 words of length j; every other cell
of depth q >= 3 has its polynomial from a subset scan.  By the paper's lower
bound, an entry in the upper half of the range never breaks an inequality,
and a lowered cap keeps that true, so each entry is either low or one
two-valued big slot, and only low+low sums can fail: :func:`_subset_scan`
holds that rule for every depth and every cap, and :func:`_stressed3_scan`
(S_j) is its tuned q = 3 case.  The paper's count
floor((q+1)^2/4)^(f/(2q-2)) makes depth 2 and depth 3 (about 2^(f/2) words)
outgrow every deeper layer, and S_j is the paper's stressed table, which is
why that case is tuned: it searches the positions of the 1s only up to about
the last quarter of the word, and bins that quarter from one table, since
those positions meet only the first quarter.

MED words are counted through the lift (:func:`_med_via_membership`): a MED
semigroup of multiplicity m is {0} u (m + T), with T of Frobenius number
f - m and containing m, so each MED count, genus histogram and length split
sums closed ``contains`` cells shifted by m - 1 in genus.

One walker, :func:`_walk`, searches the MED scans (strict inequalities) of
:func:`enumerate_words` and of :func:`med_count`'s check, the depth-bound
boxes, and the scans that :func:`enumerate_words` expands into words
without a product structure.  It keeps for each position the interval of
values the defining inequalities allow against the prefix chosen so far,
and hands each leaf to its caller as a whole value range of the final
position; :func:`_fold` turns those ranges into a genus histogram.  The
caps and floors of the last two positions are carried down the prefix as
running aggregates, each refreshed in O(1) when a position is set, so the
position before the last reads its interval in O(1) and is looped flat,
and each leaf costs O(1), not a pass over the word; only the positions
below those two pay a pass over the prefix.
Enumeration splits as the counts do (:func:`_cell_words`): a closed cell of
depth at most 3 with no lowered cap yields its words from the product its
closed form describes (a free {1,2} head at q = 2; the stressed depth-3
words of length j, walked, times free {1,2} tails at q = 3), and every other
scan expands the walker's ranges into words.  Each word is a key of one byte
per entry, which compares by memcmp in the order of its tuple; a query with
a cap of 256 or more packs every key as a tuple instead.  The cell streams
are merged a block at a time (:func:`_merge_blocks`), not a word at a time:
the least last key of their buffers bounds a block, one C sort merges the
pieces below it, and the buffers of all the streams together hold one
16,384-word batch.  :func:`_walked_histogram` folds every scan through the
walker alone: it is the oracle the closed forms and the lift are checked
against.

The small-depth counters :func:`closed_k2`, :func:`closed_k3` and
:func:`count_depth_le3`, over :func:`count_stressed3` (S_j summed), are
the paper's explicit formulas.  The engine closes every cell of depth at
most 3 too, and criterion 4 checks :func:`closed_k2` and :func:`closed_k3`
against the walker; the formulas stay because, given S_j, they are O(1) in
f, where :func:`count_words` expands each cell's genus polynomial (one
binomial per free position) only to sum it.  :func:`tail_heavy_count`,
:func:`med_count` and :func:`lower_bound_family` serve the paper's bounds
and the MED cross-check.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, chain, islice, product, repeat
from math import comb, isqrt
from operator import add

from .words import CountQuery, KunzWord

__all__ = [
    "TailHeavySpec",
    "closed_k2",
    "closed_k3",
    "count_and_genus",
    "count_by_length",
    "count_depth_le3",
    "count_stressed3",
    "count_words",
    "enumerate_words",
    "genus_histogram",
    "is_tail_heavy",
    "lower_bound_family",
    "med_count",
    "schur_colorings",
    "stressed3_genus_total",
    "tail_heavy_count",
]

# a scan is (length, caps, j, strict): the words of the given length with
# every entry between 1 and its cap that satisfy both inequality families,
# strictly when strict is 1 (the MED words).  j >= 1 names a cell: its
# maximum q = caps[j-1] is pinned at position j.  j = 0 marks a depth-bound
# box.  The pin is read from the caps, so a cell whose pinned cap a
# contains lowered would read as a different cell, not as an empty one;
# _plans drops such a cell.
Scan = tuple[int, tuple[int, ...], int, int]

# words an enumeration holds at once, over all its plans' streams together.
# A larger batch means fewer, larger blocks, each paying one bisect_right per
# stream.  The eight ops of perfbench's dist-enum, in one process, best of 10
# on a 2-core x86-64 host: 59.1-61.6 ms at 4096, 51.1-54.3 ms at 16,384 and
# 50.6-52.8 ms at 65,536, which holds four times the words for a point or two
_BATCH = 16384


# ---------------------------------------------------------------------------
# plan construction: a query becomes disjoint cells, or one box
# ---------------------------------------------------------------------------


def _depth_profile(frobenius: int, length: int) -> tuple[int, int] | None:
    """Depth and last-maximum position forced by (frobenius, length).

    Returns ``(q, j)`` such that every word of the given length with the given
    Frobenius number has maximum entry ``q`` occurring last at position ``j``,
    or ``None`` when no such word can exist.
    """
    m = length + 1
    q = -((frobenius + 1) // -m)
    j = frobenius - m * (q - 1)
    if 1 <= j <= length:
        return q, j
    return None


def _frobenius_scan(length: int, q: int, j: int) -> Scan:
    """The unfiltered scan of the words of the given length whose maximum q
    occurs last at position j: every word with one Frobenius number and
    length (see :func:`_depth_profile`)."""
    return length, (q,) * j + (q - 1,) * (length - j), j, 0


def _require_finite(query: CountQuery) -> None:
    if not query.is_finite:
        raise ValueError("query must fix the Frobenius number, or a length "
                         "together with a depth bound")


def _cells(query: CountQuery) -> list[tuple[int, int, int]]:
    """The cells ``(length, q, j)`` that the query's depth and stressed
    filters keep, before ``contains`` lowers any cap (see :func:`_plans`).

    A semigroup of multiplicity above n > 0 misses n, so a ``contains`` n
    bounds the lengths of a Frobenius query by n - 1.
    """
    f, length = query.frobenius, query.length
    if f is None:
        bound = query.depth_max
        depths = range(1, bound + 1) if bound else [query.depth_exact]
        cells = [(length, q, j) for q in depths for j in range(1, length + 1)]
    else:
        top = min([f] + [n - 1 for n in query.contains if n > 0])
        cells = []
        for ell in [length] if length is not None else range(1, top + 1):
            profile = _depth_profile(f, ell) if ell >= 1 and f >= 1 else None
            if profile is not None:
                cells.append((ell, *profile))
    return [(ell, q, j) for ell, q, j in cells
            if (query.depth_exact is None or q == query.depth_exact)
            and (query.depth_max is None or q <= query.depth_max)
            and (j == ell or not query.stressed)]


def _plans(query: CountQuery) -> list[Scan]:
    """Expand a query into disjoint scans whose union is its word set.

    Each plan is a cell ``_frobenius_scan(length, q, j)`` (see
    :func:`_depth_profile`) from :func:`_cells`, with the caps that
    ``contains`` lowers.  A length query with a depth bound q is the union
    of its cells for every depth up to q, but it is planned so only when the
    length is above q and the query is not MED; otherwise it is one walked
    box, caps at the bound and no pin (j = 0).  A closed cell and a walked
    cell cost about the same, but the box shares each prefix among all its
    q*length cells and hands the last position over as one value range,
    which beats the cells at every l <= q.  Box time over cells time,
    serial, best of 5 (one run at l >= 9), the mean of two rounds, on a
    2-core x86-64 host:

    ======  =====  =====  =====  =====  =====
    q \\ l   q-2    q-1    q      q+1    q+2
    ======  =====  =====  =====  =====  =====
    4       0.12   0.17   0.30   0.57   1.08
    5       0.11   0.23   0.43   0.77   1.20
    6       0.18   0.35   0.59   0.78   1.05
    7       0.29   0.43   0.55   0.70   0.80
    8       0.34   0.38   0.49   0.53   0.58
    ======  =====  =====  =====  =====  =====

    The box also wins at every l = q + 1, and at l = q + 2 for q = 7 and
    8; the rule still plans those lengths as cells (ROADMAP item 3 weighs
    moving it against a subset scan that bins its last position).

    A MED box wins at every length measured, since strict cells are walked
    too: strict box time over strict cells time, each by :func:`_fold`, best
    of 3, same host, was 0.19-0.32 for q = 3..6 and l = q-1..q+4 (0.59 at
    (2, 3), of times under 0.1 ms); at (l, q) = (10, 6) the box took 0.29 s
    and the cells 1.01 s.  MED counts take the lift instead
    (:func:`_med_via_membership`), so the MED box serves enumeration and
    :func:`_walked_histogram`.

    The depth and stressed filters drop cells, ``contains`` lowers caps and
    MED makes every inequality strict.  A scan keeps words only while every
    cap is at least 1 and a cell's pinned cap is still its q; any other (a
    q = 1 cell longer than f, a cap that ``contains`` lowered to 0, or a
    cell's pin that it lowered) is dropped.
    """
    _require_finite(query)
    if any(n < 0 for n in query.contains):
        return []
    length, bound = query.length, query.depth_max
    if query.frobenius is None and bound and (length <= bound or query.med):
        scans = [(length, (bound,) * length, 0, 0)] if length >= 1 else []
    else:
        scans = [_frobenius_scan(*cell) for cell in _cells(query)]
    strict = 1 if query.med else 0
    plans = []
    for length, caps, j, _ in scans:
        m = length + 1
        q = caps[j - 1]
        caps = list(caps)
        for n in query.contains:
            r = n % m
            if r:
                caps[r - 1] = min(caps[r - 1], n // m)
        if min(caps) >= 1 and (not j or caps[j - 1] == q):
            plans.append((length, tuple(caps), j, strict))
    return plans


# ---------------------------------------------------------------------------
# the walker
# ---------------------------------------------------------------------------


def _walk(scan: Scan):
    """Yield the leaves of a scan's search tree.

    The search fixes positions one at a time, from 1 up to the word length.
    Each entry's floor is 1, but a cell's pinned entry, at j, is floored at
    its cap q.  Each leaf is ``(w, gsum, lb, ub)``: ``w[1:length]`` is a
    valid prefix with entry sum ``gsum``, and it extends to a valid word
    exactly by the values ``lb..ub`` at the last position.  Leaves come in
    lexicographic order.  ``w`` is reused, so read it before asking for the
    next leaf.

    Each position below L-1 has its interval from a pass over the
    inequalities against the prefix set so far.  The last two positions'
    terms are carried down the prefix instead, each refreshed in O(1) when
    position k is set or incremented.  ``hi[k]`` and ``lo[k]`` are the last
    position L's cap and floor from the terms that positions 1..k complete:
    the pair (L-k, k) once 2k >= L and the wrapped difference w[k-1] - w[k].
    ``hi1[k]`` and ``lo1[k]`` are position L-1's: the pair (L-1-k, k) once
    2k >= L-1, the wrapped difference w[k-2] - w[k] once k >= 3, and at
    k = L-3 the self pair of L-1, which wraps onto L-3.  Position L-1 reads
    its interval from them and is looped flat: for each of its values v
    only the pair (1, L-1), w[L-2] - v and the self pair of L remain, so
    neither L-1 nor L is pushed or backed out of.
    """
    length, caps, j, strict = scan
    floors = [1] * length
    if j:
        floors[j - 1] = caps[j - 1]
    comp = 1 - strict
    w = [0] * (length + 1)
    last = length - 1  # the position looped flat
    if not last:
        if floors[0] <= caps[0]:
            yield w, 0, floors[0], caps[0]
        return
    hi = [caps[last]] * last
    lo = [floors[last]] * last
    hi1 = [caps[last - 1]] * last  # position L-1's, as hi and lo are L's
    lo1 = [floors[last - 1]] * last
    top = [0] * last  # the largest value allowed at each set position
    gsum = 0
    p = 1
    while True:
        if p < last:
            ub = caps[p - 1]
            for i in range(1, p // 2 + 1):
                cand = w[i] + w[p - i] - strict
                if cand < ub:
                    ub = cand
            lb = floors[p - 1]
            for i in range(max(1, length + 2 - p), p):
                cand = w[i + p - length - 1] - w[i] - comp
                if cand > lb:
                    lb = cand
            if 2 * p >= length + 2:
                # the pair (p, p) wraps onto position 2p - length - 1, so
                # 2 * w[p] >= w[2p - length - 1] - comp; floors keep lb >= 1
                cand = (w[2 * p - length - 1] - comp + 1) // 2
                if cand > lb:
                    lb = cand
        else:
            ub, lb = hi1[p - 1], lo1[p - 1]
        if lb <= ub and p < last:
            w[p] = lb
            top[p] = ub
            gsum += lb
        else:
            if lb <= ub:
                cap, floor = hi[p - 1], lo[p - 1]
                # w[0] = 0 makes the wrapped term void at length 2
                wrap = w[p - 1] - comp
                for v in range(lb, ub + 1):
                    w[p] = v
                    high = w[1] + v - strict
                    if high > cap:
                        high = cap
                    low = wrap - v
                    if low < floor:
                        low = floor
                    cand = (v + strict) // 2
                    if cand > low:
                        low = cand
                    if low <= high:
                        yield w, gsum + v, low, high
            # back up to the deepest position with a larger value left to try
            p -= 1
            while p and w[p] == top[p]:
                gsum -= w[p]
                p -= 1
            if not p:
                return
            w[p] += 1
            gsum += 1
        cap, floor = hi[p - 1], lo[p - 1]
        if 2 * p >= length:
            cand = w[length - p] + w[p] - strict
            if cand < cap:
                cap = cand
        # at p = 1 the difference is w[0] - w[1] - comp < 1 <= every floor
        cand = w[p - 1] - w[p] - comp
        if cand > floor:
            floor = cand
        hi[p], lo[p] = cap, floor
        cap, floor = hi1[p - 1], lo1[p - 1]
        if 2 * p >= last:
            cand = w[last - p] + w[p] - strict
            if cand < cap:
                cap = cand
        if p >= 3:
            # the pair (p, L-1) wraps onto position p - 2
            cand = w[p - 2] - w[p] - comp
            if cand > floor:
                floor = cand
        if p == last - 2:
            # the pair (L-1, L-1) wraps onto position L-3 = p
            cand = (w[p] - comp + 1) // 2
            if cand > floor:
                floor = cand
        hi1[p], lo1[p] = cap, floor
        p += 1


def _words(scan: Scan, pack=tuple):
    """Yield a scan's words, walked, in ascending lexicographic order, each
    packed by ``pack``: ``tuple``, or ``bytes`` when every cap is below 256.

    A leaf packs its prefix once and adds one packed last entry per value:
    a one-byte key from a table of the cap + 1 values, which stops at 256
    (``bytes((256,))`` raises), or a one-tuple made on the way, so that no
    cap, however large, is expanded ahead of the words it bounds.
    """
    length, cap = scan[0], scan[1][-1]
    ends = [bytes((v,)) for v in range(cap + 1)] if pack is bytes else None
    for w, _, lb, ub in _walk(scan):
        base = pack(w[1:length])
        for end in zip(range(lb, ub + 1)) if ends is None else ends[lb:ub + 1]:
            yield base + end


def _cell_words(scan: Scan, pack=tuple):
    """Yield a whole scan's words in ascending lexicographic order, each
    packed by ``pack`` as in :func:`_words`.

    This is to :func:`_words` what :func:`_solve` is to :func:`_fold`: a
    cell of depth q <= 3 with no cap lowered is read from the product
    structure of its closed form (see :func:`_closed_form`), and any other
    scan is walked.

    * q = 1: the word of ones when j = length, else nothing;
    * q = 2: a free {1,2} head of length j-1, then the 2 at j and ones;
    * q = 3: a stressed depth-3 head of length j, walked, each followed by
      every free {1,2} tail (:func:`_free_words`); when j = length the
      heads are the words.

    Packed as ``bytes``, the words compare as the tuples do (memcmp, a
    shorter prefix first), so merging and sorting them keeps tuple order.
    """
    length, caps, j, _ = scan
    q = caps[j - 1]
    # a box (j = 0), a MED scan and a cell with a lowered cap are walked
    if not j or q >= 4 or scan != _frobenius_scan(length, q, j):
        return _words(scan, pack)
    if q == 1:
        return iter([pack((1,) * length)] if j == length else [])
    if q == 2:
        return _free_words([pack(())], j - 1,
                           pack((2,) + (1,) * (length - j)), pack)
    heads = _words(_frobenius_scan(j, 3, j), pack)
    if j == length:
        return heads
    return _free_words(heads, length - j, pack(()), pack)


def _free_words(prefixes, n: int, suffix, pack):
    """Each of the packed ``prefixes`` followed by every {1,2}-word of
    length n and by ``suffix``, in lexicographic order, lazily.

    The last min(n, 6) free positions, with the suffix, come from one list
    of at most 64 keys built on the call, so that each word costs one
    concatenation, not a packing of its own; any higher free positions are
    added to the prefixes first.  Packing each free word whole and adding
    the suffix and the prefix to it drained the words of ``--f 27..30``
    about a third slower; 3 or 9 low positions were no faster.
    """
    k = min(n, 6)
    lows = [pack(low) + suffix for low in product((1, 2), repeat=k)]
    if n > k:
        prefixes = (prefix + pack(high) for prefix in prefixes
                    for high in product((1, 2), repeat=n - k))
    return chain.from_iterable(map(add, repeat(prefix), lows)
                               for prefix in prefixes)


def _fold(scan: Scan) -> list[int]:
    """Genus histogram, indexed by genus, of a scan, walked."""
    diff = [0] * (sum(scan[1]) + 2)
    for _, gsum, lb, ub in _walk(scan):
        diff[gsum + lb] += 1
        diff[gsum + ub + 1] -= 1
    return list(accumulate(diff))


def _walked_histogram(query: CountQuery) -> dict[int, int]:
    """The query's genus histogram with every scan walked: no closed form
    or lift enters, so the closed genus polynomials of :func:`_closed_form`
    and the MED lift are tested against it."""
    return _sum(map(_fold, _plans(query)))


# ---------------------------------------------------------------------------
# closed genus polynomials of the Frobenius-number scans
# ---------------------------------------------------------------------------


def _closed_form(scan: Scan) -> list[int] | None:
    """Genus histogram, indexed by genus, of a cell: a scan with a pin
    j >= 1 and no MED strictness, its maximum q = caps[j-1] at j.  A box
    (j = 0) or a MED scan gives ``None``, and :func:`_solve` walks it.

    For q <= 2, and for q = 3 with no cap lowered, the genus polynomial is a
    sum of terms x^shift (1+x)^free:

    * q = 1: the single word of ones when j = length, else nothing (the
      caps after j are 0);
    * q = 2: every {1,2}-word with its last 2 at position j is valid, so
      x^(l+1) (1+x)^k, where k counts the positions before j whose cap is
      still 2 (``contains`` pins the others to 1);
    * q = 3: the head up to position j is a stressed depth-3 word and the
      tail is free over {1,2}, so S_j(x) (x+x^2)^(length-j).

    Every other cell comes from :func:`_subset_scan`.
    :func:`_cell_words` reads the words of the uncapped q <= 3 cells from
    the same products.
    """
    length, caps, j, strict = scan
    if not j or strict:
        return None
    q = caps[j - 1]
    if q == 1:
        bins = {(length, 0): 1} if j == length else {}
    elif q == 2:
        bins = {(length + 1, caps[:j - 1].count(2)): 1}
    elif q == 3 and caps == _frobenius_scan(length, 3, j)[1]:
        free = length - j
        bins = {(g + free, free): c
                for g, c in enumerate(_stressed3_scan(j)) if c}
    else:
        return list(_subset_scan(length, caps, j))
    return list(_expand(bins))


def _solve(scan: Scan) -> list[int]:
    """Genus histogram of a whole scan: its closed form when it is a cell,
    else walked."""
    hist = _closed_form(scan)
    return _fold(scan) if hist is None else hist


def _sum(hists) -> dict[int, int]:
    """Sum of genus histograms, as ``genus -> count`` without zeros."""
    total: dict[int, int] = {}
    for hist in hists:
        for g, n in enumerate(hist):
            if n:
                total[g] = total.get(g, 0) + n
    return dict(sorted(total.items()))


# ---------------------------------------------------------------------------
# public generic entry points
# ---------------------------------------------------------------------------


def _parts(query: CountQuery) -> list[tuple[int, list[int]]]:
    """The query's words as disjoint parts ``(length, genus histogram)``:
    MED ones through the lift, else one per plan (see :func:`_solve`)."""
    if query.med:
        return _med_via_membership(query)
    return [(scan[0], _solve(scan)) for scan in _plans(query)]


def genus_histogram(query: CountQuery) -> dict[int, int]:
    """Exact histogram ``genus -> number of matching words``.

    Cells come from closed genus polynomials, MED words through the lift
    onto closed cells, and the depth-bound boxes are walked.
    """
    return _sum(hist for _, hist in _parts(query))


def count_and_genus(query: CountQuery) -> tuple[int, int]:
    """Number of matching words and the sum of their genera."""
    hist = genus_histogram(query)
    return sum(hist.values()), sum(g * n for g, n in hist.items())


def count_words(query: CountQuery) -> int:
    """Number of Kunz words matching the query, in one process."""
    return sum(sum(hist) for _, hist in _parts(query))


def count_by_length(query: CountQuery) -> dict[int, int]:
    """Number of matching words of each length, ``length -> count``."""
    counts: dict[int, int] = {}
    for length, hist in _parts(query):
        counts[length] = counts.get(length, 0) + sum(hist)
    return {length: n for length, n in sorted(counts.items()) if n}


def enumerate_words(query: CountQuery):
    """Matching words as ``KunzWord``s, in ascending tuple order.

    The words are those of :func:`_word_blocks`, one block after another:
    each plan's words come from :func:`_cell_words`, and the disjoint
    streams, of one length or several, are merged block by block in plain
    tuple order, so the output is globally sorted (a shorter prefix first);
    within one length it is ascending lexicographic.  At most one batch of
    words is held at a time.  The plans are built on the call, so a bad
    query raises before the first word.
    """
    words = chain.from_iterable(_word_blocks(query))
    # every entry lies in 1..q by construction, so the words skip KunzWord's
    # entry check; a key is read the same way whether bytes or a tuple
    return map(partial(tuple.__new__, KunzWord), words)


def _word_blocks(query: CountQuery):
    """The query's words as keys in sorted, non-empty blocks, which
    concatenate in ascending tuple order.

    A key is ``bytes``, one byte per entry, unless some plan caps an entry
    at 256 or more; then every key of the query is a tuple, so that the
    merge never compares the two.  Each plan's words stream from
    :func:`_cell_words`, and :func:`_merge_blocks` merges the streams,
    reading ``_BATCH // plans`` words of each at a time, so that all of
    them together hold at most one batch.  The plans are built on the call,
    so a bad query raises here.
    """
    plans = _plans(query)
    pack = tuple if any(max(scan[1]) >= 256 for scan in plans) else bytes
    streams = [_cell_words(scan, pack) for scan in plans]
    return _merge_blocks(streams, max(_BATCH // (len(streams) or 1), 1))


def _merge_blocks(streams, size: int):
    """Merge sorted streams of words into sorted, non-empty blocks.

    The words may be tuples or ``bytes`` keys, but not both: the two
    compare the same way, and this only compares and slices them.

    Each stream is read ``size`` words at a time into its buffer.  The least
    last word among the buffers bounds a block: every buffer is cut after
    the bound (``bisect_right``), and the pieces, each a sorted run, become
    the block through one ``list.sort``, which merges runs in C.  The buffer
    that set the bound is emptied, so no block is empty, and every word left
    buffered lies above the bound, so the blocks concatenate in order.
    Buffers are refilled only after a block is handed out: the block and
    the buffers together hold at most ``size`` words per stream.
    """
    pending = [([], iter(stream)) for stream in streams]
    while True:
        for buffer, stream in pending:
            if not buffer:
                buffer.extend(islice(stream, size))
        pending = [pair for pair in pending if pair[0]]
        if not pending:
            return
        bound = min(buffer[-1] for buffer, _ in pending)
        block = []
        for buffer, _ in pending:
            cut = bisect_right(buffer, bound)
            block += buffer[:cut]
            del buffer[:cut]
        block.sort()
        yield block

# ---------------------------------------------------------------------------
# subset scans: the stressed depth-3 table, and every Frobenius-number scan
# of depth 4 and more
# ---------------------------------------------------------------------------


def _expand(bins: dict[tuple[int, int], int]) -> tuple[int, ...]:
    """The polynomial sum of n x^shift (1+x)^free over ``{(shift, free): n}``,
    as its coefficients."""
    poly = [0] * (max((shift + free for shift, free in bins), default=-1) + 1)
    for (shift, free), n in bins.items():
        for i in range(free + 1):
            poly[shift + i] += n * comb(free, i)
    return tuple(poly)


@lru_cache(maxsize=None)
def _stressed3_scan(length: int) -> tuple[int, ...]:
    """Genus polynomial S_length of the stressed depth-3 words of that length.

    Returned as its coefficients, indexed by genus.  A word here has entries
    in {1,2,3} with the final entry equal to 3.  With the last entry pinned,
    validity only depends on the set S of positions holding a 1: the word is
    valid iff no two positions of S (repeats allowed) sum to the final
    position, and every position in (S+S) below the final one is then forced
    to hold a 2.  Positions outside S u (S+S) are free over {2,3}, so a leaf
    contributes x^(|S| + 2*forced + 3) (x^2 + x^3)^free.  Both exponents
    depend only on |S| and on u = |S u (S+S)| below the final position, so
    leaves are binned by (u, |S|) and each bin is expanded once.

    The search over S stops at the cut c = length - k and bins the k top
    positions c..length-1 in bulk, with k = (length - 5) // 4 from length 11
    on and k = 0 below, where the table would cost more than it saves.
    Near that k the time barely moves with k, while the nodes kept at the
    cut double with each step, so k sits at the low end.  As k < length/2,
    a top position p meets the rest of S only through H, the positions of S
    in 1..k: its partner length - p lies in 1..k, a sum p + s below the
    final position needs s < k, and two top positions sum past it.  So a
    node at the cut is binned by H, the covered top positions, u so far and
    |S|.  Each (H, covered top) pair is then expanded once, from a table
    over the top subsets T whose partners miss H: T adds |T| to |S|, and to
    u the top positions that T u (T+H) covers and the walk had not.

    This is the rule set of :func:`_subset_scan` for q = 3, j = length and
    no lowered cap, tuned: the only low value is 1, and the big slot {2,3}
    is forced to 2 exactly on S+S.  Every other cell of depth 3 or more
    runs in :func:`_subset_scan` itself.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length == 0:
        return (1,)
    k = (length - 5) // 4 if length > 10 else 0
    cut = length - k
    top = 1 << length
    full_mask = (top << 1) - 1
    below = (1 << cut) - 2  # bits 1 .. cut-1
    heads = (1 << (k + 1)) - 2  # bits 1 .. k, the top positions' partners
    square = length * length
    # nodes at the cut, keyed by (H << k | covered top) * square
    # + u * length + |S|, with u counting the covered positions below the cut
    nodes: dict[int, int] = {}
    # stack entries: (next candidate position, S mask, S u (S+S) mask, |S|);
    # an entry leaves out every position up to the cut, pushing each branch
    # that puts one in S instead
    stack = [(1, 0, 0, 0)]
    while stack:
        p, smask, umask, size = stack.pop()
        while p < cut:
            bit = 1 << p
            new_s = smask | bit
            new_u = (umask | bit | new_s << p) & full_mask
            if not new_u & top:
                stack.append((p + 1, new_s, new_u, size + 1))
            p += 1
        key = (umask & below).bit_count() * length + size
        if k:
            key += ((smask & heads) << k | umask >> cut) * square
        nodes[key] = nodes.get(key, 0) + 1
    bins = nodes
    if k:
        window = (1 << k) - 1  # top position c + i at bit i
        bins = {}
        last = None
        # sorted, the nodes of one (H, covered top) pair come together, so
        # each pair's table is built once and dropped
        for key in sorted(nodes):
            pair, base = divmod(key, square)
            if pair != last:
                last = pair
                h_mask, seen = divmod(pair, 1 << k)
                h = [a for a in range(1, k + 1) if h_mask >> a & 1]
                # c + i has its partner at k - i, and c + i + a is a top
                # position when i + a < k
                allowed = window & ~sum(1 << (k - a) for a in h)
                table: dict[int, int] = {}
                sub = allowed
                while True:
                    cover = sub
                    for a in h:
                        cover |= sub << a
                    off = ((cover & window | seen).bit_count() * length
                           + sub.bit_count())
                    table[off] = table.get(off, 0) + 1
                    if not sub:
                        break
                    sub = (sub - 1) & allowed
            n = nodes[key]
            for off, m in table.items():
                bins[base + off] = bins.get(base + off, 0) + n * m
    # every entry at its least: 1 on S, 2 elsewhere below the final 3
    least = 2 * length + 1
    shifted: dict[tuple[int, int], int] = {}
    for key, n in bins.items():
        ubits, size = divmod(key, length)
        shifted[least - size, length - 1 - ubits] = n
    return _expand(shifted)


def _subset_scan(length: int, caps: tuple[int, ...],
                 j: int) -> tuple[int, ...]:
    """Genus polynomial of a cell of depth q >= 3, by genus: the scan
    ``(length, caps, j, 0)``, ``_frobenius_scan(length, q, j)`` with any
    caps but the pinned one lowered, as by ``contains``.

    The maximum q = caps[j-1] is pinned at position j; the caps are at most
    q before j and at most q-1 after.  Call an entry *low* if it lies in
    1..q-2 before j or in 1..q-3 after j; the other values form one *big*
    slot, {q-1, q} before j and {b, q-1} after j with b = max(q-2, 1).
    Every inequality with a big entry or the q at j among its summands
    holds: a big entry before j, and the q at j, are at least q-1, and
    adding at least 1 reaches q; a big entry after j is at least q-2 and
    its sums land after j, where the cap is q-1; a wrapped sum adds 1 more.
    A lowered cap only lowers the entry such a sum must reach, so this
    holds under any caps.  So only low+low sums can fail, onto a+b directly
    or onto a+b-length-1 wrapped with +1.  Let n(t) be the least such sum
    onto position t (wrapped ones counted with their +1):

    * a low entry at t may not exceed n(t);
    * a big slot at t is barred when n(t) is below its least value (q-1
      before j, b after), forced to that value when n(t) equals it, and
      free over its two values otherwise;
    * j itself needs n(j) >= q.

    A cap c at t below the slot's top (q before j, q-1 after) changes the
    choices there: at the slot's least value it forces the slot, which keeps
    its bar and adds no free bit; below that the slot is gone and the low
    values stop at c.

    This is the paper's lower-bound box read the other way: entries in the
    upper half of the range never break an inequality.  The scan fixes, one
    position at a time, a low value or the big slot, and checks each rule as
    soon as both its sum and its entry are known: a direct sum lands above
    its summands, so it is known when the scan reaches its target, and a
    wrapped sum lands below them, so it is checked against the entry already
    there.  Whether a big slot is forced is settled at the leaf, once every
    wrapped sum is known.  A leaf contributes x^shift (1+x)^free, shift
    counting every entry at its least value and free the big slots left
    free; leaves are binned by (shift, free).

    :func:`_stressed3_scan` (q = 3, the head up to j, no cap lowered) is
    the tuned special case of these rules; every other cell of depth q >= 3
    runs here.

    Sums are kept by level in one integer of m-bit fields, m = ``width`` =
    length+1: field i holds at bit t the positions t that receive a low+low
    sum of level i+2 (none is below 2), and ``keep`` drops the levels of q
    and above, which never fail.  ``values`` holds at field v-1 the
    positions of the low entries equal to v, so shifting it by p + (v-1)*m,
    for a new position p of value v, gives every sum with p at once: with a
    placed position s, a direct sum onto s+p <= length stays in its field,
    and a wrapped one carries into the next field at bit s+p-m, its target
    one level up, so the wrapped +1 needs no code.  A sum with s+p = m
    lands on bit 0 of a field >= 1, residue 0, which no mask reads.
    ``need`` holds at field i the positions a sum of level i+2 would break:
    the placed ones, and j from the start, so a prefix that breaks j dies
    at once.

    The masks and shifts of each position are built once, in ``table``: for
    p other than j, its big slot's bar mask, free bit (0 when a cap forces
    the slot) and least value, the next position, and its low values as
    (bar mask, ``values`` bit, sums shift, value); ``below(p, r)`` is 0 for
    r <= 2.  ``sums`` carries bit 0 of field 0, which no sum reaches, so
    the bar mask 1 bars a slot that a cap dropped.  At q = 3 the slot after
    j starts at 1, which no sum reaches either: its force mask is 0, not a
    negative shift.  Position j is no node: the position before it steps to
    j+1 with j's q in its stored values, and with j = 1 the scan starts at
    2 with q in its shift.  Children past the last position are binned at
    once, not pushed.
    """
    q = caps[j - 1]
    width = length + 1  # m bits: a sum past the length carries
    keep = (1 << ((q - 2) * width)) - 1  # the fields of levels 2 .. q-1
    before = (1 << j) - 2  # bits 1 .. j-1
    after = (1 << width) - (1 << (j + 1)) if q > 3 else 0  # bits j+1 .. length
    force_before, force_after = (q - 3) * width, max(q - 4, 0) * width

    def below(p: int, r: int) -> int:
        """Bit p in the fields of the levels below r: a repunit, shifted."""
        return ((1 << (max(r - 2, 0) * width)) - 1) // ((1 << width) - 1) << p

    table: list = [None] * (length + 1)
    for p in range(1, length + 1):
        if p != j:
            least, top = (q - 1, q - 2) if p < j else (max(q - 2, 1), q - 3)
            cap = caps[p - 1]
            skip = q if p + 1 == j else 0
            table[p] = (below(p, least) if cap >= least else 1,
                        1 << p if cap > least else 0, least + skip,
                        p + 2 if skip else p + 1,
                        [(below(p, v), 1 << ((v - 1) * width + p),
                          p + (v - 1) * width, v + skip)
                         for v in range(1, min(top, cap) + 1)])
    start = 2 if j == 1 else 1
    if start > length:
        return _expand({(q, 0): 1})  # the word (q)
    bins: dict[tuple[int, int], int] = {}
    # stack entries: (next position, values, sums, need, big slots, shift)
    stack = [(start, 0, 1, below(j, q), 0, q if j == 1 else 0)]
    while stack:
        p, values, sums, need, bigs, shift = stack.pop()
        bar, bit, least, nxt, lows = table[p]
        if nxt <= length:
            if not sums & bar:
                stack.append((nxt, values, sums, need | bar, bigs | bit,
                              shift + least))
            for low_bar, low_bit, low_shift, v in lows:
                if sums & low_bar:
                    break  # a larger low value is barred too
                new_values = values | low_bit
                new = new_values << low_shift & keep
                if not new & need:
                    stack.append((nxt, new_values, sums | new,
                                  need | low_bar, bigs, shift + v))
            continue
        # the last position: every wrapped sum is known once it is set
        if not sums & bar:
            slots = bigs | bit
            forced = ((sums >> force_before) & slots & before
                      | (sums >> force_after) & slots & after)
            key = shift + least, slots.bit_count() - forced.bit_count()
            bins[key] = bins.get(key, 0) + 1
        for low_bar, low_bit, low_shift, v in lows:
            if sums & low_bar:
                break
            new = (values | low_bit) << low_shift
            if not new & need:
                new |= sums
                forced = ((new >> force_before) & bigs & before
                          | (new >> force_after) & bigs & after)
                key = shift + v, bigs.bit_count() - forced.bit_count()
                bins[key] = bins.get(key, 0) + 1
    return _expand(bins)


def count_stressed3(length: int) -> int:
    """Number of stressed depth-3 words of the given length."""
    if length < 1:
        raise ValueError("length must be at least 1")
    return sum(_stressed3_scan(length))


def stressed3_genus_total(length: int) -> tuple[int, int]:
    """(count, genus total) for stressed depth-3 words; length 0 allowed."""
    poly = _stressed3_scan(length)
    return sum(poly), sum(g * n for g, n in enumerate(poly))


def count_depth_le3(length: int) -> int:
    """Words of depth at most 3, by splitting at the last entry equal to 3.

    With entries in {1, 2, 3} the only inequality that can fail is 1 + 1 < 3,
    so these words are also the 3-colourings of 1..length in which no sum of
    two colour-1 elements (x = y allowed) has colour 3; :func:`schur_colorings`
    is this same function under that name.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    total = 1 << length  # depth <= 2: all {1,2}-words are valid
    for j in range(1, length + 1):
        total += (1 << (length - j)) * count_stressed3(j)
    return total


schur_colorings = count_depth_le3


# ---------------------------------------------------------------------------
# closed forms for small depth with fixed Frobenius number
# ---------------------------------------------------------------------------


def closed_k2(frobenius: int, length: int) -> int:
    """Depth-2 words with the given Frobenius number and length, in closed form.

    Such words are 2 at position ``frobenius - length - 1``, 1 afterwards and
    free over {1,2} before (every choice is valid), giving a power of two.
    """
    f, ell = frobenius, length
    if 2 * ell >= f - 1 and ell <= f - 2:
        return 1 << (f - 2 - ell)
    return 0


def closed_k3(frobenius: int, length: int) -> int:
    """Depth-3 words with the given Frobenius number and length, in closed form.

    The head up to the last 3 is a shorter stressed depth-3 word, and the tail
    is free over {1,2}: the two parts never interact.
    """
    f, ell = frobenius, length
    j = f - 2 * (ell + 1)
    if 1 <= j <= ell:
        return (1 << (ell - j)) * count_stressed3(j)
    return 0


# ---------------------------------------------------------------------------
# words that contain a given multiplicity: the MED double count
# ---------------------------------------------------------------------------


def _med_via_membership(query: CountQuery) -> list[tuple[int, list[int]]]:
    """The MED words of a query through the lift, as parts ``(length,
    genus histogram)``, one per plan of each lifted cell.

    A MED semigroup S with multiplicity m and Frobenius number f is
    {0} u (m + T), where T has Frobenius number f - m and contains m; the
    extreme case f = m - 1 (the word of ones) is the lift of the full set
    of nonnegative integers.  The gaps of S are 1..m-1 and m plus the
    gaps of T, so its genus is T's plus m - 1, the length.  The cells of
    :func:`_cells` select the pairs (f, m) that the depth, stressed and
    length filters allow, and S contains n > 0 exactly when n >= m and T
    contains n - m.  So each cell adds the closed plans of one
    ``contains`` query on T, shifted by the length in genus.
    """
    _require_finite(query)
    contains = [n for n in query.contains if n]
    parts = []
    for ell, q, j in _cells(query):
        m = ell + 1
        if any(n < m for n in contains):
            continue  # S misses every n < m but 0
        if q > 1:
            lifted = CountQuery(frobenius=m * (q - 2) + j,
                                contains=(m, *[n - m for n in contains]))
            parts += [(ell, [0] * ell + _solve(scan))
                      for scan in _plans(lifted)]
        elif j == ell:
            parts.append((ell, [0] * ell + [1]))
    return parts


def med_count(frobenius: int, depth: int | None = None) -> int:
    """Number of MED words with the given Frobenius number (and depth, if set).

    Computed two independent ways -- through the lift (:func:`count_words`)
    and by walking the strict inequalities (:func:`_walked_histogram`) --
    and cross-checked before returning.
    """
    if frobenius < 1:
        raise ValueError("the Frobenius number must be at least 1")
    query = CountQuery(frobenius=frobenius, depth_exact=depth, med=True)
    lifted = count_words(query)
    walked = sum(_walked_histogram(query).values())
    if lifted != walked:
        raise ArithmeticError(
            f"MED count mismatch at frobenius={frobenius}, depth={depth}: "
            f"by the lift={lifted}, walked={walked}")
    return lifted


# ---------------------------------------------------------------------------
# an explicit family of words realising the lower bound growth
# ---------------------------------------------------------------------------


def lower_bound_family(depth: int, length: int, j: int):
    """Explicit family of depth-``depth`` words, with its exact size.

    Position j is pinned to the depth q; positions i are confined to
    [ceil((q+1)/2), q] for 2i <= j, to [floor(q/2), q] for j/2 < i < j, to
    [floor(q/2), q-1] for j < i <= (length+j+1)/2 and to
    [floor((q-1)/2), q-1] beyond.  Every selection is a valid word whose
    Frobenius number is (length+1)(q-1) + j.

    Returns ``(stream, size)`` where ``stream`` yields the words.
    """
    q = depth
    if q < 3:
        raise ValueError("the family needs depth at least 3")
    if not 1 <= j <= length:
        raise ValueError("j must lie in 1..length")
    intervals: list[range] = []
    for i in range(1, length + 1):
        if i == j:
            lo = hi = q
        elif 2 * i <= j:
            lo, hi = (q + 1) // 2, q
        elif i < j:
            lo, hi = q // 2, q
        elif 2 * i <= length + j + 1:
            lo, hi = q // 2, q - 1
        else:
            lo, hi = (q - 1) // 2, q - 1
        intervals.append(range(lo, hi + 1))
    size = 1
    for interval in intervals:
        size *= len(interval)
    # every entry lies in 1..q, so the words skip KunzWord's entry check
    return map(partial(tuple.__new__, KunzWord), product(*intervals)), size


# ---------------------------------------------------------------------------
# tail-heavy words
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailHeavySpec:
    """Parameters for the tail-heavy count.

    ``length`` is the word length, ``tail_width`` the number of trailing
    positions inspected, ``depth`` the alphabet bound q.  The threshold
    ``n_min`` -- how many supported maximal entries the tail must hold -- is
    fixed at ``isqrt(length) + 1``, the least count strictly above the square
    root of the length.
    """

    length: int
    tail_width: int
    depth: int

    def __post_init__(self) -> None:
        if not 1 <= self.tail_width <= self.length:
            raise ValueError("tail width must lie in 1..length")
        if self.depth < 2:
            raise ValueError("depth must be at least 2")

    @property
    def n_min(self) -> int:
        return isqrt(self.length) + 1


def _head_pairs(spec: TailHeavySpec) -> list[list[tuple[int, int]]]:
    """For each tail position, the head index pairs that sum onto it."""
    h = spec.length - spec.tail_width
    out = []
    for s in range(h + 1, spec.length + 1):
        pairs = [(x - 1, s - x - 1)
                 for x in range(max(1, s - h), s // 2 + 1)]
        out.append(pairs)
    return out


def is_tail_heavy(word: tuple[int, ...], spec: TailHeavySpec) -> bool:
    """Whether a word in [q]^length has a supported-maximum-heavy tail.

    True when strictly more than sqrt(length) of the last ``tail_width``
    positions hold the value q while every head pair summing onto such a
    position reaches at least q.
    """
    if len(word) != spec.length:
        raise ValueError("word length does not match the spec")
    q = spec.depth
    h = spec.length - spec.tail_width
    supported = 0
    for pairs, s in zip(_head_pairs(spec), range(h + 1, spec.length + 1)):
        if word[s - 1] != q:
            continue
        if all(word[x] + word[y] >= q for x, y in pairs):
            supported += 1
    return supported >= spec.n_min


def tail_heavy_count(spec: TailHeavySpec) -> int:
    """Exact number of tail-heavy words in [q]^length.

    For each head only the number d of tail positions all of whose head pairs
    reach q matters, and the tails for a given d are counted in closed form.
    A head value of q-1 or more reaches q with any partner (itself included,
    as q >= 2), so q-1 and q pass the same pair tests: the heads over 1..q-1
    are walked, each standing for the 2^c heads got by raising any subset of
    its c entries equal to q-1 to q.

    The walk sets head positions 0..h-1 in turn (h = length - tail_width)
    and carries two integers.  ``fail`` has bit i+j set when the entries at
    i <= j add up to less than q.  ``low`` is q fields of h bits each, field
    c (bits c*h .. c*h+h-1) having bit i set when the entry at i is below c.
    Setting position k to v ORs bit k into fields v+1..q-1 and adds to
    ``fail`` the sums k+i over the earlier i in field q-v, and 2k when
    2v < q.  Tail position s (1-based) takes the head pairs summing to s-2,
    so a full head has d = tail_width - popcount(fail & window), the window
    being bits h-1..length-2.  Heads are tallied by d as the last position
    is set, without pushing the full head.
    """
    q = spec.depth
    t = spec.tail_width
    n_min = spec.n_min
    if n_min > t:
        return 0
    h = spec.length - t
    hist = [0] * (t + 1)
    if h == 0:
        hist[t] = 1
    else:
        window = ((1 << t) - 1) << (h - 1)
        field = (1 << h) - 1
        # per value v: where field q-v starts, whether v+v < q, the lowest
        # bit of each field v+1..q-1, and how many heads v stands for
        steps = [((q - v) * h, 2 * v < q,
                  sum(1 << c * h for c in range(v + 1, q)),
                  2 if v == q - 1 else 1) for v in range(1, q)]
        last = h - 1
        stack = [(0, 0, 0, 1)]
        while stack:
            k, fail, low, weight = stack.pop()
            bit = 1 << k
            for start, self_pair, marks, heads in steps:
                below = low >> start & field
                if self_pair:
                    below |= bit
                failed = fail | below << k
                if k == last:
                    hist[t - (failed & window).bit_count()] += weight * heads
                else:
                    stack.append((k + 1, failed, low | marks << k,
                                  weight * heads))
    total = 0
    for d, heads in enumerate(hist):
        if not heads:
            continue
        tails = sum(comb(d, a) * (q - 1) ** (d - a)
                    for a in range(n_min, d + 1))
        total += heads * q ** (t - d) * tails
    return total
