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
(:func:`_closed_form`), kept as bins, each a count n of a term
x^shift (1+x)^free (1+x+x^2)^u: a count reads them at x = 1, as
n 2^free 3^u (:func:`_count`), and only a histogram expands them
(:func:`_expand`).  The cell (l, q, j) has x^l (q = 1, j = l),
x^(l+1)(1+x)^k (q = 2, k the positions before j still capped at 2) and
S_j(x)(x+x^2)^(l-j) (q = 3, no cap lowered), where S_j is the genus
polynomial of the stressed depth-3 words of length j; an uncapped depth-4
cell whose pin sits in the first half, 2j <= l + 1, has its polynomial from
a search over its 1s (:func:`_ones_scan`), and every other cell of depth
q >= 3 from a subset scan.  By the paper's lower bound, an entry in the
upper half of the range never breaks an inequality, and a lowered cap keeps
that true, so each entry is either low or one two-valued big slot, and only
low+low sums can fail: :func:`_subset_scan` holds that rule for every depth
and every cap, and :func:`_stressed3_scan` (S_j) and :func:`_ones_scan` are
its tuned uncapped cases at q = 3 and q = 4, where every entry is a 1 or a
slot.  At depth 4 and more the subset scan does not branch on the top low
value before the pin, q-2, which meets the rest only through a 1: it leaves
each such position one slot {q-2, q-1, q}.  At depth 5 and more it does the
same after the pin with q-3, in one slot {q-3, q-2, q-1}, and it settles
all those slots at the leaf.  The paper's count
floor((q+1)^2/4)^(f/(2q-2)) makes depth 2 and depth 3 (about 2^(f/2)
words) outgrow every deeper layer, and S_j is the paper's stressed table,
which is why that case is tuned: it searches the positions of the 1s only up
to about the last quarter of the word, and bins that quarter from one table,
since those positions meet only the first quarter.

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
words of length j, read from their 1-set rule (:func:`_stressed3_words`),
times free {1,2} tails at q = 3), and every other scan expands the walker's
ranges into words.  Each word is a key of one byte per entry, which
compares by memcmp in the order of its tuple; a query with a cap of 256 or
more packs every key as a tuple instead.  The cell streams
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
against the walker.  The formulas stay because, given S_j, they are O(1)
in f, where :func:`count_words` plans the query and builds one bin per
genus of S_j before it reads them at x = 1: over all 1 <= l <= f <= 60,
with S_j cached, :func:`closed_k3` took 0.3 ms and :func:`count_words` at
depth 3 took 6.0-6.2 ms (9.0-10.7 ms when it still expanded each cell's
genus polynomial; best of 15, two runs on a 2-core x86-64 host).
:func:`tail_heavy_count`,
:func:`med_count` and :func:`lower_bound_family` serve the paper's bounds
and the MED cross-check.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
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

# bins {(shift, free, u): n} stand for the genus polynomial, the sum of
# n x^shift (1+x)^free (1+x+x^2)^u: a count reads it at x = 1 (_count) and
# a histogram expands it (_expand)
Bins = dict[tuple[int, int, int], int]

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
    which beats the cells at every l <= q but (8, 8).  Box time over cells
    time, serial, best of 5 (one run at l >= 9), the mean of two rounds, on
    a 2-core x86-64 host:

    ======  =====  =====  =====  =====  =====
    q \\ l   q-2    q-1    q      q+1    q+2
    ======  =====  =====  =====  =====  =====
    4       0.13   0.14   0.25   0.51   1.09
    5       0.10   0.21   0.42   0.94   1.72
    6       0.18   0.38   0.74   1.83   2.33
    7       0.32   0.63   0.76   1.59   2.21
    8       0.48   0.70   1.03   1.25   1.74
    ======  =====  =====  =====  =====  =====

    The cells win at every l = q + 2 and at l = q + 1 for q >= 5; the box
    still wins at l = q + 1 for q = 4, and is about even at (8, 8), where
    the rule walks it (ROADMAP item 3 weighs a rule by measured cost).

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

    A cell's pin also floors the positions before it.  Once p < j <= 2p,
    the pair (p, j-p) is complete and sums onto the pin, so w[p] is at
    least q + strict - w[j-p], or (q + strict)/2 rounded up when 2p = j;
    when j = L, position L-1's carried floor takes q + strict - w[1] as
    position 1 is set.  Each such floor cuts only prefixes that die at j,
    so the leaves stay the same; the pairs that wrap onto j already enter
    the pass over the prefix.
    """
    length, caps, j, strict = scan
    floors = [1] * length
    if j:
        floors[j - 1] = caps[j - 1]
    comp = 1 - strict
    pin = caps[j - 1] + strict if j else 0  # w[a] + w[j-a] must reach it
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
            if p < j <= 2 * p:
                # the pair (p, j - p) is complete and sums onto the pin
                cand = pin - w[j - p] if 2 * p > j else (pin + 1) // 2
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
        elif p == 1 and j == length:
            # the pair (1, L-1) sums onto a pin at L
            cand = pin - w[1]
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
    * q = 3: a stressed depth-3 head of length j, from its 1-set rule
      (:func:`_stressed3_words`), each followed by every free {1,2} tail
      (:func:`_free_words`); when j = length the heads are the words.

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
    heads = _stressed3_words(j, pack)
    if j == length:
        return heads
    return _free_words(heads, length - j, pack(()), pack)


def _stressed3_words(length: int, pack=tuple):
    """Yield the stressed depth-3 words of the given length in ascending
    lexicographic order, each packed by ``pack`` as in :func:`_words`.

    The rule is :func:`_stressed3_scan`'s, read forward: with the 3 pinned
    at the last position L and S the positions of the 1s set so far, a
    position p < L may hold 1 unless 2p = L or L - p is in S, 3 unless p is
    in S+S (repeats allowed), and 2 always.  An all-2 suffix keeps every
    prefix valid, so no prefix dies: the search is a stack over positions
    1..L-1 that takes the least value in place and pushes the others, and
    the position before the pin is emitted with the 3 from three keys.
    S and S+S are bit masks, and a 1 at p adds (S u {p}) << p to S+S.
    """
    if length == 1:
        yield pack((3,))
        return
    one, two, three = pack((1,)), pack((2,)), pack((3,))
    ends = [pack((v, 3)) for v in (1, 2, 3)]
    pin, last = 1 << length, length - 1
    stack = [(1, pack(()), 0, 0)]
    while stack:
        p, prefix, ones, sums = stack.pop()
        while p < last:
            bit = 1 << p
            if not sums & bit:
                stack.append((p + 1, prefix + three, ones, sums))
            new_ones = ones | bit
            new_sums = sums | new_ones << p
            if new_sums & pin:
                prefix += two
            else:
                stack.append((p + 1, prefix + two, ones, sums))
                prefix += one
                ones, sums = new_ones, new_sums
            p += 1
        bit = 1 << last
        if not (ones | bit) << last & pin:
            yield prefix + ends[0]
        yield prefix + ends[1]
        if not sums & bit:
            yield prefix + ends[2]


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


def _closed_form(scan: Scan) -> Bins | None:
    """Bins of a cell (see :func:`_expand`): a scan with a pin j >= 1 and
    no MED strictness, its maximum q = caps[j-1] at j.  A box (j = 0) or a
    MED scan gives ``None``, and :func:`_solve` walks it.

    For q <= 2, and for q = 3 with no cap lowered, the genus polynomial is a
    sum of terms x^shift (1+x)^free, bins with u = 0:

    * q = 1: the single word of ones when j = length, else nothing (the
      caps after j are 0);
    * q = 2: every {1,2}-word with its last 2 at position j is valid, so
      x^(l+1) (1+x)^k, where k counts the positions before j whose cap is
      still 2 (``contains`` pins the others to 1);
    * q = 3: the head up to position j is a stressed depth-3 word and the
      tail is free over {1,2}, so S_j(x) (x+x^2)^(length-j).

    An uncapped q = 4 cell with its pin in the first half, 2j <= length + 1,
    comes from the search over its 1s (:func:`_ones_scan`), and every other
    cell from :func:`_subset_scan`.  :func:`_cell_words` reads the words of
    the uncapped q <= 3 cells from the same products.

    The cut is measured: the search over 1s beats the subset scan on every
    uncapped q = 4 cell with 2j <= length + 1 tried, and its lead shrinks
    as the pin moves on, since the transfers over the T slots before the
    pin grow with j.  Subset scan time over search time, best of 2 to 7 in
    one process on a 2-core x86-64 host:

    ======  ======================  ======================
    length  last routed pin         next pin
    ======  ======================  ======================
    12      j = 6: 1.79             j = 7: 1.29
    16      j = 8: 1.71             j = 9: 1.40
    20      j = 10: 1.53            j = 11: 1.16
    24      j = 12: 1.81            j = 13: 1.06
    26      j = 13: 1.48            j = 14: 1.10
    27      j = 14: 1.28
    28      j = 14: 2.04
    ======  ======================  ======================

    The next pin still gains here, but less, down to 1.06 at length 24, so
    the cut keeps one pin of margin.  Early pins gain the most: 5-14x at
    (24..28, 4, 3..9).  Late pins keep the scan: their cost is the T slots,
    which the two settle alike, and the same ratio read 0.68-1.08 at
    (16, 4, 12), (18, 4, 14), (20, 4, 15) and (22, 4, 16).
    """
    length, caps, j, strict = scan
    if not j or strict:
        return None
    q = caps[j - 1]
    if q == 1:
        return {(length, 0, 0): 1} if j == length else {}
    if q == 2:
        return {(length + 1, caps[:j - 1].count(2), 0): 1}
    if q == 3 and caps == _frobenius_scan(length, 3, j)[1]:
        free = length - j
        return {(g + free, free, 0): c
                for g, c in enumerate(_stressed3_scan(j)) if c}
    if q == 4 and 2 * j <= length + 1 and \
            caps == _frobenius_scan(length, 4, j)[1]:
        return _ones_scan(length, j)
    return _subset_scan(length, caps, j)


def _solve(scan: Scan) -> Bins:
    """Bins of a whole scan: its closed form when it is a cell, else its
    walked genus histogram, each genus g with n words the bin (g, 0, 0)."""
    bins = _closed_form(scan)
    if bins is None:
        bins = {(g, 0, 0): n for g, n in enumerate(_fold(scan)) if n}
    return bins


def _count(bins: Bins) -> int:
    """Number of words in bins: their polynomial (see :func:`_expand`) at
    x = 1, the sum of n 2^free 3^u."""
    return sum(n * 3 ** u << free for (_, free, u), n in bins.items())


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


def _parts(query: CountQuery) -> list[tuple[int, Bins]]:
    """The query's words as disjoint parts ``(length, bins)``: MED ones
    through the lift, else one per plan (see :func:`_solve`).  A count reads
    the bins at x = 1 (:func:`_count`), a histogram expands them
    (:func:`_expand`)."""
    if query.med:
        return _med_via_membership(query)
    return [(scan[0], _solve(scan)) for scan in _plans(query)]


def genus_histogram(query: CountQuery) -> dict[int, int]:
    """Exact histogram ``genus -> number of matching words``.

    Cells come from closed genus polynomials, MED words through the lift
    onto closed cells, and the depth-bound boxes are walked.  The parts'
    bins are merged by key and expanded once.
    """
    bins: Counter[tuple[int, int, int]] = Counter()
    for _, part in _parts(query):
        bins.update(part)
    return {g: n for g, n in enumerate(_expand(bins)) if n}


def count_and_genus(query: CountQuery) -> tuple[int, int]:
    """Number of matching words and the sum of their genera."""
    hist = genus_histogram(query)
    return sum(hist.values()), sum(g * n for g, n in hist.items())


def count_words(query: CountQuery) -> int:
    """Number of Kunz words matching the query, in one process."""
    return sum(_count(bins) for _, bins in _parts(query))


def count_by_length(query: CountQuery) -> dict[int, int]:
    """Number of matching words of each length, ``length -> count``."""
    counts: dict[int, int] = {}
    for length, bins in _parts(query):
        counts[length] = counts.get(length, 0) + _count(bins)
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


def _expand(bins: Bins) -> tuple[int, ...]:
    """The polynomial sum of n x^shift (1+x)^free (1+x+x^2)^u over the
    bins ``{(shift, free, u): n}``, as its coefficients, indexed by genus.

    (1+x+x^2)^u is the sum over k of C(u, k) x^k (1+x)^k, so each bin is
    first folded into bins with u = 0, merged by (shift, free), and each
    merged bin then costs one binomial per free position.
    """
    merged: dict[tuple[int, int], int] = {}
    for (shift, free, u), n in bins.items():
        for k in range(u + 1):
            key = shift + k, free + k
            merged[key] = merged.get(key, 0) + n * comb(u, k)
    poly = [0] * (max((shift + free for shift, free in merged),
                      default=-1) + 1)
    for (shift, free), n in merged.items():
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
    positions c..length-1 in bulk, with k = max((length - 5) // 4, 0).
    Near that k the time barely moves with k, while the nodes kept at the
    cut double with each step, so k sits at the low end.  As k < length/2,
    a top position p meets the rest of S only through H, the positions of S
    in 1..k: its partner length - p lies in 1..k, a sum p + s below the
    final position needs s < k, and two top positions sum past it.  So the
    nodes at the cut are binned by their (H, covered top) pair, and within
    a pair by u so far and |S|.  Each pair is then expanded once, from a
    table over the top subsets T whose partners miss H: T adds |T| to |S|,
    and to u the top positions that T u (T+H) covers and the walk had not.
    With k = 0 there is one pair, and its table holds only the empty T.

    This is the rule set of :func:`_subset_scan` for q = 3, j = length and
    no lowered cap, tuned: the only low value is 1, and the big slot {2,3}
    is forced to 2 exactly on S+S.  :func:`_ones_scan` is the same search
    at q = 4 with an early pin, :func:`_subset_scan` runs every other cell
    of depth 3 or more, and :func:`_stressed3_words` reads the same rule
    forward to list the words.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length == 0:
        return (1,)
    k = max((length - 5) // 4, 0)
    cut = length - k
    top = 1 << length
    full_mask = (top << 1) - 1
    below = (1 << cut) - 2  # bits 1 .. cut-1
    heads = (1 << (k + 1)) - 2  # bits 1 .. k, the top positions' partners
    # nodes at the cut, by (H, covered top), then by u * length + |S|, with
    # u counting the covered positions below the cut
    pairs: dict[tuple[int, int], dict[int, int]] = {}
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
        pair = smask & heads, umask >> cut
        nodes = pairs.get(pair)
        if nodes is None:
            nodes = pairs[pair] = {}
        key = (umask & below).bit_count() * length + size
        nodes[key] = nodes.get(key, 0) + 1
    window = (1 << k) - 1  # top position c + i at bit i
    bins: dict[int, int] = {}
    for (h_mask, seen), nodes in pairs.items():
        h = [a for a in range(1, k + 1) if h_mask >> a & 1]
        # c + i has its partner at k - i, and c + i + a is a top position
        # when i + a < k
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
        for base, n in nodes.items():
            for off, m in table.items():
                bins[base + off] = bins.get(base + off, 0) + n * m
    # every entry at its least: 1 on S, 2 elsewhere below the final 3
    least = 2 * length + 1
    shifted: Bins = {}
    for key, n in bins.items():
        ubits, size = divmod(key, length)
        shifted[least - size, length - 1 - ubits, 0] = n
    return _expand(shifted)


def _subset_scan(length: int, caps: tuple[int, ...],
                 j: int) -> Bins:
    """Bins (see :func:`_expand`) of a cell of depth q >= 3: the scan
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
    free; leaves are binned by (shift, free, 0).

    At q >= 4 the top low value before j, q-2, meets the rest only through
    a 1: (q-2)+1 lands at level q-1, and every other sum with it, (q-2)+2
    directly or (q-2)+1+1 wrapped, reaches q.  A sum of level q-1 only
    forces a big slot before j and breaks j, and no low value depends on
    where the q-2 entries sit.  So the scan does not branch on them: before
    j a position takes a low value 1..q-3 or one *T slot* {q-2} u {q-1, q},
    barred by a sum of level below q-2.

    At q >= 5 the top low value after j, q-3, meets the rest only through
    1s as well: (q-3)+1 lands after j at level q-2, which bars q-1 there;
    (q-3)+1+1 wrapped lands at level q-1, which forces a T slot's big value
    and breaks j; every other sum with it reaches q-1 after j, or q (two of
    them make 2q-6 >= q-1).  So after j a position takes a low value
    1..q-4 or one *U slot* {q-3} u {q-2, q-1}, barred by a sum of level
    below q-3.  At q = 4, q-3 is 1, whose sum with itself fails, so the
    positions after j keep the big slot.  The leaf, where every low sum is
    known, sorts its T and U slots, with l the slot's least value (q-2 on a
    T slot, q-3 on a U slot):

    * M, a sum of level l or a cap of l there: only the top l is left;
    * X, the positions j-a, and j+m-a after j, for each 1 at a: the top
      would break j, so the big slot stays, x^(l+1)(1+x), or x^(l+1) in F;
    * F, a sum of level l+1 or a cap of l+1 there: the big slot is forced;
    * any other gives x^l(1+x+x^2), or x^l(1+x) in F.

    A cap of l or l+1 enters ``sums`` as a sum of that level landing on its
    position.  A top also forces big values through each 1 at a: a T top
    at t the T slot at t+a, a U top at t the U slot at t+a and the T slot
    at t+a-m.  With the positions rotated to p-j-1 mod m (the U slots
    first, then the T slots, then j), each of those marks lands at t+a,
    and every other t+a is j itself (X) or lies past it, where the sum
    changes nothing.  A top that may be held and a slot it marks whose
    big value is open are *linked*; :func:`_top_slots` runs one forward
    transfer over the linked slots, rotated, memoized within the call by
    its masks, and the other slots stand alone.  So a leaf gives one bin
    (shift, free, u) per outcome of its transfer, u its lone slots of the
    last kind, each a factor 1+x+x^2, which a count reads as 3 and a
    histogram expands (:func:`_expand`).
    At q = 3 the top low value is 1 on both sides of j, so q = 3 keeps the
    two-way branch.

    :func:`_stressed3_scan` (q = 3, the head up to j, no cap lowered) and
    :func:`_ones_scan` (q = 4, no cap lowered, 2j <= length + 1) are the
    tuned special cases of these rules; every other cell of depth q >= 3
    runs here, and so may those two, as their oracle.

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
    the slot; always set for a T or U slot, whose caps sit in ``sums``) and
    least value, the next position, and its low values as (bar mask,
    ``values`` bit, sums shift, value); ``below(p, r)`` is 0 for r <= 2.
    A 1 at p also sets bit j-p (p < j, q >= 4) or j+m-p (p > j, q >= 5)
    of ``values``' field q-2, which every shift carries past ``keep``, so
    the leaf reads X there.  ``sums`` carries bit 0 of field 0, which no
    sum reaches, so the bar mask 1 bars a slot that a cap dropped.  At
    q = 3 the slot after j starts at 1, which no sum reaches either, so
    ``plain`` leaves it out of the forced slots.  Position j is no node:
    the position before it steps to j+1 with j's q in its stored values,
    and with j = 1 the scan starts at 2 with q in its shift.  One step
    makes every node's children, the big slot and the low values up to
    the first barred one; those of the last position go to a list of the
    node's leaves instead of the stack, and one loop resolves them: a leaf
    with no T or U slot is binned at once, the others are sorted as above.
    """
    q = caps[j - 1]
    width = length + 1  # m bits: a sum past the length carries
    keep = (1 << ((q - 2) * width)) - 1  # the fields of levels 2 .. q-1
    before = (1 << j) - 2  # bits 1 .. j-1
    after = (1 << width) - (1 << (j + 1))  # bits j+1 .. length
    # T slots before j at q >= 4, U slots after j at q >= 5
    tops = (before if q > 3 else 0) | (after if q > 4 else 0)
    # the two-valued big slots a level-2 sum forces: {2, 3} before j at
    # q = 3 and after j at q = 4
    plain = before if q == 3 else after if q == 4 else 0
    ones_seen = before if q == 4 else before | after  # the 1s a top meets
    # the slots rotated, position p to p - j - 1 mod m: the U slots first,
    # then the T slots, and j last
    turn, back, window = j + 1, width - j - 1, (1 << length) - 1
    mark = (q - 2) * width  # values' field of X, where a top breaks j
    # the fields of the levels that make a slot hold its top (m) or force
    # its big value (f): q-2 and q-1 on a T slot, q-3 and q-2 on a U slot
    t_m, t_f, u_m = (q - 4) * width, (q - 3) * width, max(q - 5, 0) * width
    sums = 1

    def below(p: int, r: int) -> int:
        """Bit p in the fields of the levels below r: a repunit, shifted."""
        return ((1 << (max(r - 2, 0) * width)) - 1) // ((1 << width) - 1) << p

    table: list = [None] * (length + 1)
    for p in range(1, length + 1):
        if p == j:
            continue
        slot = tops >> p & 1  # a T or U slot: its bit marks it, not a choice
        least = (q - 1 if q == 3 else q - 2) if p < j else \
            q - 3 if q > 4 else max(q - 2, 1)
        cap = caps[p - 1]
        if slot and least <= cap <= least + 1:
            # a cap of the slot's least value or the next acts as a sum of
            # that level landing on p
            sums |= 1 << ((cap - 2) * width + p)
        skip = q if p + 1 == j else 0
        bar = below(p, least) if cap >= least else 1
        bit = 1 << p if cap > least or slot else 0
        nxt = p + 2 if skip else p + 1
        lows = [(below(p, v), 1 << ((v - 1) * width + p),
                 p + (v - 1) * width, v + skip)
                for v in range(1, min(least - 1, cap) + 1)]
        if slot and lows:
            # a 1 at p marks j - p, or j + m - p after j, where a top would
            # break j
            low_bar, low_bit, low_shift, v = lows[0]
            x = j - p if p < j else j + width - p
            lows[0] = low_bar, low_bit | 1 << (mark + x), low_shift, v
        table[p] = bar, bit, least + skip, nxt, lows
    start = 2 if j == 1 else 1
    if start > length:
        return {(q, 0, 0): 1}  # the word (q)
    bins: Bins = {}
    memo: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}  # transfers
    # stack entries: (next position, values, sums, need, big slots, shift)
    stack = [(start, 0, sums, below(j, q), 0, q if j == 1 else 0)]
    while stack:
        p, values, sums, need, bigs, shift = stack.pop()
        bar, bit, least, nxt, lows = table[p]
        # the children of the last position are leaves, resolved below
        kids = stack if nxt <= length else []
        if not sums & bar:
            kids.append((nxt, values, sums, need | bar, bigs | bit,
                         shift + least))
        for low_bar, low_bit, low_shift, v in lows:
            if sums & low_bar:
                break  # a larger low value is barred too
            new_values = values | low_bit
            new = new_values << low_shift & keep
            if not new & need:
                kids.append((nxt, new_values, sums | new, need | low_bar,
                             bigs, shift + v))
        if kids is stack:
            continue
        # the leaves: every wrapped sum is known
        for _, ones, sums, _, slots, shift in kids:
            ts = slots & tops
            if not ts:
                key = shift, (slots & ~(sums & plain)).bit_count(), 0
                bins[key] = bins.get(key, 0) + 1
                continue
            level = sums >> t_m
            ms = (level & before | sums >> u_m & after) & ts
            xs = ones >> mark & ts
            if xs & ms:
                continue  # a slot must hold the top and may not
            fs = (sums >> t_f & before | level & after) & ts & ~ms
            big = ts & ~(ms | fs)  # the slots whose big value is open
            free = slots & ~(sums & plain | tops)  # plain, left free
            # rotated, a top at t marks t + a for each 1 at a (T to T and U
            # to U directly, U to T wrapped): it and the open slots it marks
            # are linked
            ones &= ones_seen
            linked = 0
            if big and ones:
                held = ((ts & ~xs) >> turn | (ts & ~xs) << back) & window
                open_ = (big >> turn | big << back) & window
                rest = ones
                while rest:
                    low = rest & -rest
                    rest ^= low
                    hit = held * low & open_
                    linked |= hit | hit // low
            if not linked:
                key = (shift + xs.bit_count(), (free | fs ^ xs).bit_count(),
                       (big & ~xs).bit_count())
                bins[key] = bins.get(key, 0) + 1
                continue
            ts, ms, xs, fs = ((x >> turn | x << back) & window
                              for x in (ts, ms, xs, fs))
            alone = ts & ~linked
            shift += (xs & alone).bit_count()
            free = free.bit_count() + ((fs ^ xs) & alone).bit_count()
            u = (alone & ~(ms | fs | xs)).bit_count()
            masks = linked, ms & linked, xs & linked, fs & linked, ones
            out = memo.get(masks)
            if out is None:
                out = memo[masks] = _top_slots(*masks)
            for (s, f), n in out.items():
                key = shift + s, free + f, u
                bins[key] = bins.get(key, 0) + n
    return bins


def _ones_scan(length: int, j: int) -> Bins:
    """Bins (see :func:`_expand`) of the uncapped depth-4 cell
    ``_frobenius_scan(length, 4, j)``, by a search over its 1s.

    These are :func:`_subset_scan`'s rules at q = 4 with no cap lowered.
    Every position but j holds a 1 or a slot: before j the T slot
    {2, 3, 4}, after j the big slot {2, 3}.  So a word is read from S, its
    set of 1s: B before j and A after it, with m = length + 1.

    * No b + b' = j and no a + a' = m + j (repeats allowed): 1 + 1, and
      1 + 1 + 1 wrapped, fall short of the 4 at j.  Nothing else reaches j:
      a + b = m + j would need a > length, and b + b' < m + j.
    * A slot after j is forced to 2 where a direct sum s + s' lands, and is
      free otherwise.  A 1 is never barred, and a 2 after j meets nothing:
      its sums reach 3 after j or 4 wrapped.
    * The T slots are settled by :func:`_top_slots`, unrotated, with M the
      direct sums B + B below j (a 2 there), X the positions j - b (a 2
      there breaks j) and F the positions outside M that a wrapped sum
      s + s' - m reaches (a 3 there).  M meeting X leaves no word.

    The search takes each valid B, then searches A, and bins A's leaves by
    (F, |S|, free slots after j).  A T slot that no 1 links (see
    :func:`_subset_scan`) stands alone, so the transfer runs over the
    linked T slots only, once per B and per F restricted to them.  Every
    entry at its least gives the shift 2 length + 2 - |S|: 2 on each slot,
    1 on each 1 and the 4 at j.

    As in :func:`_stressed3_scan`, the search over A stops at the cut
    c = length + 1 - k and bins the k top positions c..length in bulk, with
    k = max((length - j - 3) // 4, 0).  Shifted by j, the bar is
    p + p' != L, L = length + 1 - j, S_L's own, and 2k < L, so a top
    position p meets the rest only through B and H, the 1s in j+1..j+k:
    its partner m + j - p lies in j+1..j+k, a direct sum p + s needs
    s < k, a wrapped sum lands before j only for s < j + k, and two top
    positions sum past every rule.  So A's nodes at the cut are binned by
    (H, covered top positions), and within a pair by (F, |S|, free slots
    below the cut).  Each pair then expands from a table over the top
    subsets T whose partners miss H: T adds |T| to |S|, its wrapped sums
    with B and H to F, and the top positions T u (T + S) covers.

    Time over :func:`_subset_scan`'s on the same cell by window size k,
    best of 3 in one process on a 2-core x86-64 host (* the rule's k):

    ============  =====  =====  =====  =====  =====  =====
    cell          k = 0  1      2      3      4      5
    ============  =====  =====  =====  =====  =====  =====
    (14, 4, 3)    0.40   0.36   0.33*  0.34   0.38
    (18, 4, 3)    0.37   0.15   0.12   0.11*  0.11   0.22
    (22, 4, 3)    0.30   0.31   0.26   0.22   0.18*  0.16
    (28, 4, 3)    0.32   0.17   0.11   0.07   0.06   0.05*
    (27, 4, 6)    0.25   0.16   0.18   0.10   0.14*  0.13
    (26, 4, 9)    0.18   0.19   0.16   0.14*  0.17   0.17
    (25, 4, 12)   0.47   0.45   0.60*  0.53   0.40
    ============  =====  =====  =====  =====  =====  =====

    Past j of about 9 the transfers, not the leaves, take most of the time,
    and no k moves it much.
    """
    m = length + 1
    before = (1 << j) - 2  # bits 1 .. j-1
    after = (1 << m) - (1 << (j + 1))  # bits j+1 .. length
    pin, bar = 1 << j, 1 << (m + j)
    least = 2 * length + 2
    k = max((length - j - 3) // 4, 0)
    cut = m - k
    tops = ((1 << k) - 1) << cut  # bits cut .. length
    heads = ((1 << k) - 1) << (j + 1)  # bits j+1 .. j+k, the tops' partners
    below = after & ((1 << cut) - 1)  # bits j+1 .. cut-1
    bins: Bins = {}
    # stack entries: (next position, B mask, B + B mask, X mask, |B|); an
    # entry leaves out every position up to j, pushing each branch that
    # puts one in B instead
    stack = [(1, 0, 0, 0, 0)]
    while stack:
        p, ones, sums, xs, size = stack.pop()
        while p < j:
            bit = 1 << p
            new_ones = ones | bit
            new_sums = sums | new_ones << p
            if not new_sums & pin:
                stack.append((p + 1, new_ones, new_sums,
                              xs | 1 << (j - p), size + 1))
            p += 1
        ts = before & ~ones
        ms = sums & ts
        if ms & xs:
            continue  # a slot must hold 2 and may not
        wrap = ts & ~ms
        # A's nodes at the cut by (H, covered tops, F, shift, free slots
        # below the cut); the same stack, with S and S + S over both sides
        # of j
        nodes: dict[tuple[int, int, int, int, int], int] = {}
        tail = [(j + 1, ones, sums, size)]
        while tail:
            p, s_mask, s_sums, n = tail.pop()
            while p < cut:
                bit = 1 << p
                new_s = s_mask | bit
                new_sums = s_sums | new_s << p
                if not new_sums & bar:
                    tail.append((p + 1, new_s, new_sums, n + 1))
                p += 1
            key = (s_mask & heads, s_sums & tops, s_sums >> m & wrap,
                   least - n, (below & ~(s_mask | s_sums)).bit_count())
            nodes[key] = nodes.get(key, 0) + 1
        # the leaves by (F, shift, free slots after j), each pair of the
        # nodes expanded from its table
        tables: dict[int, dict[tuple[int, int, int], int]] = {}
        pairs: dict[tuple[int, int], dict[tuple[int, int, int], int]] = {}
        leaves: dict[tuple[int, int, int], int] = {}
        for (h, seen, fs, shift, free), n in nodes.items():
            pair = pairs.get((h, seen))
            if pair is None:
                table = tables.get(h)
                if table is None:
                    table = tables[h] = {}
                    near = [s for s in range(1, j + k) if (h | ones) >> s & 1]
                    allowed = tops
                    for s in range(j + 1, j + k + 1):
                        if h >> s & 1:
                            allowed &= ~(1 << (m + j - s))
                    sub = allowed
                    while True:
                        cover = sub
                        wrapped = 0
                        for s in near:
                            wrapped |= sub << s
                            if s < k:
                                cover |= sub << s
                        key = (wrapped >> m & wrap, cover & tops,
                               sub.bit_count())
                        table[key] = table.get(key, 0) + 1
                        if not sub:
                            break
                        sub = (sub - 1) & allowed
                pair = pairs[h, seen] = {}
                for (wrapped, cover, t_size), c in table.items():
                    key = wrapped, t_size, k - (cover | seen).bit_count()
                    pair[key] = pair.get(key, 0) + c
            for (wrapped, t_size, t_free), c in pair.items():
                key = fs | wrapped, shift - t_size, free + t_free
                leaves[key] = leaves.get(key, 0) + n * c
        # a 2 at t and a 1 at b make 3 at t + b, forcing a T slot there
        # to 3: the linked slots
        held, open_ = ts & ~xs, ts & ~ms
        linked = 0
        rest = ones
        while rest:
            low = rest & -rest
            rest ^= low
            hit = held * low & open_
            linked |= hit | hit // low
        alone = ts & ~linked
        x_alone = xs & alone
        lone = alone & ~(ms | xs)  # 1+x+x^2 unless F forces them
        x_shift = x_alone.bit_count()
        masks = linked, ms & linked, xs & linked
        outs: dict[int, dict[tuple[int, int], int]] = {}
        for (fs, shift, free), n in leaves.items():
            f_linked = fs & linked
            out = outs.get(f_linked)
            if out is None:
                out = outs[f_linked] = _top_slots(*masks, f_linked, ones)
            f_alone = fs & alone
            shift += x_shift
            free += (f_alone ^ x_alone).bit_count()
            u = (lone & ~f_alone).bit_count()
            for (s, f), c in out.items():
                key = shift + s, free + f, u
                bins[key] = bins.get(key, 0) + n * c
    return bins


def _top_slots(ts: int, ms: int, xs: int, fs: int,
               ones: int) -> dict[tuple[int, int], int]:
    """The linked slots of a leaf, as ``{(extra shift, free): count}``.

    Bits are slots in the order they are taken: ``ts`` the slots, ``ms``
    those that must hold the top, ``xs`` those whose top would break j,
    ``fs`` those whose big value is forced, and ``ones`` the 1s.  Each slot
    holds the top, adding 0 to the shift, or the big slot, adding 1 and a
    free bit unless forced; a top at t forces the big slot at t + a for
    each 1 at a.  The slots are taken in increasing order, each state the
    set of later slots that earlier tops have forced.  :func:`_subset_scan`
    passes its T and U slots rotated, so that position j + 1 comes first;
    :func:`_ones_scan` passes its T slots as they stand, since a depth-4
    cell has no U slot.
    """
    states = {(0, 0, 0): 1}  # (forced later slots, extra shift, free)
    rest = ts
    while rest:
        bit = rest & -rest
        rest ^= bit
        nxt: dict[tuple[int, int, int], int] = {}
        for (marks, s, f), n in states.items():
            later = marks & rest
            if not xs & bit:
                key = later | bit * ones & rest, s, f
                nxt[key] = nxt.get(key, 0) + n
            if not ms & bit:
                key = later, s + 1, f if (marks | fs) & bit else f + 1
                nxt[key] = nxt.get(key, 0) + n
        states = nxt
    out: dict[tuple[int, int], int] = {}
    for (_, s, f), n in states.items():
        out[s, f] = out.get((s, f), 0) + n
    return out


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


def _med_via_membership(query: CountQuery) -> list[tuple[int, Bins]]:
    """The MED words of a query through the lift, as parts ``(length,
    bins)`` (see :func:`_parts`), one per plan of each lifted cell.

    A MED semigroup S with multiplicity m and Frobenius number f is
    {0} u (m + T), where T has Frobenius number f - m and contains m; the
    extreme case f = m - 1 (the word of ones) is the lift of the full set
    of nonnegative integers.  The gaps of S are 1..m-1 and m plus the
    gaps of T, so its genus is T's plus m - 1, the length.  The cells of
    :func:`_cells` select the pairs (f, m) that the depth, stressed and
    length filters allow, and S contains n > 0 exactly when n >= m and T
    contains n - m.  So each cell adds the closed plans of one
    ``contains`` query on T, shifted by the length in genus: the length is
    added to each bin's shift.
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
            parts += [(ell, {(shift + ell, free, u): n for (shift, free, u), n
                             in _solve(scan).items()})
                      for scan in _plans(lifted)]
        elif j == ell:
            parts.append((ell, {(ell, 0, 0): 1}))
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
