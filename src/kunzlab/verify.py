"""Self-verification suite shared by the command line and the test suite.

Ten acceptance checks cover the golden tables, the constant brackets, the
closed forms, the MED identities, the homomorphism machinery, bound
dominance, the explicit word family, the finite-size trend checks, and
thread determinism.  Each check returns a :class:`CheckResult`; the command
line's ``verify`` subcommand and ``tests/test_acceptance.py`` both run these
same functions, so there is a single source of truth for "does the build
hold up".

The brute-force oracles used here (product-loop homomorphism counting, and
the hom suite's orbit census, which sorts every labeled regular graph on up
to 8 vertices into classes by the relabelings of the classes found so far,
each class's relabelings being the closure of its first graph under (1 2)
and the n-cycle) are deliberately independent of the fast paths they
validate.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from array import array
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import bounds as bounds_mod
from . import enumeration as eng
from . import graphs as gr
from . import refdata
from . import stats as stats_mod
from .words import CountQuery, invariants, is_kunz

__all__ = ["CheckResult", "ACCEPTANCE", "SUITES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def _run(name: str, fn) -> CheckResult:
    start = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:  # surface the failure, never hide it
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}",
                           time.perf_counter() - start)
    return CheckResult(name, bool(ok), detail, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# 1-2: golden tables
# ---------------------------------------------------------------------------


def check_stressed_table() -> CheckResult:
    """Stressed depth-3 counts match the shipped reference for lengths 1..24."""

    def body():
        rows = refdata.load_table1()
        start = time.perf_counter()
        bad = [ell for ell in range(1, 25)
               if eng.count_stressed3(ell) != rows[ell]]
        elapsed = time.perf_counter() - start
        if bad:
            return False, f"mismatched lengths: {bad}"
        if elapsed >= 60.0:
            return False, f"24 rows matched but took {elapsed:.1f}s (budget 60s)"
        return True, "lengths 1..24 match the reference column exactly"

    return _run("stressed-table", body)


def check_fm_table() -> CheckResult:
    """Fixed-multiplicity counts match the shipped 240-cell reference grid.

    The four f = m-1 cells hold the ordinary semigroup {0, m, m+1, ...},
    which the reference grid leaves at zero; those cells must come out
    exactly one above the printed value and every other cell exactly equal.
    """

    def body():
        grid = refdata.load_table2()
        start = time.perf_counter()
        bad = []
        boundary = 0
        for (f, m), printed in sorted(grid.items()):
            got = eng.count_words(CountQuery(frobenius=f, length=m - 1))
            want = printed + 1 if f == m - 1 else printed
            if f == m - 1:
                boundary += 1
            if got != want:
                bad.append((f, m, want, got))
        elapsed = time.perf_counter() - start
        if bad:
            return False, f"mismatched cells (f, m, want, got): {bad[:6]}"
        if elapsed >= 300.0:
            return False, f"grid matched but took {elapsed:.1f}s (budget 300s)"
        return True, (f"{len(grid)} cells consistent ({boundary} boundary "
                      "cells carry exactly the one ordinary-semigroup word "
                      "the reference omits)")

    return _run("fm-table", body)


# ---------------------------------------------------------------------------
# 3: constant brackets
# ---------------------------------------------------------------------------


def check_constant_brackets() -> CheckResult:
    """The two density-constant brackets reproduce the published digits."""

    def body():
        want = {"even": ("1.2606", "1.3919"), "odd": ("1.2755", "1.4068")}
        got = {p: stats_mod.backelin_bracket(p).decimal(4) for p in want}
        if got != want:
            return False, f"digits differ: {got}"
        return True, ("4-decimal directed roundings are "
                      "(1.2606, 1.3919) and (1.2755, 1.4068)")

    return _run("constant-brackets", body)


# ---------------------------------------------------------------------------
# 4: closed forms for depth 2 to 6
# ---------------------------------------------------------------------------


def check_small_depth_closed_forms() -> CheckResult:
    """closed_k2/closed_k3 and the engine's closed genus polynomials of depth
    2 to 6 (the depth-4 ones with an early pin from the search over their
    1s, the other depth-4 to depth-6 ones from the subset scan) agree with
    the walker on every cell with f <= 30."""

    def body():
        cells = 0
        for f in range(1, 31):
            for ell in range(1, f + 1):
                for q, closed in ((2, eng.closed_k2), (3, eng.closed_k3),
                                  (4, None), (5, None), (6, None)):
                    query = CountQuery(frobenius=f, length=ell, depth_exact=q)
                    walked = eng._walked_histogram(query)
                    if closed and closed(f, ell) != sum(walked.values()):
                        return False, (f"depth-{q} closed form differs at "
                                       f"{(f, ell)}")
                    if eng.genus_histogram(query) != walked:
                        return False, (f"depth-{q} genus polynomial differs "
                                       f"at {(f, ell)}")
                cells += 1
        return True, ("both closed forms and the engine's depth 2-6 genus "
                      f"polynomials match the walker on {cells} cells")

    return _run("closed-forms", body)


# ---------------------------------------------------------------------------
# 5: MED identities
# ---------------------------------------------------------------------------


def check_med_identities() -> CheckResult:
    """Direct MED counts agree with both classification sums, plus parity."""

    def body():
        fr = {k: eng.count_words(CountQuery(frobenius=k))
              for k in range(1, 13)}
        med, med2 = {}, {}
        for f in range(1, 26):
            # raises if the multiplicity route disagrees
            med[f] = eng.med_count(f)
            med2[f] = eng.med_count(f, depth=2)
            want = sum(fr[k] for k in range(1, (f - 1) // 2 + 1))
            if med2[f] != want:
                return False, f"depth-2 sum identity differs at f={f}"
        for n in range(1, 13):
            if med2[2 * n - 1] != med2[2 * n]:
                return False, f"parity pair differs at n={n}"
        for f in range(1, 21):
            q_top = (f + 2) // 2 + 1
            parts = med2[f] + sum(eng.med_count(f, depth=q)
                                  for q in range(1, q_top + 1) if q != 2)
            if parts != med[f]:
                return False, f"depth partition differs at f={f}"
        return True, ("multiplicity route, depth-2 sum, parity pairs, and "
                      "depth partition all agree (f <= 25)")

    return _run("med-identities", body)


# ---------------------------------------------------------------------------
# 6: homomorphism suite
# ---------------------------------------------------------------------------


def _hom_oracle(pattern: gr.LabeledGraph, target: gr.LabeledGraph) -> int:
    """Count homomorphisms by brute force over every vertex assignment.

    Each assignment is tested edge by edge against the set of value pairs
    that ``target.has_edge`` allows, built once.
    """
    values = range(1, target.vertex_count + 1)
    allowed = {(x, y) for x in values for y in values
               if target.has_edge(x, y)}
    edges = [(u - 1, v - 1) for u, v in pattern.edges()]
    total = 0
    for image in itertools.product(values, repeat=pattern.vertex_count):
        if all((image[u], image[v]) in allowed for u, v in edges):
            total += 1
    return total


def _labeled_regular(n: int, d: int):
    """Yield the edge-bit mask of every loop-free d-regular graph on 1..n.

    Bit i stands for the i-th pair of ``combinations(range(1, n + 1), 2)``,
    so a mask fits the unsigned 64-bit entries of an ``array("Q")`` up to
    n = 11.  The lowest vertex still below degree d takes its missing
    neighbours from the higher vertices still below d, so each graph comes
    once, and the edge tuples, read off in lexicographic order, increase
    from graph to graph.  The completions of a degree vector are listed
    once, in one table shared by every prefix that reaches that vector: an
    entry is the picked bits ORed with a completion of the child vector.
    """
    if d >= n or (n * d) % 2:
        return
    bit = {pair: 1 << i for i, pair in
           enumerate(itertools.combinations(range(n), 2))}
    table = {(d,) * n: array("Q", [0])}

    def completions(deg: tuple[int, ...]) -> array:
        done = table.get(deg)
        if done is None:
            done = table[deg] = array("Q")
            low = next(u for u in range(n) if deg[u] < d)
            free = [v for v in range(low + 1, n) if deg[v] < d]
            for picked in itertools.combinations(free, d - deg[low]):
                after = list(deg)
                after[low] = d
                mask = 0
                for v in picked:
                    after[v] += 1
                    mask |= bit[low, v]
                done.extend([mask | rest
                             for rest in completions(tuple(after))])
        return done

    yield from completions((0,) * n)


def _edges(mask: int, pairs: list[tuple[int, int]]) -> tuple:
    """The edges of a graph given its edge-bit mask, in ``pairs`` order."""
    return tuple(pair for i, pair in enumerate(pairs) if mask >> i & 1)


def _generator_tables(
        n: int, bit: list[list[int]]) -> list[list[tuple[int, list[int]]]]:
    """Chunk tables of (1 2) and the n-cycle (1 2 ... n), which generate S_n.

    Entry ``[0]`` is (1 2), entry ``[1]`` the n-cycle, which takes each
    vertex v to v + 1 and n to 1.  Each lists, for each run of 7 edge bits
    starting at ``shift``, the pair ``(shift, table)`` where ``table[x]`` is
    the image under that permutation of the edge bits ``x << shift``.
    """
    tables = []
    for label in ([0, 2, 1, *range(3, n + 1)], [0, *range(2, n + 1), 1]):
        image = {bit[u][v]: bit[label[u]][label[v]]
                 for u in range(1, n + 1) for v in range(u + 1, n + 1)}
        chunks = []
        for shift in range(0, len(image), 7):
            table = [0]
            for b in range(shift, min(shift + 7, len(image))):
                table += [x | image[1 << b] for x in table]
            chunks.append((shift, table))
        tables.append(chunks)
    return tables


def _orbit(mask: int, gens: list[list[tuple[int, list[int]]]]) -> set[int]:
    """The edge-bit masks of every relabeling of a graph, given its mask.

    The closure of the mask under the permutations of
    :func:`_generator_tables`, which generate the symmetric group, so each
    relabeling is added once.
    """
    orbit = {mask}
    todo = [mask]
    for m in todo:
        for chunks in gens:
            image = 0
            for shift, table in chunks:
                image |= table[m >> shift & 127]
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


# classes of the loop-free d-regular graphs on n vertices, counted without
# a graph: one perfect matching for each even n, one union of cycles for
# each partition of n into parts >= 3, and the cubic graphs (OEIS A002851)
_SHAPES = {1: {2: 1, 4: 1, 6: 1, 8: 1},
           2: {3: 1, 4: 1, 5: 1, 6: 2, 7: 2, 8: 3},
           3: {4: 1, 6: 2, 8: 6}}


def _over_vertex_bound(n0: int, d: int, deficit: int, vertices: int) -> bool:
    """Whether ``regularize`` used more vertices than its bound allows.

    The bound is n0 + 1 + max(3 + deficit/d, 2*ceil(d/2)) for a graph on n0
    vertices of degree at most d >= 1; multiplied through by d, the test
    stays in integers.
    """
    return d * (vertices - n0 - 1) > max(3 * d + deficit,
                                         2 * d * ((d + 1) // 2))


def _random_bounded_graph(rng: random.Random) -> tuple[gr.LabeledGraph, int]:
    n = rng.randint(1, 8)
    d = rng.randint(1, 4 if n <= 6 else 3)
    edges = []
    deg = [0] * (n + 1)
    pool = list(itertools.combinations(range(1, n + 1), 2))
    rng.shuffle(pool)
    for u, v in pool:
        if deg[u] < d and deg[v] < d and rng.random() < 0.6:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return gr.LabeledGraph(n, edges), d


def check_hom_suite() -> CheckResult:
    """Closed form vs. oracle, dominance, regularization, and the power test."""

    def body():
        targets = {q: gr.threshold_target(q) for q in range(1, 6)}
        # closed form == brute force == search, on complete bipartite pairs
        for d in range(1, 4):
            pattern = gr.complete_bipartite(d, d)
            for q in range(1, 6):
                target = targets[q]
                want = _hom_oracle(pattern, target)
                if gr.hom_kdd(d, q) != want:
                    return False, f"hom_kdd differs from oracle at {(d, q)}"
                if gr.hom_count(pattern, target) != want:
                    return False, f"hom_count differs from oracle at {(d, q)}"

        # squared dominance by the threshold-degree bound
        for d in range(1, 9):
            for q in range(2, 11):
                lhs = gr.hom_kdd(d, q) ** 2
                rhs = 4 * q * q * bounds_mod.cq(q).squared ** (2 * d)
                if lhs > rhs:
                    return False, f"degree bound fails at {(d, q)}"

        # regularization postconditions on a seeded random sample; a trial
        # drawn again is a deterministic copy, so each distinct one runs once
        rng = random.Random(91172)
        seen = set()
        for _ in range(500):
            graph, d = _random_bounded_graph(rng)
            if (graph, d) in seen:
                continue
            seen.add((graph, d))
            padded = gr.regularize(graph, d)
            if not padded.is_regular(d):
                return False, f"output not {d}-regular for {graph!r}"
            n0 = graph.vertex_count
            deficit = d * (n0 + n0 % 2) - 2 * len(graph.edges())
            if _over_vertex_bound(n0, d, deficit, padded.vertex_count):
                return False, f"vertex bound fails for {graph!r} with d={d}"
            qs = (2, 3, 4) if padded.vertex_count <= 9 else (2, 3)
            for q in qs:
                target = targets[q]
                before = gr.hom_count(graph, target)
                after = gr.hom_count(padded, target, max_vertices=13)
                if before > after:
                    return False, (f"hom count dropped for {graph!r}, "
                                   f"d={d}, q={q}")

        # the power inequality on every loop-free regular graph up to 8, one
        # graph per class.  `left` holds the relabelings of the classes found
        # so far that are still to come; a graph (its edge-bit mask) not in it
        # starts a class, unless an earlier class's first graph is among its
        # relabelings, which makes it a repeat.  A class's relabelings are the
        # closure of its first graph under (1 2) and the n-cycle, each applied
        # to the edge bits 7 at a time through the tables of `gens`.  Each
        # (n, d) must give the class count of `_SHAPES`: a missing generator
        # splits the classes into more
        labeled = 0
        classes = 0
        for n in range(2, 9):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            bit = [[0] * (n + 1) for _ in range(n + 1)]
            for i, (u, v) in enumerate(pairs):
                bit[u][v] = bit[v][u] = 1 << i
            gens = _generator_tables(n, bit)
            for d in range(1, 4):
                left: set[int] = set()
                reps: list[int] = []
                for mask in _labeled_regular(n, d):
                    labeled += 1
                    if mask in left:
                        left.remove(mask)
                        continue
                    left |= _orbit(mask, gens)
                    edges = _edges(mask, pairs)
                    if any(rep in left for rep in reps):
                        return False, (f"the {d}-regular graph {edges} on "
                                       f"{n} vertices was generated twice")
                    left.remove(mask)
                    reps.append(mask)
                    classes += 1
                    graph = gr.LabeledGraph(n, edges)
                    for q in range(2, 6):
                        h = gr.hom_count(graph, targets[q])
                        if h ** (2 * d) > gr.hom_kdd(d, q) ** n:
                            return False, (f"power inequality fails on a "
                                           f"{d}-regular graph with n={n}, "
                                           f"q={q}")
                if left:
                    first = _edges(min(left), pairs)
                    return False, (f"relabelings never generated for the "
                                   f"{d}-regular graphs on {n} vertices: "
                                   f"{len(left)}, among them {first}")
                if len(reps) != _SHAPES[d].get(n, 0):
                    return False, (f"the {d}-regular graphs on {n} "
                                   f"vertices fall into {len(reps)} "
                                   f"classes, not {_SHAPES[d].get(n, 0)}")
        return True, (f"oracle, dominance, {len(seen)} distinct "
                      f"regularizations of 500 trials, and the power "
                      f"inequality over {classes} shapes covering "
                      f"{labeled} labeled regular graphs all hold")

    return _run("hom-suite", body)


# ---------------------------------------------------------------------------
# 7: bound dominance
# ---------------------------------------------------------------------------


def check_bound_dominance() -> CheckResult:
    """Every explicit upper bound dominates its exact count, exactly."""

    def body():
        for q in range(2, 5):
            for ell in range(1, 11):
                count = eng.count_words(CountQuery(length=ell, depth_max=q))
                if count > bounds_mod.depth_count_bound(ell, q):
                    return False, f"depth power bound fails at {(ell, q)}"

        for f in range(1, 26):
            for q in range(2, (f + 3) // 2 + 1):
                count = eng.count_words(
                    CountQuery(frobenius=f, depth_exact=q))
                if not bounds_mod.frobenius_bound_dominates(count, f, q):
                    return False, f"fixed-f bound fails at {(f, q)}"

        rows = refdata.load_table1()
        for ell, value in rows.items():
            naive, refined = bounds_mod.stressed3_upper_bounds(ell)
            if value > naive or value > refined:
                return False, f"stressed upper bound fails at length {ell}"

        cells = 0
        for ell in range(1, 15):
            for t in range(1, ell + 1):
                for q in range(2, 5):
                    spec = eng.TailHeavySpec(length=ell, tail_width=t,
                                             depth=q)
                    count = eng.tail_heavy_count(spec)
                    if count > bounds_mod.tail_heavy_bound(ell, t, q):
                        return False, (f"tail-heavy bound fails at "
                                       f"{(ell, t, q)}")
                    cells += 1
        return True, (f"depth power, fixed-f, stressed ({len(rows)} rows), "
                      f"and tail-heavy ({cells} cells) dominances all exact")

    return _run("bound-dominance", body)


# ---------------------------------------------------------------------------
# 8: the explicit lower-bound family
# ---------------------------------------------------------------------------


def _family_box(q: int, ell: int, j: int) -> tuple[list[int], list[int]]:
    """Per-position closed ranges of the family, from its contract."""
    lows, highs = [], []
    for i in range(1, ell + 1):
        if i == j:
            lo, hi = q, q
        elif i < j and 2 * i <= j:
            lo, hi = (q + 1) // 2, q
        elif i < j:
            lo, hi = q // 2, q
        elif 2 * i <= ell + j + 1:
            lo, hi = q // 2, q - 1
        else:
            lo, hi = (q - 1) // 2, q - 1
        lows.append(lo)
        highs.append(hi)
    return lows, highs


def _box_words_valid(lows, highs, q, ell, j) -> bool:
    """Exact box-wide validity: every word in the product is a depth-q
    word whose last maximal entry sits at j.  For interval products this
    pairwise minimum/maximum test is equivalent to checking every word."""
    if any(lo < 1 for lo in lows) or any(hi > q for hi in highs):
        return False
    if lows[j - 1] != q or highs[j - 1] != q:
        return False
    if any(highs[i] > q - 1 for i in range(j, ell)):
        return False
    for i in range(1, ell + 1):
        for k in range(i, ell + 1):
            if i + k <= ell and lows[i - 1] + lows[k - 1] < highs[i + k - 1]:
                return False
            if i + k >= ell + 2:
                wrap = i + k - ell - 1
                if lows[i - 1] + lows[k - 1] + 1 < highs[wrap - 1]:
                    return False
    return True


def check_family_stream() -> CheckResult:
    """Every family word is valid with the predicted invariants; sizes match."""

    def body():
        words_checked = 0
        for q in range(3, 7):
            for ell in range(1, 13):
                for j in range(1, ell + 1):
                    stream, size = eng.lower_bound_family(q, ell, j)
                    lows, highs = _family_box(q, ell, j)
                    expected = math.prod(hi - lo + 1
                                         for lo, hi in zip(lows, highs))
                    if size != expected:
                        return False, f"size differs at {(q, ell, j)}"
                    f_pred = (ell + 1) * (q - 1) + j
                    if not _box_words_valid(lows, highs, q, ell, j):
                        return False, f"box validity fails at {(q, ell, j)}"
                    if q <= 4:
                        count = 0
                        first = last = None
                        for word in stream:
                            if first is None:
                                first = word
                            last = word
                            count += 1
                            info = invariants(word)
                            if (not is_kunz(word)
                                    or info.frobenius != f_pred
                                    or info.depth != q):
                                return False, (f"invalid word {word} at "
                                               f"{(q, ell, j)}")
                        words_checked += count
                    else:
                        first = next(stream)
                        count, last = 1, first
                        tail = deque(enumerate(stream, 2), maxlen=1)
                        if tail:
                            count, last = tail[0]
                    if count != size:
                        return False, f"stream length differs at {(q, ell, j)}"
                    if list(first) != lows or list(last) != highs:
                        return False, f"stream corners differ at {(q, ell, j)}"
        return True, (f"all streams sized by the product formula; "
                      f"{words_checked} words validated one by one and the "
                      f"rest covered by the exact interval argument")

    return _run("family-stream", body)


# ---------------------------------------------------------------------------
# 9: finite-size stand-ins for the asymptotic statements
# ---------------------------------------------------------------------------


def check_trend_suite() -> CheckResult:
    """Root convergence, depth mass, skewness trend, and mean enclosures.

    The four sub-parts are evaluated independently so a single failure still
    reports the status of the others.
    """

    def body():
        problems = []

        # (a) growth root of the stressed counts
        sts = {ell: eng.count_stressed3(ell) for ell in range(20, 29)}
        root6 = math.sqrt(6.0)
        for ell, value in sts.items():
            if abs(value ** (1.0 / ell) - root6) > 0.15:
                problems.append(f"(a) root deviates too far at length {ell}")
        for ell in range(20, 27):
            # st(ell+2)^ell > st(ell)^(ell+2)  <=>  the root increases
            if sts[ell + 2] ** ell <= sts[ell] ** (ell + 2):
                problems.append(f"(a) root not increasing at length {ell}")

        # (b) mass of depth >= 4 stays under 0.15 everywhere and shrinks as a
        # trend: within each parity class the exact mean over the last five
        # window values is below the mean over the first five.  (The masses
        # are not pointwise monotone -- e.g. they rise from f=20 to f=22 --
        # so the trend statistic is the faithful finite-size reading.)
        dists = {f: stats_mod.mult_distribution(f) for f in range(20, 41)}
        mass = {}
        for f, dist in dists.items():
            low = 1 + sum(eng.closed_k2(f, ell) + eng.closed_k3(f, ell)
                          for ell in range(1, f + 1))
            mass[f] = Fraction(dist.total - low, dist.total)
            if mass[f] >= Fraction(15, 100):
                problems.append(f"(b) deep mass too large at f={f}")
        for start in (20, 21):
            values = [mass[f] for f in range(start, 41, 2)]
            head = sum(values[:5]) / 5
            tail = sum(values[-5:]) / 5
            if tail >= head:
                problems.append(
                    f"(b) deep mass trend not shrinking for f = {start} "
                    f"mod 2: {float(head):.4f} -> {float(tail):.4f}")

        # (c) genus skewness magnitude decreasing across 20 -> 30 -> 40.
        # KNOWN FAILURE: the exact third standardized moments are +0.0280,
        # -0.0274, -0.0579, so the magnitude grows from 30 to 40 under any
        # standardization (by sigma^3, by f^(3/2), or unscaled); at these
        # sizes the mixture of the depth-2 and depth-3 populations is still
        # becoming more lopsided, and the symmetrization the limit promises
        # has not set in.  The assertion is kept as stated rather than
        # replaced by a statistic that happens to pass.
        stats_by_f = {f: stats_mod.genus_stats(f) for f in (20, 30, 40)}
        for f1, f2 in ((20, 30), (30, 40)):
            m2a, m3a, _ = stats_by_f[f1].central_moments
            m2b, m3b, _ = stats_by_f[f2].central_moments
            # |skew(f1)| > |skew(f2)|, cross-multiplied to stay exact
            if m3a ** 2 * m2b ** 3 <= m3b ** 2 * m2a ** 3:
                skew_a = float(m3a) / float(m2a) ** 1.5
                skew_b = float(m3b) / float(m2b) ** 1.5
                problems.append(
                    f"(c) skewness magnitude not decreasing {f1}->{f2}: "
                    f"{skew_a:+.4f} -> {skew_b:+.4f} (exact distributions; "
                    f"the finite-size signal contradicts the asserted decay)")

        # (d) the f = 40 empirical means sit inside the series enclosures
        even = stats_mod.backelin_bracket("even")
        mu0 = stats_mod.mu_gamma_partial("mu0", 8, even)
        emp_mu = -dists[40].mean() / 2
        if not (mu0.lower - Fraction(1, 20) <= emp_mu
                <= mu0.upper + Fraction(1, 20)):
            problems.append(f"(d) multiplicity mean {float(emp_mu):.4f} "
                            "escapes its enclosure")
        gamma0 = stats_mod.mu_gamma_partial("gamma0", 8, even)
        emp_g = stats_by_f[40].mean_deviation
        if not (gamma0.lower - Fraction(1, 5) <= emp_g
                <= gamma0.upper + Fraction(1, 5)):
            problems.append(f"(d) genus mean {float(emp_g):.4f} "
                            "escapes its enclosure")

        if problems:
            return False, "; ".join(problems)
        return True, ("root band and parity growth, deep-word mass < 0.15 "
                      "with declining parity means, skewness magnitude "
                      "decreasing, and both f=40 means enclosed")

    return _run("trend-suite", body)


# ---------------------------------------------------------------------------
# 10: thread determinism of the command line
# ---------------------------------------------------------------------------


def check_thread_determinism() -> CheckResult:
    """count output is byte-identical across --threads values."""

    def body():
        from contextlib import redirect_stderr, redirect_stdout
        from io import StringIO

        from . import cli

        queries = [
            ["count", "--f", "29", "--m", "10"],
            ["count", "--f", "30"],
            ["count", "--f", "25", "--med"],
            ["count", "--f", "17", "--ell", "7"],
            ["count", "--f", "22", "--contains", "6", "--format", "csv"],
        ]
        for base in queries:
            outputs = set()
            for threads in ("1", "4", "16"):
                out, err = StringIO(), StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(base + ["--threads", threads])
                if code != 0:
                    return False, f"exit {code} for {base} at {threads} threads"
                outputs.add(out.getvalue())
            if len(outputs) != 1:
                return False, f"output varies with threads for {base}"
        return True, (f"{len(queries)} queries byte-identical across "
                      "--threads 1/4/16")

    return _run("thread-determinism", body)


ACCEPTANCE = (
    check_stressed_table,
    check_fm_table,
    check_constant_brackets,
    check_small_depth_closed_forms,
    check_med_identities,
    check_hom_suite,
    check_bound_dominance,
    check_family_stream,
    check_trend_suite,
    check_thread_determinism,
)

SUITES = {
    "tables": (check_stressed_table, check_fm_table),
    "all": ACCEPTANCE,
}


def run_suite(which: str, out=None, err=None) -> bool:
    """Run a named suite; print one line per check.  True iff all passed."""
    import sys
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    checks = SUITES[which]
    all_ok = True
    total = 0.0
    for factory in checks:
        result = factory()
        verdict = "PASS" if result.passed else "FAIL"
        print(f"[{verdict}] {result.name}: {result.detail}", file=out)
        print(f"  {result.name}: {result.elapsed:.3f}s", file=err)
        total += result.elapsed
        all_ok = all_ok and result.passed
    print(f"  suite '{which}' total: {total:.3f}s", file=err)
    return all_ok
