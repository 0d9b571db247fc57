"""Growth constants, explicit count bounds, and the limiting rate curve."""

from fractions import Fraction
from math import lcm

import pytest

from kunzlab.bounds import (
    _DEFAULT_T_GRID,
    _exact_greater,
    _log_dominates,
    check_c_monotone,
    cq,
    depth_count_bound,
    frobenius_bound_dominates,
    generic_bounds,
    growth_rate,
    stressed3_upper_bounds,
    tail_heavy_bound,
)
from kunzlab.enumeration import (
    TailHeavySpec,
    count_stressed3,
    count_words,
    tail_heavy_count,
)
from kunzlab.words import CountQuery


def test_cq_values():
    assert [cq(q).squared for q in (1, 2, 3, 4, 10)] == [2, 4, 6, 9, 36]
    assert cq(2).approx == 2.0
    assert cq(3).approx == pytest.approx(6 ** 0.5)
    with pytest.raises(ValueError):
        cq(0)


def test_scaled_constants_decrease():
    report = check_c_monotone(200, interpolation_q_max=60)
    assert report.ok, report.violation
    assert report.sequence_comparisons == 3 * 198
    assert report.interpolation_comparisons > 0


SHORTCUT_R_GRID = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))


def test_log_shortcut_is_sound_on_the_sequence():
    # wherever the first-order test claims s_q^(q+1+r) > s_{q+1}^(q+r), the
    # exact integers agree
    decided = 0
    for r in SHORTCUT_R_GRID:
        a, b = r.numerator, r.denominator
        for q in range(2, 2001):
            s_lo, s_hi = cq(q).squared, cq(q + 1).squared
            if _log_dominates(s_lo, s_hi, b * q + a, b):
                decided += 1
                assert _exact_greater([(s_lo, b * (q + 1) + a)],
                                      [(s_hi, b * q + a)]), (q, r)
    assert decided == 7991  # all but five instances, every one at q <= 3


def _interpolation_holds(q: int, r: Fraction, t1: Fraction,
                         t2: Fraction) -> bool:
    """F(t1) > F(t2) for F(t) = (c_q^t c_{q-1}^(1-t))^(1/(q+t-r)), exactly:
    (t1 A + (1-t1) B)(q+t2-r) > (t2 A + (1-t2) B)(q+t1-r) with A, B the
    logarithms of the squared constants, raised to integer powers."""
    e1, e2 = q + t1 - r, q + t2 - r
    exps = (t1 * e2, (1 - t1) * e2, t2 * e1, (1 - t2) * e1)
    den = lcm(*(e.denominator for e in exps))
    x1, y1, x2, y2 = (int(e * den) for e in exps)
    s_q, s_p = cq(q).squared, cq(q - 1).squared
    return s_q ** x1 * s_p ** y1 > s_q ** x2 * s_p ** y2


def test_log_shortcut_is_sound_on_the_interpolation():
    # wherever the derivative test passes at (q, r), every pair of the
    # default t-grid decreases
    grid = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
            Fraction(1))
    decided = 0
    for r in SHORTCUT_R_GRID:
        a, b = r.numerator, r.denominator
        for q in range(3, 201):
            if _log_dominates(cq(q - 1).squared, cq(q).squared, b * q - a, b):
                decided += 1
                for t1, t2 in zip(grid, grid[1:]):
                    assert _interpolation_holds(q, r, t1, t2), (q, r, t1)
    assert decided == 4 * 198 - 5  # all but q = 3 at r = 0 and q = 4


def test_interpolation_is_the_sequence_step():
    # F(t1) > F(t2) for distinct t1 < t2 exactly when the sequence step
    # s_p^(b(p+1)+a) > s_{p+1}^(bp+a) holds at p = q-1, a/b = 1-r; every step
    # holds for r in [0, 1], so r = -7/2 and -10 bring failing ones.  q stops
    # at the default interpolation range: the oracle's integers grow with q
    # times the t-denominators (q <= 400 took some 30 s on a 2-core host)
    r_grid = SHORTCUT_R_GRID + (Fraction(2, 7), Fraction(-7, 2),
                                Fraction(-10))
    grids = (_DEFAULT_T_GRID,
             (Fraction(0), Fraction(1, 7), Fraction(1, 3), Fraction(1)))
    agreed = failed = 0
    for r in r_grid:
        a, b = (1 - r).numerator, (1 - r).denominator
        for q in range(3, 201):
            s_p, s_q = cq(q - 1).squared, cq(q).squared
            step = s_p ** (b * q + a) > s_q ** (b * (q - 1) + a)
            failed += not step
            for grid in grids:
                for t1, t2 in zip(grid, grid[1:]):
                    assert _interpolation_holds(q, r, t1, t2) == step, \
                        (q, r, t1, t2)
                    agreed += 1
    assert (agreed, failed) == (7 * 7 * 198, 12)


def _fraction_log_test(s_small: int, s_big: int, k: Fraction) -> bool:
    """The log test with its exponent as one rational, restated here."""
    return ((s_small.bit_length() - 1) * 693 * s_small * k.denominator
            > 1000 * k.numerator * (s_big - s_small))


def test_integer_log_test_matches_the_rational_one():
    # the unreduced numerator and denominator decide exactly as k = q +- r
    # in lowest terms, in the sequence form and the interpolation form
    for r in SHORTCUT_R_GRID:
        a, b = r.numerator, r.denominator
        for q in range(2, 2001):
            s_lo, s_hi = cq(q).squared, cq(q + 1).squared
            assert _log_dominates(s_lo, s_hi, b * q + a, b) \
                == _fraction_log_test(s_lo, s_hi, q + r), (q, r)
        for q in range(3, 2001):
            s_p, s_q = cq(q - 1).squared, cq(q).squared
            assert _log_dominates(s_p, s_q, b * q - a, b) \
                == _fraction_log_test(s_p, s_q, q - r), (q, r)


def test_repeated_t_is_still_a_violation():
    # F(t) > F(t) fails, and no shortcut may skip it
    report = check_c_monotone(10, t_grid=(0, Fraction(1, 2), Fraction(1, 2)))
    assert report.violation == "interpolation failed at q=3, r=0, t=1/2..1/2"
    assert report.interpolation_comparisons == 2  # through the failing pair


def test_empty_t_grid_settles_nothing():
    report = check_c_monotone(10, t_grid=())
    assert report.ok
    assert report.interpolation_comparisons == 0


def test_t_denominators_reach_no_exponent():
    # the t-grid is read only for its adjacent pairs, so a denominator of
    # 10^9 + 7 costs what 4 does
    for q_max in (10, 200):
        huge = check_c_monotone(
            q_max, t_grid=(0, Fraction(1, 10 ** 9 + 7), Fraction(1, 2), 1))
        small = check_c_monotone(
            q_max, t_grid=(0, Fraction(1, 4), Fraction(1, 2), 1))
        assert huge.ok and small.ok
        assert (huge.sequence_comparisons, huge.interpolation_comparisons,
                huge.violation) == (small.sequence_comparisons,
                                    small.interpolation_comparisons,
                                    small.violation)


def test_interpolation_reaches_the_exact_route_as_its_step(monkeypatch):
    # each interpolation instance (q, r) the log test leaves open compares
    # s_{q-1}^(b(q+1)-a) with s_q^(bq-a), the step at (q-1, 1-r); every
    # step holds for r in [0, 1], so only these arguments show which step
    # was decided.  The sequence loop's calls come first: a run with an
    # empty t-grid makes exactly those
    calls = []
    exact = _exact_greater
    monkeypatch.setattr("kunzlab.bounds._exact_greater",
                        lambda left, right: calls.append((left, right))
                        or exact(left, right))
    for r_grid in ((Fraction(1, 3), Fraction(2, 7)),
                   (0, Fraction(1, 2), Fraction(5, 6), 1)):
        calls.clear()
        check_c_monotone(60, r_grid=r_grid, t_grid=(), interpolation_q_max=60)
        sequence = len(calls)
        calls.clear()
        report = check_c_monotone(60, r_grid=r_grid,
                                  t_grid=(0, Fraction(1, 7), 1),
                                  interpolation_q_max=60)
        assert report.ok
        want = []
        for r in map(Fraction, r_grid):
            a, b = r.numerator, r.denominator
            for q in range(3, 61):
                s_p, s_q = cq(q - 1).squared, cq(q).squared
                if not _log_dominates(s_p, s_q, b * q - a, b):
                    want.append(([(s_p, b * (q + 1) - a)], [(s_q, b * q - a)]))
        assert want
        assert calls[sequence:] == want


def test_large_exponent_grid_is_decided_exactly():
    # the denominators 3 and 7 make the 20 instances the log test leaves
    # open products of up to some 50,000 bits, all decided in exact integers
    report = check_c_monotone(
        3000, r_grid=(0, Fraction(1, 3), Fraction(2, 7), 1),
        t_grid=(0, Fraction(1, 7), Fraction(1, 3), 1),
        interpolation_q_max=400)
    assert report.ok
    assert report.violation is None
    assert report.sequence_comparisons == 11_992
    assert report.interpolation_comparisons == 4_776


def test_monotonicity_guards():
    with pytest.raises(ValueError):
        check_c_monotone(2)
    with pytest.raises(ValueError):
        check_c_monotone(10, r_grid=(Fraction(3, 2),))
    with pytest.raises(ValueError):
        check_c_monotone(10, t_grid=(Fraction(-1, 4),))


def test_stressed3_bounds_endpoints():
    assert stressed3_upper_bounds(1) == (1, 1)
    naive, refined = stressed3_upper_bounds(9)
    assert naive == 4096
    assert refined == Fraction(234256, 81)
    with pytest.raises(ValueError):
        stressed3_upper_bounds(0)


@pytest.mark.parametrize("ell", range(1, 15))
def test_stressed3_bounds_dominate(ell):
    naive, refined = stressed3_upper_bounds(ell)
    count = count_stressed3(ell)
    assert count <= refined <= naive


@pytest.mark.parametrize("shape", [(5, 3, 3), (6, 4, 2), (7, 5, 3), (9, 2, 2)])
def test_tail_heavy_bound_dominates(shape):
    spec = TailHeavySpec(*shape)
    assert tail_heavy_count(spec) <= tail_heavy_bound(*shape)


def test_tail_heavy_bound_values():
    # depth 2: the squared constant is 4, so both parities come out exact
    assert tail_heavy_bound(1, 1, 2) == 8192      # 1 * 2 * 4^6
    assert tail_heavy_bound(2, 1, 2) == 16384     # 2 * 2 * 4^6 via sqrt(4) = 2
    # the spec rules of TailHeavySpec: 1 <= tail_width <= length, depth >= 2
    for bad in ((0, 1, 2), (2, 5, 3), (3, 0, 3), (4, 2, 1), (4, 2, 0)):
        with pytest.raises(ValueError):
            TailHeavySpec(*bad)
        with pytest.raises(ValueError):
            tail_heavy_bound(*bad)
    assert tail_heavy_bound(2, 2, 2) == 65536     # tail_width = length


def test_depth_count_bound():
    assert depth_count_bound(5, 3) == 243
    assert depth_count_bound(0, 4) == 1
    # exact at length 1, an overcount afterwards
    assert count_words(CountQuery(length=1, depth_max=6)) == depth_count_bound(1, 6)
    for ell in range(1, 8):
        assert count_words(CountQuery(length=ell, depth_max=3)) <= depth_count_bound(ell, 3)
    with pytest.raises(ValueError):
        depth_count_bound(-1, 2)


def test_frobenius_bound_dominates():
    assert frobenius_bound_dominates(10, 5, 3)          # 100 <= 25 * 243
    assert not frobenius_bound_dominates(10 ** 6, 5, 3)
    # the real counts stay under the bound at their own depth
    for f in range(3, 21):
        for q in (2, 3, 4):
            count = count_words(CountQuery(frobenius=f, depth_exact=q))
            assert frobenius_bound_dominates(count, f, q)
    with pytest.raises(ValueError):
        frobenius_bound_dominates(1, 1, 1)


def test_generic_bounds_values():
    gb = generic_bounds(5, 3)
    assert gb.depth_power == Fraction(3) ** 5
    # certified lower end of 5 * 3^(5/2): squares stay below 25 * 3^5
    assert gb.frobenius_power ** 2 <= 6075
    assert float(gb.frobenius_power) == pytest.approx(5 * 3 ** 2.5, rel=1e-8)
    exact = generic_bounds(6, 3)
    assert exact.frobenius_power == 6 * Fraction(3) ** 3
    with pytest.raises(ValueError):
        generic_bounds(5, 1)


def test_growth_rate_segments():
    assert growth_rate(0.0) == 0.0
    assert growth_rate(1.0) == 0.0
    assert growth_rate(1.5) == pytest.approx(2 ** 0.5)
    assert growth_rate(2.0) == pytest.approx(2.0)
    assert growth_rate(3.0) == pytest.approx(6 ** 0.5)
    assert growth_rate(3.5) == pytest.approx(3 ** 0.5 * 6 ** 0.25)
    with pytest.raises(ValueError):
        growth_rate(-0.1)


@pytest.mark.parametrize("q", range(2, 9))
def test_growth_rate_continuous_at_junctions(q):
    eps = 1e-9
    left = growth_rate(q - eps)
    right = growth_rate(q + eps)
    assert left == pytest.approx(right, abs=1e-6)


def test_growth_rate_nondecreasing():
    xs = [1 + k / 16 for k in range(0, 16 * 7 + 1)]
    ys = [growth_rate(x) for x in xs]
    assert all(a <= b + 1e-12 for a, b in zip(ys, ys[1:]))
