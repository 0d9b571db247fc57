"""The constant family c_q and the explicit bounds as evaluable functions.

The growth constants are c_q = sqrt(floor((q+2)^2/4)); everything here keeps
their squares as exact integers, so every inequality involving them reduces to
integer arithmetic.  A monotonicity comparison is first tried by a certified
first-order log test, which is itself integer arithmetic, and any instance it
leaves open is decided by comparing the two products as exact integers, so no
floating-point comparison ever decides anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, sqrt
from typing import NamedTuple

from .enumeration import TailHeavySpec

__all__ = [
    "CqValue",
    "GenericBounds",
    "MonotonicityReport",
    "StressedBounds",
    "check_c_monotone",
    "cq",
    "depth_count_bound",
    "frobenius_bound_dominates",
    "generic_bounds",
    "growth_rate",
    "stressed3_upper_bounds",
    "tail_heavy_bound",
]


@dataclass(frozen=True)
class CqValue:
    """A growth constant, kept as its exact square plus a float for display."""

    q: int
    squared: int

    @property
    def approx(self) -> float:
        return sqrt(self.squared)


def _squared(q: int) -> int:
    """floor((q+2)^2/4), the exact square of c_q, unchecked."""
    return (q + 2) ** 2 // 4


def cq(q: int) -> CqValue:
    """The growth constant for depth q: sqrt(floor((q+2)^2/4))."""
    if q < 1:
        raise ValueError("q must be at least 1")
    return CqValue(q, _squared(q))


# ---------------------------------------------------------------------------
# rigorous comparison of products of integer powers
# ---------------------------------------------------------------------------


def _exact_greater(left, right) -> bool:
    """Whether prod(b^e for left) > prod(b^e for right), in exact integers."""
    lv = 1
    for base, exp in left:
        lv *= base ** exp
    rv = 1
    for base, exp in right:
        rv *= base ** exp
    return lv > rv


def _log_dominates(s_small: int, s_big: int, num: int, den: int) -> bool:
    """A sufficient test for ln(s_small) > k * ln(s_big / s_small), k = num/den.

    The exponent comes as two positive integers, not necessarily in lowest
    terms, so a caller stepping through q builds no rational per step.
    True only if (bitlen(s_small) - 1) * 693/1000 > k * (s_big - s_small) /
    s_small, in integers.  The left side is below ln(s_small), since
    s_small >= 2^(bitlen - 1) and ln 2 > 693/1000, and the right side is at
    least k * ln(s_big / s_small), since ln(1 + x) <= x.  False decides
    nothing.
    """
    return ((s_small.bit_length() - 1) * 693 * s_small * den
            > 1000 * num * (s_big - s_small))


# ---------------------------------------------------------------------------
# monotonicity of the constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of the two scaled-constant monotonicity checks."""

    q_max: int
    r_values: tuple[Fraction, ...]
    t_values: tuple[Fraction, ...]
    sequence_comparisons: int
    interpolation_comparisons: int
    violation: str | None

    @property
    def ok(self) -> bool:
        return self.violation is None


_DEFAULT_T_GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 2),
                   Fraction(3, 4), Fraction(1))


def check_c_monotone(q_max: int = 10_000, r_grid=(0, Fraction(1, 2), 1),
                     t_grid=_DEFAULT_T_GRID,
                     interpolation_q_max: int = 200) -> MonotonicityReport:
    """Verify the two monotonicity statements about the scaled constants.

    First, for each r in the grid, c_q^(1/(q+r)) strictly decreases in q over
    2..q_max: equivalently s_q^(b(q+1)+a) > s_{q+1}^(bq+a) with s the squared
    constants and r = a/b, which is decided in integers.  Second, for each
    q in 3..interpolation_q_max and r in the grid, the interpolation
    F(t) = (c_q^t c_{q-1}^(1-t))^(1/(q+t-r)) strictly decreases along the
    t-grid.

    Both statements compare logarithms: the sequence step at (q, r) is
    ln s_q > (q+r) ln(s_{q+1}/s_q), and the t-derivative of ln F has the
    sign of (A-B)(q-r) - B with A = ln c_q and B = ln c_{q-1}, the same for
    every t.  So F falls between two distinct grid points exactly when
    ln s_{q-1} > (q-r) ln(s_q/s_{q-1}), the sequence step at (q-1, 1-r), and
    each interpolation instance is decided as that step; a repeated t is a
    pair F(t) > F(t), which fails at every q.  :func:`_log_dominates`
    settles most steps from first-order bounds; every other step is decided
    by :func:`_exact_greater` in exact integers.  The comparison counts
    include both; the interpolation count adds, per (q, r), the grid's
    adjacent pairs up to and including the first failing one.

    The log test fails only at small q (q <= 4 on every grid tried), but
    the exponents it leaves to the exact route grow with the r-denominators:
    r-grids with denominators in the millions would build very large
    integers there.  The t-grid reaches no exponent.

    Returns a report carrying the first violated instance, if any.
    """
    if q_max < 3:
        raise ValueError("q_max must be at least 3")
    r_values = tuple(Fraction(r) for r in r_grid)
    t_values = tuple(sorted(Fraction(t) for t in t_grid))
    for r in r_values:
        if not 0 <= r <= 1:
            raise ValueError("r values must lie in [0, 1]")
    for t in t_values:
        if not 0 <= t <= 1:
            raise ValueError("t values must lie in [0, 1]")

    seq = 0
    violation = None
    for r in r_values:
        a, b = r.numerator, r.denominator
        s_hi = _squared(2)
        for q in range(2, q_max):
            s_lo, s_hi = s_hi, _squared(q + 1)
            seq += 1
            if _log_dominates(s_lo, s_hi, b * q + a, b):
                continue
            if not _exact_greater([(s_lo, b * (q + 1) + a)],
                                  [(s_hi, b * q + a)]):
                violation = (f"sequence failed at q={q}, r={r}: "
                             f"{s_lo}^{b*(q+1)+a} <= {s_hi}^{b*q+a}")
                break
        if violation:
            break

    interp = 0
    pairs = len(t_values) - 1
    if violation is None and pairs > 0:
        # where the step holds, only a repeated t fails: F(t) > F(t) is false
        repeat = next((i for i in range(pairs)
                       if t_values[i] == t_values[i + 1]), pairs)
        for r in r_values:
            a, b = r.numerator, r.denominator
            s_q = _squared(2)
            for q in range(3, interpolation_q_max + 1):
                s_p, s_q = s_q, _squared(q)
                e = b * q - a
                step = (_log_dominates(s_p, s_q, e, b)
                        or _exact_greater([(s_p, e + b)], [(s_q, e)]))
                fail = repeat if step else 0
                interp += min(fail + 1, pairs)
                if fail < pairs:
                    violation = (f"interpolation failed at q={q}, r={r}, "
                                 f"t={t_values[fail]}..{t_values[fail + 1]}")
                    break
            if violation:
                break

    return MonotonicityReport(q_max, r_values, t_values, seq, interp,
                              violation)


# ---------------------------------------------------------------------------
# explicit bounds
# ---------------------------------------------------------------------------


# per-step factor of the refined stressed bound; stats' series tails use it
_DECAY = Fraction(11, 12)


class StressedBounds(NamedTuple):
    naive: Fraction
    refined: Fraction


def stressed3_upper_bounds(length: int) -> StressedBounds:
    """Two upper bounds for the stressed depth-3 count of a given length.

    The naive bound is 2^floor((3*length-3)/2); the refined bound multiplies
    it by the decay factor (11/12)^floor((length-1)/2).
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    naive = Fraction(2 ** ((3 * length - 3) // 2))
    return StressedBounds(naive, naive * _DECAY ** ((length - 1) // 2))


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, in integers."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if n in (0, 1) or k == 1:
        return n
    x = 1 << (n.bit_length() + k - 1) // k  # >= true root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _root_lower(n: int, k: int) -> Fraction:
    """floor(n^(1/k) * 10^9) / 10^9: a certified lower bound for n^(1/k)."""
    return Fraction(_iroot(n * 10 ** (9 * k), k), 10 ** 9)


def tail_heavy_bound(length: int, tail_width: int, depth: int) -> Fraction:
    """Certified lower end of the tail-heavy bound t * q^t * c_q^(L + sqrt(L) + 10).

    The irrational exponent is rounded down to L + isqrt(L) + 10 and the
    leftover half-power of the squared constant is replaced by a rational
    lower bound, so the returned value never exceeds the true bound; a count
    at or below it is therefore certainly dominated.  The parameters are
    checked by :class:`~kunzlab.enumeration.TailHeavySpec`, which raises
    ``ValueError`` on any it rejects.
    """
    TailHeavySpec(length, tail_width, depth)
    s = cq(depth).squared
    e = length + isqrt(length) + 10
    value = Fraction(s) ** (e // 2)
    if e % 2:
        value *= _root_lower(s, 2)
    return tail_width * Fraction(depth) ** tail_width * value


def depth_count_bound(length: int, q: int) -> int:
    """Upper bound q^length for the number of words with entries in [q]."""
    if length < 0 or q < 1:
        raise ValueError("need length >= 0 and q >= 1")
    return q ** length


def frobenius_bound_dominates(count: int, frobenius: int, q: int) -> bool:
    """Exact check of count <= frobenius * q^(frobenius/(q-1)).

    Decided by raising both sides to the (q-1)-th power, which clears the
    fractional exponent into integers.
    """
    if count < 0 or frobenius < 1 or q < 2:
        raise ValueError("need count >= 0, frobenius >= 1, q >= 2")
    return count ** (q - 1) <= frobenius ** (q - 1) * q ** frobenius


class GenericBounds(NamedTuple):
    depth_power: Fraction
    frobenius_power: Fraction


def generic_bounds(f: int, q: int) -> GenericBounds:
    """The two generic count bounds, as reportable rationals.

    ``depth_power`` is q^f with f read as a word length; ``frobenius_power``
    is a certified rational lower end of f * q^(f/(q-1)).  Dominance tests
    use :func:`depth_count_bound` and :func:`frobenius_bound_dominates`,
    which stay in integers.
    """
    if f < 1 or q < 2:
        raise ValueError("need f >= 1 and q >= 2")
    whole, rem = divmod(f, q - 1)
    value = Fraction(q) ** whole
    if rem:
        value *= _root_lower(q ** rem, q - 1)
    return GenericBounds(Fraction(q) ** f, f * value)


# ---------------------------------------------------------------------------
# the growth-rate curve
# ---------------------------------------------------------------------------


def growth_rate(x: float) -> float:
    """Limiting value of count(f, length)^(1/(length+1)) at ratio x = f/(length+1).

    Zero up to 1; on (1, 2] the depth-2 segment 2^(x-1), which the exact
    depth-2 count forces; past 2 the interpolation c_q^(x-q+1) * c_{q-1}^(q-x)
    on each (q-1, q].  The segments agree at every junction.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x <= 1:
        return 0.0
    if x <= 2:
        return 2.0 ** (x - 1)
    q = -int(-x // 1)  # ceil: x in (q-1, q]
    s_hi = cq(q).squared
    s_lo = cq(q - 1).squared
    return s_hi ** ((x - q + 1) / 2) * s_lo ** ((q - x) / 2)
