"""Exact distributions, constant brackets, and their finite-f comparisons."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kunzlab.bounds import stressed3_upper_bounds
from kunzlab.enumeration import count_words
from kunzlab.refdata import load_table1
from kunzlab.stats import (
    Distribution,
    ExactBracket,
    backelin_bracket,
    genus_stats,
    limit_mult_mass,
    mu_gamma_partial,
    mult_distribution,
    stressed3_avg_genus,
)
from kunzlab.words import CountQuery


# ---------------------------------------------------------------------------
# the value types
# ---------------------------------------------------------------------------


def test_bracket_basics():
    b = ExactBracket(Fraction(1, 3), Fraction(2, 3))
    assert Fraction(1, 2) in b
    assert Fraction(3, 4) not in b
    assert b.width == Fraction(1, 3)
    assert b.contains_bracket(ExactBracket(Fraction(2, 5), Fraction(3, 5)))
    assert not b.contains_bracket(ExactBracket(Fraction(0), Fraction(1, 2)))
    wide = b.widened(Fraction(1, 6))
    assert wide.lower == Fraction(1, 6) and wide.upper == Fraction(5, 6)
    with pytest.raises(ValueError):
        ExactBracket(Fraction(1), Fraction(0))


def test_bracket_decimal_is_directed():
    b = ExactBracket(Fraction(1, 3), Fraction(2, 3))
    assert b.decimal() == ("0.3333", "0.6667")
    assert b.decimal(2) == ("0.33", "0.67")
    neg = ExactBracket(Fraction(-2, 3), Fraction(-1, 3))
    assert neg.decimal() == ("-0.6667", "-0.3333")
    exact = ExactBracket(Fraction(5, 4), Fraction(5, 4))
    assert exact.decimal() == ("1.2500", "1.2500")


def test_distribution_basics():
    d = Distribution(((1, 3), (4, 1)))
    assert d.total == 4
    assert d.support == (1, 4)
    assert d.count(4) == 1 and d.count(2) == 0
    assert d.probability(1) == Fraction(3, 4)
    assert d.mean() == Fraction(7, 4)
    assert Distribution.from_counts({4: 1, 1: 3, 2: 0}) == d


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution(((2, 1), (1, 1)))     # keys out of order
    with pytest.raises(ValueError):
        Distribution(((1, 1), (1, 2)))     # duplicate key
    with pytest.raises(ValueError):
        Distribution(((1, -1), (2, 5)))    # negative mass
    with pytest.raises(ValueError):
        Distribution.from_counts({1: 0})   # empty after dropping zeros


@given(st.dictionaries(st.integers(-50, 50), st.integers(0, 9),
                       min_size=1).filter(lambda d: any(d.values())))
def test_distribution_probabilities_sum_to_one(counts):
    d = Distribution.from_counts(counts)
    assert sum(d.probabilities().values()) == 1
    assert all(c > 0 for _, c in d.pairs)


# ---------------------------------------------------------------------------
# the limiting-constant brackets
# ---------------------------------------------------------------------------


def test_backelin_bracket_reported_digits():
    assert backelin_bracket("even").decimal() == ("1.2606", "1.3919")
    assert backelin_bracket("odd").decimal() == ("1.2755", "1.4068")


def test_backelin_bracket_nests_with_cut():
    for parity in ("even", "odd"):
        coarse = backelin_bracket(parity, j_cut=20)
        fine = backelin_bracket(parity, j_cut=56)
        assert coarse.contains_bracket(fine)
        assert fine.width < coarse.width


def test_backelin_bracket_guards():
    with pytest.raises(ValueError):
        backelin_bracket("both")
    with pytest.raises(ValueError):
        backelin_bracket("even", j_cut=-1)
    with pytest.raises(ValueError, match="lacks rows"):
        backelin_bracket("even", j_cut=10, table1={2: 2, 4: 14})


def test_backelin_bracket_accepts_explicit_table():
    table = load_table1()
    assert backelin_bracket("even", table1=table) == backelin_bracket("even")


# ---------------------------------------------------------------------------
# multiplicity distribution and its limit
# ---------------------------------------------------------------------------


def test_mult_distribution_small():
    d = mult_distribution(12)
    assert d.pairs == ((-14, 1), (-10, 1), (-8, 2), (-6, 4), (-4, 8),
                       (-2, 16), (2, 8))
    assert d.total == 40
    assert mult_distribution(30).total == count_words(CountQuery(frobenius=30))
    with pytest.raises(ValueError):
        mult_distribution(0)


def test_limit_mult_mass_edge_cases():
    b = backelin_bracket("even")
    zero = limit_mult_mass(0, "even", b)
    assert (zero.lower, zero.upper) == (0, 0)
    quarter = limit_mult_mass(-1, "even", b)
    assert quarter.lower == Fraction(1, 4) / b.upper
    assert quarter.upper == Fraction(1, 4) / b.lower
    with pytest.raises(ValueError):
        limit_mult_mass(1, "sideways", b)
    with pytest.raises(ValueError):
        limit_mult_mass(1, "even", ExactBracket(Fraction(0), Fraction(1)))


def test_finite_f_masses_approach_limits():
    """f = 40 masses sit within 0.03 of the limiting intervals.

    The distribution's total is still about 11% below its limiting scale at
    f = 40, so every observed mass slightly overshoots; the largest gap
    (0.028, at the biggest mass) sets the slack.
    """
    b = backelin_bracket("even")
    observed = mult_distribution(40)
    slack = Fraction(3, 100)
    for k in range(-3, 5):
        lim = limit_mult_mass(k, "even", b).widened(slack)
        assert observed.probability(2 * k) in lim, f"k={k}"


# ---------------------------------------------------------------------------
# genus distribution
# ---------------------------------------------------------------------------


def test_genus_stats_tiny_case():
    gs = genus_stats(5)
    assert gs.distribution.pairs == ((3, 2), (4, 2), (5, 1))
    assert gs.distribution.mean() == Fraction(19, 5)
    assert gs.mean_deviation == Fraction(1, 20)
    mu2, mu3, mu4 = gs.central_moments
    assert mu2 == Fraction(14, 25)
    assert mu3 == Fraction(18, 125)
    assert gs.standardized[0] == 1.0
    assert gs.standardized[1] == pytest.approx(float(mu3) / float(mu2) ** 1.5)
    with pytest.raises(ValueError):
        genus_stats(0)


def test_genus_mean_stays_near_three_quarters():
    # the exact mean deviation g - 3f/4 stays within +-2 across the window
    for f in range(20, 41):
        dev = genus_stats(f).mean_deviation
        assert abs(dev) <= 2, f"f={f}: deviation {dev}"


def test_depth4_multiplicity_concentration():
    """Depth-4 mass concentrates where 3m is within 20% of f.

    The comparison is first-to-last only: at f = 36 just two lengths carry
    depth 4 and both land inside the window, so the middle point sits at
    mass exactly 1 and pointwise monotonicity is meaningless.
    """
    masses = {}
    for f in (30, 36, 42):
        per_m = {}
        for m in range(2, f + 1):
            c = count_words(CountQuery(frobenius=f, length=m - 1,
                                       depth_exact=4))
            if c:
                per_m[m] = c
        near = sum(c for m, c in per_m.items() if abs(f - 3 * m) * 5 < f)
        masses[f] = Fraction(near, sum(per_m.values()))
    assert masses[42] > masses[30]
    assert all(mass > Fraction(1, 2) for mass in masses.values())


# ---------------------------------------------------------------------------
# stressed averages and the mean-deviation series
# ---------------------------------------------------------------------------


def test_stressed3_avg_genus_small():
    assert stressed3_avg_genus(1) == 3
    assert stressed3_avg_genus(2) == Fraction(11, 2)  # words (2,3) and (3,3)
    with pytest.raises(ValueError):
        stressed3_avg_genus(0)
    with pytest.raises(ValueError):
        stressed3_avg_genus(29)


def test_stressed3_avg_genus_linear_bound():
    for j in range(1, 19):
        assert stressed3_avg_genus(j) <= 3 * j


@pytest.mark.parametrize("kind,parity", [
    ("mu0", "even"), ("mu1", "odd"), ("gamma0", "even"), ("gamma1", "odd")])
def test_mu_gamma_partial_nests(kind, parity):
    b = backelin_bracket(parity)
    coarse = mu_gamma_partial(kind, 8, b)
    fine = mu_gamma_partial(kind, 12, b)
    assert coarse.contains_bracket(fine)
    assert fine.width < coarse.width


def test_mu_gamma_partial_guards():
    b = backelin_bracket("even")
    with pytest.raises(ValueError):
        mu_gamma_partial("mu2", 8, b)


# ---------------------------------------------------------------------------
# golden values: every series term and tail pinned as an exact rational
# ---------------------------------------------------------------------------


_GOLDEN_CONSTANTS = {
    (56, 8): {
        "c0": ("48769759825823230870319789/38685626227668133590597632",
               "410609617829696646954103537584684963679/"
               "295001014066853243782145636489477750784"),
        "c1": ("12336278119993680387746299/9671406556917033397649408",
               "103749256395543712378270658487884427097/"
               "73750253516713310945536409122369437696"),
        "mu0": ("-1371645330437559859626389798912/"
                "106659464739075405913389378543",
                "-370623691946819138960004805510658260992/"
                "410609617829696646954103537584684963679"),
        "mu1": ("-987343521195679815121202315264/"
                "80938320745278537024003467739",
                "-111189068795942070712058731674910851072/"
                "103749256395543712378270658487884427097"),
        "gamma0": ("-351317175663879737617986617344/"
                   "11851051637675045101487708727",
                   "591005414785605364567720853504/"
                   "35553154913025135304463126181"),
        "gamma1": ("-2253947550956473360570239680512/"
                   "80938320745278537024003467739",
                   "136196561849915146937462423552/"
                   "8993146749475393002667051971"),
    },
    (7, 3): {
        "c0": ("53/64", "2285/1152"),
        "c1": ("3751/4096", "218405/110592"),
        "mu0": ("-6511/318", "24/53"),
        "mu1": ("-3634019/202554", "-3051/436810"),
        "gamma0": ("-196871/3816", "37307/1272"),
        "gamma1": ("-2006209/45012", "3351613/135036"),
    },
}

# the mass limit_mult_mass divides by the bracket ends, k = -3..6
_GOLDEN_MASSES = {
    "even": ("1/16", "1/8", "1/4", "0", "1/8", "7/64", "3/32", "667/8192",
             "4513/65536", "28897/524288"),
    "odd": ("1/16", "1/8", "1/4", "1/8", "7/64", "25/256", "343/4096",
            "2249/32768", "15349/262144", "100425/2097152"),
}


@pytest.mark.parametrize("cuts", sorted(_GOLDEN_CONSTANTS))
def test_constant_brackets_golden(cuts):
    j_cut, k_cut = cuts
    for which, (lower, upper) in _GOLDEN_CONSTANTS[cuts].items():
        parity = "even" if which.endswith("0") else "odd"
        bracket = backelin_bracket(parity, j_cut=j_cut)
        if not which.startswith("c"):
            bracket = mu_gamma_partial(which, k_cut, bracket)
        assert (bracket.lower, bracket.upper) == (Fraction(lower),
                                                  Fraction(upper)), which


def test_limit_mult_mass_golden():
    for parity, masses in _GOLDEN_MASSES.items():
        b = backelin_bracket(parity)
        for k, mass in zip(range(-3, 7), masses):
            got = limit_mult_mass(k, parity, b)
            mass = Fraction(mass)
            assert (got.lower, got.upper) == (mass / b.upper,
                                              mass / b.lower), (parity, k)


def test_stressed3_upper_bounds_golden():
    naive = [1, 2, 8, 16, 64, 128, 512, 1024, 4096, 8192, 32768, 65536]
    refined = ["1", "2", "22/3", "44/3", "484/9", "968/9", "10648/27",
               "21296/27", "234256/81", "468512/81", "5153632/243",
               "10307264/243"]
    assert [stressed3_upper_bounds(l) for l in range(1, 13)] == [
        (n, Fraction(r)) for n, r in zip(naive, refined)]
