"""The package namespace: each public name is declared once, in its
module's ``__all__``, and the package re-exports exactly those names."""

import subprocess
import sys
from pathlib import Path

import pytest

import kunzlab
from kunzlab import bounds, cli, enumeration, graphs, stats, words
from kunzlab.words import CountQuery

PUBLIC = [
    "CountQuery", "CqValue", "Distribution", "ExactBracket", "GenericBounds",
    "GenusStats", "KunzWord", "LabeledGraph", "MonotonicityReport",
    "SemigroupInvariants", "StressedBounds", "TailHeavySpec", "__version__",
    "backelin_bracket", "check_c_monotone", "closed_k2", "closed_k3",
    "complete_bipartite", "contains", "count_and_genus", "count_by_length",
    "count_depth_le3", "count_stressed3", "count_words", "cq",
    "degree_deficit", "depth_count_bound", "enumerate_words",
    "frobenius_bound_dominates", "gaps_from_word", "generic_bounds",
    "genus_histogram", "genus_stats", "graph_from_text", "graph_to_text",
    "growth_rate", "heavy_index_graph", "hom_count", "hom_kdd",
    "invariants", "is_kunz", "is_med", "is_tail_heavy", "limit_mult_mass",
    "lower_bound_family", "med_count", "med_drop", "med_lift",
    "mu_gamma_partial", "mult_distribution", "reduce_depth", "regularize",
    "schur_colorings", "stressed3_avg_genus", "stressed3_genus_total",
    "stressed3_upper_bounds", "tail_heavy_bound", "tail_heavy_count",
    "threshold_graph", "threshold_target", "word_from_gaps",
]


def test_package_exports_the_public_names():
    assert sorted(kunzlab.__all__) == PUBLIC
    assert len(kunzlab.__all__) == len(set(kunzlab.__all__)) == 61


@pytest.mark.parametrize("module", [bounds, enumeration, graphs, stats, words],
                         ids=lambda module: module.__name__)
def test_module_names_are_the_package_names(module):
    for name in module.__all__:
        assert hasattr(module, name)
        assert getattr(kunzlab, name) is getattr(module, name)


def test_query_echo_keeps_field_order():
    # depth_exact and depth_max exclude each other: every field is set in
    # one of the two queries
    exact = CountQuery(frobenius=40, length=9, depth_exact=5, stressed=True,
                       med=True, contains=(12, 17))
    bound = CountQuery(frobenius=40, length=9, depth_max=5, med=True,
                       contains=(12,))
    assert cli._query_echo(exact) == {
        "frobenius": 40, "length": 9, "depth_exact": 5, "stressed": True,
        "med": True, "contains": [12, 17]}
    assert list(cli._query_echo(exact)) == [
        "frobenius", "length", "depth_exact", "stressed", "med", "contains"]
    assert list(cli._query_echo(bound)) == [
        "frobenius", "length", "depth_max", "med", "contains"]


def test_import_leaves_multiprocessing_unloaded():
    # a fresh interpreter, since a pytest plugin may have loaded the module
    # here; importing the package and the CLI must not pull in
    # multiprocessing, which no kunzlab code uses, so a command pays for
    # no module it does not run
    src = str(Path(kunzlab.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import kunzlab, kunzlab.cli, kunzlab.verify; "
            "print('multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"
