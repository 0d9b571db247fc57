"""End-to-end CLI behavior: payload shapes, exit codes, and determinism."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from kunzlab import cli, graphs
from kunzlab.enumeration import enumerate_words
from kunzlab.graphs import LabeledGraph, graph_to_text
from kunzlab.stats import backelin_bracket, mu_gamma_partial


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_json(capsys):
    code, out, err = run(capsys, "count", "--f", "29", "--m", "10")
    assert code == 0
    assert json.loads(out) == {"query": {"frobenius": 29, "length": 9},
                               "count": 2249}
    assert "elapsed=" in err


def test_count_all_of_f5(capsys):
    code, out, _ = run(capsys, "count", "--f", "5")
    assert code == 0
    assert json.loads(out)["count"] == 5


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "--f", "5", "--format", "csv")
    assert code == 0
    assert out == "count\n5\n"


def test_count_query_echo_includes_filters(capsys):
    code, out, _ = run(capsys, "count", "--f", "11", "--med",
                       "--contains", "4")
    assert code == 0
    assert json.loads(out)["query"] == {"frobenius": 11, "med": True,
                                        "contains": [4]}


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--f", "5")
    assert code == 0
    words = {tuple(w) for w in json.loads(out)["words"]}
    assert words == {(1, 1, 1, 1, 1), (1, 2), (2, 1, 1), (2, 2), (3,)}


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--f", "5", "--format", "csv")
    assert code == 0
    assert set(out.splitlines()) == {"1,1,1,1,1", "1,2", "2,1,1", "2,2", "3"}


ENUMERATE_ARGVS = (
    [("--f", str(f)) for f in range(23)]
    + [("--f", "14", "--med"), ("--f", "14", "--contains", "7"),
       ("--f", "14", "--depth", "3", "--stressed"), ("--f", "14", "--m", "6"),
       ("--f", "14", "--depth-max", "2"), ("--ell", "6", "--depth", "3"),
       ("--ell", "5", "--depth-max", "3", "--med"),
       ("--f", "14", "--contains", "-3"),  # no words
       ("--ell", "0", "--depth-max", "2"),  # no words: CSV prints nothing
       ("--f", "27",)]  # 16,132 words, several write batches
)


def _whole_payload(argv) -> tuple:
    """The query echo and the word list, built without streaming."""
    query = cli._build_query(cli.build_parser().parse_args(
        ["enumerate", *argv]))
    words = [list(w) for w in enumerate_words(query)]
    return cli._query_echo(query), words


def _assert_same_text(got: str, want: str) -> None:
    """Equal texts; a mismatch names its first offset, since pytest's own
    diff of two long strings takes minutes."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        lo = max(at - 40, 0)
        raise AssertionError(f"texts differ at offset {at}: "
                             f"{got[lo:at + 40]!r} != {want[lo:at + 40]!r}")


@pytest.mark.parametrize("argv", ENUMERATE_ARGVS, ids=" ".join)
def test_enumerate_streams_the_whole_payload(capsys, argv):
    echo, words = _whole_payload(argv)
    code, out, _ = run(capsys, "enumerate", *argv)
    assert code == 0
    _assert_same_text(out, json.dumps({"query": echo, "words": words}) + "\n")
    code, out, _ = run(capsys, "enumerate", *argv, "--format", "csv")
    assert code == 0
    _assert_same_text(out, "".join(",".join(str(v) for v in word) + "\n"
                                   for word in words))


def test_table_stressed3(capsys):
    code, out, _ = run(capsys, "table", "stressed3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ell,count"
    assert lines[1] == "1,1"
    assert len(lines) == 57


def test_table_fm(capsys):
    code, out, _ = run(capsys, "table", "fm")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "f,m,count"
    assert "29,10,2249" in lines
    assert len(lines) == 241


def test_constants_c0(capsys):
    code, out, _ = run(capsys, "constants", "--which", "c0")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["lower_num", "lower_den", "upper_num",
                             "upper_den", "decimal_lower", "decimal_upper"]
    assert payload["decimal_lower"] == "1.2606"
    assert payload["decimal_upper"] == "1.3919"


def test_constants_c1(capsys):
    code, out, _ = run(capsys, "constants", "--which", "c1")
    assert code == 0
    payload = json.loads(out)
    assert payload["decimal_lower"] == "1.2755"
    assert payload["decimal_upper"] == "1.4068"


def test_constants_mu0_matches_library(capsys):
    code, out, _ = run(capsys, "constants", "--which", "mu0", "--k-cut", "8")
    assert code == 0
    payload = json.loads(out)
    expected = mu_gamma_partial("mu0", 8, backelin_bracket("even"))
    assert payload["lower_num"] == expected.lower.numerator
    assert payload["lower_den"] == expected.lower.denominator
    lo, hi = expected.decimal(4)
    assert (payload["decimal_lower"], payload["decimal_upper"]) == (lo, hi)


def test_dist_genus_f5(capsys):
    code, out, _ = run(capsys, "dist", "genus", "--f", "5")
    assert code == 0
    assert out == ("key,count,probability_num,probability_den\n"
                   "3,2,2,5\n4,2,2,5\n5,1,1,5\n")


def test_dist_mult_f12(capsys):
    code, out, _ = run(capsys, "dist", "mult", "--f", "12")
    assert code == 0
    assert out.splitlines() == [
        "key,count,probability_num,probability_den",
        "-14,1,1,40", "-10,1,1,40", "-8,2,1,20", "-6,4,1,10",
        "-4,8,1,5", "-2,16,2,5", "2,8,1,5"]


def test_hom_closed_form(capsys):
    code, out, _ = run(capsys, "hom", "--d", "1", "--q", "2")
    assert code == 0
    assert json.loads(out) == {"d": 1, "q": 2, "count": 4}
    code, out, _ = run(capsys, "hom", "--d", "1", "--q", "3")
    assert json.loads(out)["count"] == 8


def test_hom_from_file(capsys, tmp_path):
    path = tmp_path / "path3.txt"
    path.write_text(graph_to_text(LabeledGraph(3, [(1, 2), (2, 3)])),
                    encoding="utf-8")
    code, out, _ = run(capsys, "hom", "--graph", str(path), "--q", "3")
    assert code == 0
    assert json.loads(out) == {"vertices": 3, "q": 3, "count": 22}


def test_hom_graph_names_a_malformed_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# vertices: 3\n1 2\n2 3 1\n", encoding="utf-8")
    code, out, err = run(capsys, "hom", "--graph", str(path), "--q", "3")
    assert code == 2
    assert out == ""
    assert err == "kunzlab: graph text line 3 is malformed: '2 3 1'\n"


def test_hom_graph_keeps_the_vertex_guard(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text(graph_to_text(LabeledGraph(13, [(1, 2)])),
                    encoding="utf-8")
    code, out, err = run(capsys, "hom", "--graph", str(path), "--q", "3")
    assert code == 2
    assert out == ""
    assert "pattern has 13 vertices; guard is 12" in err


@pytest.mark.parametrize("text", ["# vertices: 100000000\n1 2\n",
                                  "1 100000000\n"])
def test_hom_graph_refuses_a_large_count_before_building(capsys, tmp_path,
                                                         monkeypatch, text):
    built = graphs.LabeledGraph

    def guarded(vertex_count, *args, **kwargs):
        if vertex_count > 12:
            raise AssertionError(f"built a graph on {vertex_count} vertices")
        return built(vertex_count, *args, **kwargs)

    monkeypatch.setattr(graphs, "LabeledGraph", guarded)
    path = tmp_path / "huge.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "hom", "--graph", str(path), "--q", "3")
    assert code == 2
    assert out == ""
    assert "pattern has 100000000 vertices; guard is 12" in err


def test_bounds_stressed(capsys):
    code, out, _ = run(capsys, "bounds", "--stressed", "--ell", "9")
    assert code == 0
    assert json.loads(out) == {"ell": 9, "naive_num": 4096, "naive_den": 1,
                               "refined_num": 234256, "refined_den": 81}


def test_bounds_tail(capsys):
    code, out, _ = run(capsys, "bounds", "--tail-width", "1", "--ell", "1",
                       "--depth", "2")
    assert code == 0
    assert json.loads(out) == {"ell": 1, "tail_width": 1, "depth": 2,
                               "lower_num": 8192, "lower_den": 1}


def test_bounds_generic(capsys):
    code, out, _ = run(capsys, "bounds", "--f", "6", "--q", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["depth_power_num"] == 729
    assert payload["frobenius_power_num"] == 162
    assert payload["frobenius_power_den"] == 1


def test_bounds_monotone(capsys):
    code, out, _ = run(capsys, "bounds", "--monotone", "--q-max", "50")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["violation"] is None


def test_plot_growth(capsys):
    code, out, _ = run(capsys, "plot", "growth", "--x-max", "2.0",
                       "--step", "0.5")
    assert code == 0
    assert out.splitlines() == ["x,y", "1.0000,0.000000",
                                "1.5000,1.414214", "2.0000,2.000000"]


def test_plot_table1_ratio(capsys):
    code, out, _ = run(capsys, "plot", "table1-ratio")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ell,ratio"
    assert lines[1] == "1,0.408248"
    assert lines[2] == "2,0.333333"


def test_plot_fm_scatter(capsys):
    code, out, _ = run(capsys, "plot", "fm-scatter", "--m", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,f,x,y"
    assert lines[1] == "10,1,0.100000,0.000000"
    assert "10,29,2.900000,2.163709" in lines
    assert all(line.startswith("10,") for line in lines[1:])


def test_ref_data_flag(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("KUNZLAB_REF_DATA", raising=False)
    (tmp_path / "table1.csv").write_text("ell,count\n1,41\n", encoding="utf-8")
    code, out, _ = run(capsys, "--ref-data", str(tmp_path),
                       "table", "stressed3")
    assert code == 0
    assert out == "ell,count\n1,41\n"


def test_verify_tables_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "tables")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("[PASS]") for line in lines)
    # times to the millisecond, like the elapsed= line
    assert re.fullmatch(r"  stressed-table: \d+\.\d{3}s\n"
                        r"  fm-table: \d+\.\d{3}s\n"
                        r"  suite 'tables' total: \d+\.\d{3}s\n"
                        r"elapsed=\d+\.\d{3}s\n", err), err


def test_determinism_across_threads(capsys):
    # with more than one core, count --f 24 --med is walked on a pool, and
    # the one box of --ell 7 --depth-max 3 is split across its workers
    for argv in (("count", "--f", "20"), ("count", "--f", "24"),
                 ("count", "--f", "24", "--med"),
                 ("count", "--ell", "7", "--depth", "3"),
                 ("count", "--ell", "7", "--depth-max", "3"),
                 ("dist", "genus", "--f", "20")):
        outputs = set()
        for threads in ("1", "4", "16"):
            code, out, err = run(capsys, *argv, "--threads", threads)
            assert code == 0
            assert "elapsed=" not in out
            assert "elapsed=" in err
            outputs.add(out)
        assert len(outputs) == 1


def test_count_of_an_empty_depth1_cell(capsys):
    # length 14 > f = 6: depth 1, and the positions after 6 hold no value
    code, out, _ = run(capsys, "count", "--f", "6", "--m", "15")
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_workers_reports_processes_started(capsys):
    # a length-3 scan always runs serially, whatever the request
    code, _, err = run(capsys, "count", "--f", "9", "--ell", "3",
                       "--threads", "4")
    assert code == 0
    assert err.rstrip().endswith(" workers=1")
    # every scan of f = 12 has a closed form or is shorter than 4
    code, _, err = run(capsys, "count", "--f", "12", "--threads", "2")
    assert code == 0
    assert err.rstrip().endswith(" workers=1")
    # and so does every scan of f = 20
    code, _, err = run(capsys, "count", "--f", "20", "--threads", "2")
    assert code == 0
    assert err.rstrip().endswith(" workers=1")
    # and so does every scan of f = 24, down to depth 5 and beyond
    code, _, err = run(capsys, "count", "--f", "24", "--threads", "2")
    assert code == 0
    assert err.rstrip().endswith(" workers=1")
    # MED strictness keeps f = 24 on the walker, with scans of length 4+
    code, _, err = run(capsys, "count", "--f", "24", "--med",
                       "--threads", "2")
    assert code == 0
    assert err.rstrip().endswith(" workers=2")
    # the MED cell of f = 6 at length 14 has caps of 0 after position 6:
    # it holds no words, so it is not planned and starts no workers
    code, out, err = run(capsys, "count", "--f", "6", "--m", "15", "--med",
                         "--threads", "2")
    assert code == 0
    assert json.loads(out)["count"] == 0
    assert err.rstrip().endswith(" workers=1")
    # a length query with an exact depth is a union of closed cells
    code, _, err = run(capsys, "count", "--ell", "7", "--depth", "3",
                       "--threads", "2")
    assert code == 0
    assert err.rstrip().endswith(" workers=1")
    # a depth bound is one box, walked on the pool
    code, _, err = run(capsys, "count", "--ell", "7", "--depth-max", "3",
                       "--threads", "2")
    assert code == 0
    assert err.rstrip().endswith(" workers=2")


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "bogus")[0] == 2

    def test_help(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_length_flags_disagree(self, capsys):
        code, _, err = run(capsys, "count", "--f", "9", "--m", "10",
                           "--ell", "4")
        assert code == 2
        assert "disagree" in err

    def test_infinite_query(self, capsys):
        code, _, err = run(capsys, "count", "--ell", "4")
        assert code == 2
        assert "infinitely" in err

    def test_enumerate_usage_error_prints_nothing(self, capsys):
        for fmt in ("json", "csv"):
            code, out, err = run(capsys, "enumerate", "--ell", "4",
                                 "--format", fmt)
            assert code == 2
            assert out == ""
            assert "infinitely" in err

    def test_hom_needs_exactly_one_source(self, capsys):
        assert run(capsys, "hom", "--q", "3")[0] == 2
        assert run(capsys, "hom", "--q", "3", "--d", "1",
                   "--graph", "x.txt")[0] == 2

    def test_bounds_needs_a_mode(self, capsys):
        assert run(capsys, "bounds")[0] == 2

    def test_tail_heavy_bound_outside_the_spec(self, capsys):
        for argv in (("--tail-width", "5", "--ell", "2", "--depth", "3"),
                     ("--tail-width", "1", "--ell", "2", "--depth", "1")):
            code, out, _ = run(capsys, "bounds", *argv)
            assert code == 2
            assert out == ""

    def test_dist_f_too_small(self, capsys):
        assert run(capsys, "dist", "mult", "--f", "2")[0] == 2

    def test_bad_threads(self, capsys):
        assert run(capsys, "count", "--f", "9", "--threads", "0")[0] == 2
        # dist runs serially, but its parser still checks the flag
        assert run(capsys, "dist", "genus", "--f", "20",
                   "--threads", "0")[0] == 2

    def test_missing_ref_dir(self, capsys, monkeypatch):
        monkeypatch.delenv("KUNZLAB_REF_DATA", raising=False)
        code, _, _ = run(capsys, "--ref-data", "/nonexistent-dir",
                         "table", "stressed3")
        assert code == 2

    def test_ref_data_missing_column(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("KUNZLAB_REF_DATA", raising=False)
        for name in ("table1.csv", "table2.csv"):
            (tmp_path / name).write_text("a,b\n1,2\n", encoding="utf-8")
        for argv in (("table", "stressed3"), ("constants", "--which", "c0"),
                     ("plot", "fm-scatter")):
            code, _, err = run(capsys, "--ref-data", str(tmp_path), *argv)
            assert code == 2
            assert "missing column" in err

    def test_overflow_is_a_usage_error(self, capsys):
        # an overflowing row, and a range of 1e15 rows, are both refused
        # before anything is printed
        for x_max, step in (("1e200", "1e199"), ("1e9", "1e-6")):
            code, out, err = run(capsys, "plot", "growth", "--x-max", x_max,
                                 "--step", step)
            assert code == 2
            assert out == ""
            assert "verification failure" not in err


def test_python_dash_m_runs_the_cli(capsys):
    # ``python -m kunzlab`` is the same program as the ``kunzlab`` script
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-m", "kunzlab", "count", "--f",
                           "10"], cwd=root, env=env, capture_output=True,
                          text=True, timeout=60)
    code, out, _ = run(capsys, "count", "--f", "10")
    assert (proc.returncode, proc.stdout) == (code, out)
    assert code == 0 and json.loads(out)["count"] == 22


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write breaks the pipe."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_broken_pipe_is_not_a_usage_error(capsys, monkeypatch):
    # 128 + SIGPIPE, with nothing on stderr: no message, no elapsed= line
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = cli.main(["enumerate", "--f", "20"])
    assert (code, capsys.readouterr().err) == (141, "")


def test_broken_pipe_exits_quietly(capsys):
    # the reader takes 100 bytes and leaves; the interpreter's exit flush
    # must not report a second broken pipe either
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH="src")
    with subprocess.Popen([sys.executable, "-m", "kunzlab", "enumerate",
                           "--f", "40"], cwd=root, env=env,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert head.startswith(b'{"query": {"frobenius": 40}, "words": [[')
    assert err == b""
