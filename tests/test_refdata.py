"""Packaged reference tables: shape, spot values, and the override chain."""

import pytest

from kunzlab.enumeration import count_stressed3, count_words
from kunzlab.refdata import ENV_VAR, load_table1, load_table2
from kunzlab.words import CountQuery


def test_table1_shape_and_spots():
    table = load_table1()
    assert len(table) == 56
    assert sorted(table) == list(range(1, 57))
    assert table[1] == 1
    assert table[2] == 2
    assert table[3] == 7
    assert table[56] == 9583422277969715823101


def test_table1_matches_recomputation():
    # rows 1..24, the range that check_stressed_table recomputes
    table = load_table1()
    for ell in range(1, 25):
        assert table[ell] == count_stressed3(ell)


def test_table2_shape_and_spots():
    table = load_table2()
    assert len(table) == 240
    assert {m for _, m in table} == {8, 10, 12, 15}
    assert table[(1, 8)] == 0
    assert table[(12, 8)] == 8
    assert table[(29, 10)] == 2249
    assert table[(40, 15)] == 72208


def test_table2_spot_recomputation():
    table = load_table2()
    for f, m in [(1, 8), (12, 8), (16, 10), (20, 12), (9, 15)]:
        assert table[(f, m)] == count_words(
            CountQuery(frobenius=f, length=m - 1))


def _write_tables(directory, first_count):
    (directory / "table1.csv").write_text(
        f"ell,count\n1,{first_count}\n", encoding="utf-8")
    (directory / "table2.csv").write_text(
        "f,m,count\n3,2,99\n", encoding="utf-8")


def test_override_directory(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    _write_tables(tmp_path, 41)
    assert load_table1(str(tmp_path)) == {1: 41}
    assert load_table2(str(tmp_path)) == {(3, 2): 99}
    # and without an override the packaged data still loads
    assert load_table1()[1] == 1


def test_environment_beats_override(tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    arg_dir = tmp_path / "arg"
    env_dir.mkdir()
    arg_dir.mkdir()
    _write_tables(env_dir, 7700)
    _write_tables(arg_dir, 41)
    monkeypatch.setenv(ENV_VAR, str(env_dir))
    assert load_table1(str(arg_dir)) == {1: 7700}
    assert load_table1() == {1: 7700}


def test_missing_override_file_raises(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    with pytest.raises(OSError):
        load_table1(str(tmp_path / "nowhere"))


def test_malformed_table_raises_value_error(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    (tmp_path / "table1.csv").write_text("a,b\n1,2\n", encoding="utf-8")
    (tmp_path / "table2.csv").write_text("f,count\n3,99\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"table1\.csv.*ell, count"):
        load_table1(str(tmp_path))
    with pytest.raises(ValueError, match=r"table2\.csv.*column\(s\) m$"):
        load_table2(str(tmp_path))
    (tmp_path / "table2.csv").write_text("f,m,count\n3,2,99\n4,2\n",
                                         encoding="utf-8")
    with pytest.raises(ValueError, match=r"table2\.csv: line 3 lacks"):
        load_table2(str(tmp_path))
    # the environment variable goes through the same check
    monkeypatch.setenv(ENV_VAR, str(tmp_path))
    with pytest.raises(ValueError, match="table1.csv"):
        load_table1()
