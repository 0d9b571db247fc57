"""Packaged reference tables and the override mechanism for them.

Two CSV tables ship with the package: stressed depth-3 counts by length
(``table1.csv``: ell,count) and counts by Frobenius number and multiplicity
(``table2.csv``: f,m,count).  An alternative directory holding files of the
same names can be supplied programmatically (the CLI's ``--ref-data``), and
the environment variable ``KUNZLAB_REF_DATA`` overrides both.
"""

from __future__ import annotations

import csv
import os
from importlib.resources import files
from pathlib import Path

__all__ = ["ENV_VAR", "load_table1", "load_table2"]

ENV_VAR = "KUNZLAB_REF_DATA"


def _read_rows(name: str, columns: tuple[str, ...],
               override: str | None) -> list[dict[str, str]]:
    """The rows of one table; ``ValueError`` if its header lacks a column
    or a row lacks a value."""
    env = os.environ.get(ENV_VAR)
    directory = env if env else override
    if directory is not None:
        path = Path(directory) / name
    else:
        path = files("kunzlab") / "data" / name
    reader = csv.DictReader(path.read_text(encoding="utf-8").splitlines())
    missing = [c for c in columns if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
    rows = []
    for row in reader:
        if any(row[c] is None for c in columns):
            raise ValueError(f"{path}: line {reader.line_num} lacks a value")
        rows.append(row)
    return rows


def load_table1(override: str | None = None) -> dict[int, int]:
    """Reference counts of stressed depth-3 words, keyed by length."""
    return {int(row["ell"]): int(row["count"])
            for row in _read_rows("table1.csv", ("ell", "count"), override)}


def load_table2(override: str | None = None) -> dict[tuple[int, int], int]:
    """Reference counts keyed by (Frobenius number, multiplicity)."""
    return {(int(row["f"]), int(row["m"])): int(row["count"])
            for row in _read_rows("table2.csv", ("f", "m", "count"), override)}
