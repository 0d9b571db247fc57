"""The benchmark's four workloads: the ops of one pass and the checks on them.

An op is one call a user could make: a ``kunzlab`` command line (run
in-process through ``kunzlab.cli.main``) or one of the ``kunzlab.verify``
checks.  The set of ops of a workload is fixed; the seed only permutes their
order within a pass, so every metric compares across seeds.

The output checks here run after the timed part of a pass.  Each returns an
error string, or ``None`` when the op's output is right.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

WORKLOADS = ("frob-count", "fm-grid", "dist-enum", "certify")

THREADS = "2"                 # worker count for every op that takes one
FROB_RANGE = range(28, 36)    # frob-count: count --f F
FM_MAX_F = 55                 # fm-grid: table2 cells with f <= FM_MAX_F
DIST_RANGE = range(32, 36)    # dist-enum: dist genus --f F
ENUM_RANGE = range(27, 31)    # dist-enum: enumerate --f F
CHECKS = ("check_stressed_table", "check_constant_brackets",
          "check_med_identities", "check_hom_suite",
          "check_bound_dominance")
MONOTONE = ("bounds", "--monotone")
STRESSED_TABLE_MAX = 24       # lengths check_stressed_table recomputes


@dataclass(frozen=True)
class Op:
    """One benchmark op: a CLI argv, or the name of a verify check."""

    argv: tuple[str, ...] = ()
    check: str = ""

    @property
    def name(self) -> str:
        return self.check or " ".join(self.argv)

    @property
    def command(self) -> str:
        return "verify" if self.check else self.argv[0]

    def flag(self, name: str) -> int | None:
        """Integer value of ``--name`` in the argv, if given."""
        key = f"--{name}"
        if key in self.argv:
            return int(self.argv[self.argv.index(key) + 1])
        return None


def table2_expected(f: int, m: int, printed: int) -> int:
    """The count ``count --f f --m m`` must print for a table2 cell.

    The f = m-1 cells hold the ordinary semigroup {0, m, m+1, ...}, which the
    printed grid leaves out; those cells count exactly one more word.  This is
    the rule ``kunzlab.verify.check_fm_table`` documents.
    """
    return printed + 1 if f == m - 1 else printed


def ops_for(workload: str, table2: dict[tuple[int, int], int]) -> list[Op]:
    """The fixed op set of one pass, in canonical order."""
    if workload == "frob-count":
        return [Op(("count", "--f", str(f), "--threads", THREADS))
                for f in FROB_RANGE]
    if workload == "fm-grid":
        return [Op(("count", "--f", str(f), "--m", str(m),
                    "--threads", THREADS))
                for f, m in sorted(table2) if f <= FM_MAX_F]
    if workload == "dist-enum":
        return ([Op(("dist", "genus", "--f", str(f), "--threads", THREADS))
                 for f in DIST_RANGE]
                + [Op(("enumerate", "--f", str(f))) for f in ENUM_RANGE])
    if workload == "certify":
        return [Op(check=name) for name in CHECKS] + [Op(MONOTONE)]
    raise ValueError(f"unknown workload {workload!r}")


def pass_order(ops: list[Op], workload: str, seed: int,
               pass_index: int) -> list[Op]:
    """The ops of one pass, permuted by the seed and the pass index."""
    order = list(ops)
    random.Random(f"{workload}/{seed}/{pass_index}").shuffle(order)
    return order


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def words_of(op: Op, stdout: str, table1: dict[int, int]) -> int:
    """Exact words the op counted, binned or emitted.

    For ``certify`` this is the stressed-table check's words, sum st(1..24),
    so the workload has a fixed-work throughput too.
    """
    if op.check == "check_stressed_table":
        return sum(table1[ell] for ell in range(1, STRESSED_TABLE_MAX + 1))
    if op.command == "count":
        return json.loads(stdout)["count"]
    if op.command == "dist":
        return dist_total(stdout)
    if op.command == "enumerate":
        return len(json.loads(stdout)["words"])
    return 0


def dist_total(stdout: str) -> int:
    lines = stdout.splitlines()[1:]
    return sum(int(line.split(",")[1]) for line in lines)


def check_cli_output(op: Op, code: int, stdout: str, expected: dict,
                     table2: dict[tuple[int, int], int], count_query) -> str | None:
    """Error string for a wrong CLI op output, or None.

    ``expected`` holds the stdout digests and the ``count --f`` values
    recorded by ``record.py``; ``count_query`` is ``kunzlab.CountQuery``,
    whose brute-force ``matches`` checks every enumerated word.
    """
    if code != 0:
        return f"exit code {code}"
    if op.argv == MONOTONE:
        return None if json.loads(stdout).get("ok") is True else "not ok"
    want = expected["digests"].get(op.name)
    if want is None:
        return "no recorded digest"
    if digest(stdout) != want:
        return "stdout differs from the recorded digest"
    f, m = op.flag("f"), op.flag("m")
    counts = {int(k): v for k, v in expected["counts"].items()}
    if op.command == "count" and m is not None:
        got = json.loads(stdout)["count"]
        want_count = table2_expected(f, m, table2[f, m])
        if got != want_count:
            return f"count {got}, table2 says {want_count}"
    elif op.command == "count":
        if json.loads(stdout)["count"] != counts[f]:
            return "count differs from the recorded count --f"
    elif op.command == "dist":
        if dist_total(stdout) != counts[f]:
            return "dist genus total differs from count --f"
    elif op.command == "enumerate":
        words = json.loads(stdout)["words"]
        if len(words) != counts[f]:
            return "enumerated word count differs from count --f"
        query = count_query(frobenius=f)
        bad = next((w for w in words if not query.matches(w)), None)
        if bad is not None:
            return f"enumerated word {bad} fails CountQuery.matches"
    return None
