"""Record the reference outputs the benchmark checks its ops against.

Runs every ``count``, ``dist`` and ``enumerate`` op of the workloads once and
writes ``perfbench/expected.json``: the sha256 of each op's stdout, and
``count --f F`` for every F whose ``dist genus`` total or enumerated word
count a pass compares against it.  Re-record only when an output is meant to
change, and say so in the change that does it.

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys

import passrun
import workloads


def main() -> int:
    kz, table1, table2, _ = passrun.setup()
    digests = {}
    for workload in ("frob-count", "fm-grid", "dist-enum"):
        for op in workloads.ops_for(workload, table2):
            _, code, stdout, error = passrun.run_op(op, kz, None)
            if code != 0 or error is not None:
                print(f"{op.name}: exit {code}, {error}", file=sys.stderr)
                return 1
            digests[op.name] = workloads.digest(stdout)
    frobenius = sorted({*workloads.FROB_RANGE, *workloads.DIST_RANGE,
                        *workloads.ENUM_RANGE})
    counts = {}
    for f in frobenius:
        op = workloads.Op(("count", "--f", str(f), "--threads", "1"))
        _, code, stdout, error = passrun.run_op(op, kz, None)
        if code != 0 or error is not None:
            print(f"{op.name}: exit {code}, {error}", file=sys.stderr)
            return 1
        counts[str(f)] = json.loads(stdout)["count"]
    passrun.EXPECTED.write_text(
        json.dumps({"counts": counts, "digests": digests}, indent=1) + "\n",
        encoding="utf-8")
    print(f"recorded {len(digests)} digests and {len(counts)} counts "
          f"to {passrun.EXPECTED.relative_to(passrun.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
