"""One pass of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass (and a few times with
``--setup-only`` to time set-up alone).  It imports kunzlab from the
checkout's ``src``, loads both reference tables, runs the workload's ops in
the seed's order, checks every op's output after the timed part, and prints
one JSON object on stdout.  With ``--trace`` it wraps kunzlab's layer
functions first, makes the probe calls after the pass, and writes the spans
to ``perfbench/out``.

    python3 perfbench/passrun.py --workload frob-count --seed 1 --pass-index 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
EXPECTED = HERE / "expected.json"


def setup():
    """Import kunzlab from the checkout and load both reference tables."""
    sys.path.insert(0, str(ROOT / "src"))
    import kunzlab
    import kunzlab.cli
    import kunzlab.refdata
    import kunzlab.verify

    where = Path(kunzlab.__file__).resolve().parent
    if where != ROOT / "src" / "kunzlab":
        raise SystemExit(f"kunzlab imported from {where}, not the checkout")
    start = perf_counter()
    table1 = kunzlab.refdata.load_table1()
    table2 = kunzlab.refdata.load_table2()
    return kunzlab, table1, table2, (start, perf_counter())


CAL_EVERY_S = 1.0  # longest stretch of ops between two host-speed samples


def host_unit_s() -> float:
    """Median wall time of a fixed pure-Python loop: the host's speed now.

    A pass samples it before its first op, after its last, and between ops
    at least every ``CAL_EVERY_S``; ``run.py`` scales each op by the samples
    around it, so a host whose CPU speed drifts within or between runs does
    not read as a change of kunzlab's speed.
    """
    times = []
    for _ in range(5):
        start = perf_counter()
        total = 0
        for i in range(200_000):
            total += (i * 7) & 15
        times.append(perf_counter() - start)
    return median(times)


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def run_op(op, kz, tracer):
    """Run one op; return (seconds, exit code or None, stdout, error)."""
    out, err = StringIO(), StringIO()
    error = None
    code = None
    start = perf_counter()
    try:
        if op.check:
            check = getattr(kz.verify, op.check)
            if tracer is None:
                result = check()
            else:
                with tracer.span(f"verify.{op.check}") as span:
                    result = check()
                span["attrs"]["elapsed"] = result.elapsed
            code = 0
            if not result.passed:
                error = f"check failed: {result.detail}"
        else:
            with redirect_stdout(out), redirect_stderr(err):
                if tracer is None:
                    code = kz.cli.main(list(op.argv))
                else:
                    with tracer.span("cli.op", op=op.name):
                        code = kz.cli.main(list(op.argv))
    except Exception as exc:  # a crashing op is a failed op; the pass goes on
        error = f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, code, out.getvalue(), error


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    kz, table1, table2, load = setup()
    ready = perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready, "cal_s": host_unit_s()}))
        return 0

    import tracing
    import workloads

    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    ops = workloads.pass_order(workloads.ops_for(args.workload, table2),
                               args.workload, args.seed, args.pass_index)
    tracer = absent = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.add("refdata.load", load[0], load[1], None)
        absent = tracing.install(tracer)

    # the ops, with host-speed samples between them (outside the op times)
    cals = [host_unit_s()]
    sampled = perf_counter()
    runs, cpus, op_cals = [], [], []
    for index, op in enumerate(ops):
        cpu0 = cpu_seconds()
        runs.append(run_op(op, kz, tracer))
        cpus.append(cpu_seconds() - cpu0)
        if index == len(ops) - 1 or perf_counter() - sampled >= CAL_EVERY_S:
            cals.append(host_unit_s())
            sampled = perf_counter()
            op_cals += [(cals[-2] + cals[-1]) / 2] * (len(runs) - len(op_cals))

    # output checks, outside the timed region
    records = []
    words = 0
    for op, (seconds, code, stdout, error), cpu, cal in zip(ops, runs, cpus,
                                                         op_cals):
        if error is None and not op.check:
            try:
                error = workloads.check_cli_output(op, code, stdout, expected,
                                                   table2, kz.CountQuery)
            except (ValueError, KeyError, IndexError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        if error is None:
            words += workloads.words_of(op, stdout, table1)
        records.append({"op": op.name, "s": seconds, "cpu_s": cpu,
                        "cal_s": cal, "error": error})

    result = {"ready": ready, "cal_s": median(cals),
              "peak_rss_mb": peak_rss_mb(), "words": words, "ops": records}
    if tracer is not None:
        done = [(op, stdout) for op, (_, _, stdout, _), record
                in zip(ops, runs, records) if record["error"] is None]
        try:
            guards = tracing.run_probes(tracer, args.workload, done, kz,
                                        table1, absent)
        except Exception as exc:  # report a broken probe as a failed guard
            guards = [f"probes: {type(exc).__name__}: {exc}"]
        result["layers"] = tracing.layer_metrics(tracer.spans, absent)
        result["absent"] = tracing.absent_metrics(absent)
        result["guards"] = len(guards)
        result["guard_errors"] = [g for g in guards if g is not None]
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.spans), encoding="utf-8")
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
