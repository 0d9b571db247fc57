"""kunzlab benchmark: closed-loop passes of one workload, end to end or traced.

    python3 perfbench/run.py --workload frob-count --seed 1 --seconds 10 --trace 0

One client issues each op when the previous one completes, with no rate.
Every pass runs in a fresh interpreter (``passrun.py``), as a user's command
line does.  The run times a few set-ups alone, then makes passes until
``--seconds`` have gone by (at least ``MIN_PASSES``), and reports medians,
every time scaled to a reference host speed (``REF_UNIT_S``).
With ``--trace 1`` it then makes one traced pass and reports the per-layer
metrics and the tracing overhead instead.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Metric definitions and the layer map are in ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SETUP_RUNS = 5         # set-up-only interpreters per run, for setup_s
MIN_PASSES = {"frob-count": 3, "fm-grid": 1, "dist-enum": 3, "certify": 1}
RUN_LIMIT_S = 170.0    # a run ends well within 180 s whatever --seconds says
TAIL_BEYOND = 10       # op_tail_s: samples that must lie beyond the percentile
REF_UNIT_S = 0.014     # passrun.host_unit_s at the reference host speed

END_TO_END = {"setup_s": "s", "pass_s": "s", "op_p50_s": "s",
              "op_tail_s": "s", "words_per_s": "1/s", "cpu_s": "s",
              "peak_rss_mb": "MB"}


class PassError(RuntimeError):
    """A pass interpreter failed outright (not one op: the whole pass)."""


def tail_percentile(samples: list[float], beyond: int = TAIL_BEYOND):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, sample count).  With too few samples for any
    such percentile, the maximum is returned as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0, n
    rank = n - beyond - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n


def environment(workload: str, seed: int, trace: int) -> dict:
    return {"workload": workload, "seed": seed, "trace": trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "start_method": multiprocessing.get_start_method(),
            "commit": git_commit(), "loadavg_start": loadavg()}


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text(encoding="ascii").strip()
    except OSError:
        return "unavailable"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def spawn(extra: list[str], deadline: float) -> dict:
    """Run passrun.py in a fresh interpreter; return its JSON with setup_s."""
    env = {k: v for k, v in os.environ.items() if k != "KUNZLAB_REF_DATA"}
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "passrun.py"), *extra],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT, env=env,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pass and its pool workers
        proc.communicate()
        raise PassError(f"pass {extra} ran past the run's time limit")
    if proc.returncode != 0:
        raise PassError(f"pass {extra} exited {proc.returncode}: "
                        f"{err.strip()[-2000:]}")
    data = json.loads(out.strip().splitlines()[-1])
    data["setup_s"] = data["ready"] - start
    return data


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Set-ups, untraced passes for ``seconds``, and the traced pass."""
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    setups = [spawn(["--setup-only"], deadline) for _ in range(SETUP_RUNS)]
    passes: list[dict] = []
    base = ["--workload", workload, "--seed", str(seed)]
    while len(passes) < MIN_PASSES[workload] or perf_counter() - start < seconds:
        longest = max((pass_seconds(p, lambda op: 1.0) + p["setup_s"]
                       for p in passes), default=0.0)
        if passes and perf_counter() + 2 * longest > deadline:
            break
        passes.append(spawn(base + ["--pass-index", str(len(passes))],
                            deadline))
    traced = None
    if trace:
        traced = spawn(base + ["--pass-index", str(len(passes)), "--trace"],
                       deadline)
    return setups, passes, traced


def at_reference_speed(sample: dict) -> float:
    """Factor that turns a time measured around ``sample`` (an op, or a
    set-up) into seconds at the reference host speed."""
    return REF_UNIT_S / sample["cal_s"]


def pass_seconds(p: dict, scale) -> float:
    return sum(op["s"] * scale(op) for op in p["ops"])


def end_to_end(setups: list[dict], passes: list[dict], workload: str,
               scale=at_reference_speed):
    """The end-to-end metrics, and the tail percentile and sample count.

    Every time is multiplied by ``scale`` of the op or set-up it belongs to;
    ``scale=lambda sample: 1.0`` gives the raw wall times.
    """
    op_times = [op["s"] * scale(op) for p in passes for op in p["ops"]]
    tail_sample = [op["s"] * scale(op) for p in passes[:MIN_PASSES[workload]]
                   for op in p["ops"]]
    tail, pct, n = tail_percentile(tail_sample)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] * scale(s)
                                     for s in setups + passes),
        "pass_s": statistics.median(pass_seconds(p, scale) for p in passes),
        "op_p50_s": statistics.median(op_times),
        "op_tail_s": tail,
        "words_per_s": statistics.median(p["words"] / pass_seconds(p, scale)
                                         for p in passes),
        "cpu_s": statistics.median(sum(op["cpu_s"] * scale(op)
                                       for op in p["ops"]) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return metrics, pct, n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kunzlab" / "__init__.py").is_file():
        print(f"run.py: no kunzlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    env = environment(args.workload, args.seed, args.trace)
    try:
        setups, passes, traced = measure(args.workload, args.seed,
                                         args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = loadavg()

    measured = passes + ([traced] if traced else [])
    errors = [f"{op['op']}: {op['error']}" for p in measured
              for op in p["ops"] if op["error"] is not None]
    attempted = sum(len(p["ops"]) for p in measured)
    metrics, pct, n = end_to_end(setups, passes, args.workload)
    raw = end_to_end(setups, passes, args.workload, lambda sample: 1.0)[0]
    speed = metrics["pass_s"] / raw["pass_s"]
    print("env " + json.dumps(env))
    print(f"{args.workload}: seed {args.seed}, {len(passes)} passes, "
          f"{len(setups) + len(passes)} set-ups; times are raw wall times "
          f"(in brackets) x {speed:.3f}, the host speed factor")
    for name, unit in END_TO_END.items():
        note = f"  [raw {raw[name]:.6g}]" if raw[name] != metrics[name] else ""
        if name == "op_tail_s":
            beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
            note += f"  (p{pct:.1f} of n={n} ops, {beyond} beyond)"
        print(f"  {name:<14} {metrics[name]:.6g} {unit}{note}")

    if traced is not None:
        errors += traced["guard_errors"]
        attempted += traced["guards"]
        layers = dict(traced["layers"])
        traced_s = pass_seconds(traced, at_reference_speed)
        layers["trace.overhead_s"] = traced_s - metrics["pass_s"]
        print(f"traced pass {traced_s:.4f} s; spans in "
              f"{traced['spans_file']}")
        for name, unit in tracing.PER_LAYER.items():
            mark = "  (absent)" if name in traced["absent"] else ""
            print(f"  {name:<38} {layers[name]:.6g} {unit}{mark}")
        reported = {name: layers[name] for name in tracing.PER_LAYER}
        units = tracing.PER_LAYER
    else:
        reported, units = metrics, END_TO_END
    fail_ratio = len(errors) / attempted
    print(f"  fail_ratio     {fail_ratio:.6g} ({len(errors)}/{attempted})")
    for error in errors[:20]:
        print(f"  FAILED {error}")

    summary = {"correct": not errors, "attempted": attempted,
               "failed": len(errors),
               "metrics": {name: {"value": value, "unit": units[name]}
                           for name, value in reported.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    record = {"env": env, "summary": summary, "end_to_end": metrics,
              "end_to_end_raw": raw,
              "op_tail": {"percentile": pct, "samples": n},
              "fail_ratio": fail_ratio, "errors": errors,
              "setups": setups, "passes": passes, "traced": traced}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
