"""Command-line front end: counting, enumeration, reference tables, constant
brackets, distributions, homomorphism counts, bounds, figure data, and the
self-verification suite.

All result payloads go to stdout and are byte-identical for identical flags
(--threads included); timing metadata goes to stderr.  Exit codes: 0 on
success, 1 when a verification fails, 2 on usage errors, 141 (128 + SIGPIPE)
when stdout's reader closes the pipe early.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
import time
from fractions import Fraction
from itertools import chain

from . import bounds as bounds_mod
from . import enumeration as eng
from . import graphs as gr
from . import refdata
from . import stats as stats_mod
from .words import CountQuery


# the most rows `plot growth` prints; more are refused before any output
_GROWTH_ROWS_MAX = 100_000


def _add_query_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--f", type=int, help="Frobenius number")
    parser.add_argument("--m", type=int, help="multiplicity (word length + 1)")
    parser.add_argument("--ell", type=int, help="word length")
    parser.add_argument("--depth", type=int, help="exact depth filter")
    parser.add_argument("--depth-max", type=int, help="depth upper bound")
    parser.add_argument("--stressed", action="store_true",
                        help="only words whose last entry equals the depth")
    parser.add_argument("--med", action="store_true",
                        help="only maximal-embedding-dimension words")
    parser.add_argument("--contains", type=int, metavar="N",
                        help="only semigroups containing N")


def positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return int(text)


def _add_threads_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=positive_int, default=None,
                        help="accepted and checked to be positive, for "
                             "compatibility; every count and dist runs in "
                             "one process")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused:
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="kunzlab",
        description="Exact counting and verification for numerical "
                    "semigroups in Kunz-word form.")
    parser.add_argument("--ref-data", metavar="DIR", default=None,
                        help="directory holding table1.csv/table2.csv "
                             "(the KUNZLAB_REF_DATA variable wins over this)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count the words matching a query")
    p.set_defaults(run=_cmd_count)
    _add_query_flags(p)
    _add_threads_flag(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("enumerate", help="list the words matching a query")
    p.set_defaults(run=_cmd_enumerate)
    _add_query_flags(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("table", help="emit a shipped reference table as CSV")
    p.set_defaults(run=_cmd_table)
    p.add_argument("which", choices=("stressed3", "fm"))

    p = sub.add_parser("constants", help="emit a constant bracket as JSON")
    p.set_defaults(run=_cmd_constants)
    p.add_argument("--which", required=True,
                   choices=("c0", "c1", "mu0", "mu1", "gamma0", "gamma1"))
    p.add_argument("--j-cut", type=int, default=56,
                   help="series cutoff for the density constants")
    p.add_argument("--k-cut", type=int, default=8,
                   help="series cutoff for the mean constants")

    p = sub.add_parser("dist", help="emit an exact distribution as CSV")
    p.set_defaults(run=_cmd_dist)
    p.add_argument("which", choices=("mult", "genus"))
    p.add_argument("--f", type=int, required=True, help="Frobenius number")
    _add_threads_flag(p)

    p = sub.add_parser("hom", help="count graph homomorphisms")
    p.set_defaults(run=_cmd_hom)
    p.add_argument("--d", type=int, help="half-size of the bipartite pattern")
    p.add_argument("--q", type=int, required=True,
                   help="threshold-target label count")
    p.add_argument("--graph", metavar="FILE",
                   help="pattern graph file (see graph_from_text)")

    p = sub.add_parser("bounds", help="emit explicit bounds as JSON")
    p.set_defaults(run=_cmd_bounds)
    p.add_argument("--monotone", action="store_true",
                   help="check the growth-base monotonicity sweep")
    p.add_argument("--q-max", type=int, default=10_000)
    p.add_argument("--stressed", action="store_true",
                   help="stressed depth-3 upper bounds for --ell")
    p.add_argument("--ell", type=int)
    p.add_argument("--tail-width", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--f", type=int)
    p.add_argument("--q", type=int)

    p = sub.add_parser("plot", help="emit figure data as CSV")
    p.set_defaults(run=_cmd_plot)
    p.add_argument("which", choices=("growth", "table1-ratio", "fm-scatter"))
    p.add_argument("--m", type=int, help="fm-scatter: keep one multiplicity")
    p.add_argument("--x-max", type=float, default=6.0,
                   help="growth: right end of the x range")
    p.add_argument("--step", type=float, default=0.25,
                   help="growth: x increment")

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--suite", choices=("tables", "all"), default="all")

    return parser


def _build_query(args) -> CountQuery:
    length = None
    if args.m is not None:
        if args.m < 2:
            raise ValueError("--m must be at least 2")
        length = args.m - 1
    if args.ell is not None:
        if length is not None and length != args.ell:
            raise ValueError(f"--m {args.m} and --ell {args.ell} disagree")
        length = args.ell
    contains = () if args.contains is None else (args.contains,)
    query = CountQuery(frobenius=args.f, length=length,
                       depth_exact=args.depth, depth_max=args.depth_max,
                       stressed=args.stressed, med=args.med,
                       contains=contains)
    if not query.is_finite:
        raise ValueError("the query selects infinitely many words; "
                         "give --f, or a length with a depth bound")
    return query


def _query_echo(query: CountQuery) -> dict:
    echo = {}
    for field in dataclasses.fields(query):
        value = getattr(query, field.name)
        if value is None or value is False or value == ():
            continue
        echo[field.name] = list(value) if isinstance(value, tuple) else value
    return echo


def _exact_fields(**values: Fraction | int) -> dict:
    """``{name}_num`` and ``{name}_den`` of each exact value, in order."""
    fields = {}
    for name, value in values.items():
        frac = Fraction(value)
        fields[f"{name}_num"] = frac.numerator
        fields[f"{name}_den"] = frac.denominator
    return fields


def _emit_json(payload: dict, out) -> None:
    print(json.dumps(payload), file=out)


def _cmd_count(args, out, err) -> int:
    query = _build_query(args)
    count = eng.count_words(query)
    if args.format == "csv":
        print("count", file=out)
        print(count, file=out)
    else:
        _emit_json({"query": _query_echo(query), "count": count}, out)
    return 0


# the bytes 0..9: a block of bytes keys holding no other byte is printed
# from one translation of its bytes into ASCII digits
_SMALL = bytes(range(10))
_DIGITS = bytes.maketrans(_SMALL, b"0123456789")


def _block_text(block, sep: str, cut: str) -> str:
    """A non-empty block's words, with ``sep`` between the entries of a word
    and ``cut`` between words.

    A block of bytes keys whose entries are all at most 9 is joined with
    the byte 0 between words, translated to digits (0 to "0"), spaced by
    ``sep`` (slice assignments into one ``bytearray``: C loops that make no
    string per character) and cut at each "0"; no word holds a 0.  Any
    other block goes through ``json.dumps``.
    """
    if isinstance(block[0], bytes):
        raw = b"\0".join(block)
        # no entry above 9: deleting the bytes 0..9 leaves nothing, a C
        # loop where max(raw) would make an int of every byte
        if not raw.translate(None, _SMALL):
            digits = raw.translate(_DIGITS)
            gap = sep.encode("ascii")
            step, n = len(gap) + 1, len(digits)
            spaced = bytearray(step * n - len(gap))
            spaced[::step] = digits
            for i, byte in enumerate(gap, 1):
                spaced[i::step] = bytes((byte,)) * (n - 1)
            return spaced.decode("ascii").replace(f"{sep}0{sep}", cut)
    # "[[1, 2], [2, 1]]" -> "1, 2], [2, 1" -> "1,2\n2,1" for CSV
    text = json.dumps(list(map(list, block)))[2:-2]
    return text.replace("], [", cut).replace(", ", sep)


def _cmd_enumerate(args, out, err) -> int:
    """Stream the words one merged block at a time, with the bytes of one
    ``json.dumps`` of the whole payload (or of one CSV row per word).

    The blocks come from :func:`kunzlab.enumeration._word_blocks`, whose
    buffers hold one 4096-word batch in all, and are encoded whole by
    :func:`_block_text`.
    """
    query = _build_query(args)
    blocks = eng._word_blocks(query)
    # the first block is taken before any output, so an error leaves none
    blocks = filter(None, chain([next(blocks, [])], blocks))
    if args.format == "csv":
        for block in blocks:
            out.write(_block_text(block, ",", "\n") + "\n")
        return 0
    # the payload with no words, up to the open bracket of its word list
    out.write(json.dumps({"query": _query_echo(query), "words": []})[:-2])
    sep = ""
    for block in blocks:
        out.write(f"{sep}[{_block_text(block, ', ', '], [')}]")
        sep = ", "
    out.write("]}\n")
    return 0


def _cmd_table(args, out, err) -> int:
    if args.which == "stressed3":
        rows = refdata.load_table1(args.ref_data)
        print("ell,count", file=out)
        for ell in sorted(rows):
            print(f"{ell},{rows[ell]}", file=out)
    else:
        rows = refdata.load_table2(args.ref_data)
        print("f,m,count", file=out)
        for f, m in sorted(rows):
            print(f"{f},{m},{rows[f, m]}", file=out)
    return 0


def _cmd_constants(args, out, err) -> int:
    table1 = refdata.load_table1(args.ref_data)
    parity = "even" if args.which in ("c0", "mu0", "gamma0") else "odd"
    bracket = stats_mod.backelin_bracket(parity, j_cut=args.j_cut,
                                         table1=table1)
    if args.which in ("mu0", "mu1", "gamma0", "gamma1"):
        bracket = stats_mod.mu_gamma_partial(args.which, args.k_cut, bracket)
    decimal_lower, decimal_upper = bracket.decimal(4)
    _emit_json({**_exact_fields(lower=bracket.lower, upper=bracket.upper),
                "decimal_lower": decimal_lower,
                "decimal_upper": decimal_upper}, out)
    return 0


def _cmd_dist(args, out, err) -> int:
    if args.f < 3:
        raise ValueError("--f must be at least 3")
    if args.which == "mult":
        dist = stats_mod.mult_distribution(args.f)
    else:
        dist = stats_mod.Distribution.from_counts(
            eng.genus_histogram(CountQuery(frobenius=args.f)))
    total = dist.total
    print("key,count,probability_num,probability_den", file=out)
    for key, count in dist.pairs:
        prob = Fraction(count, total)
        print(f"{key},{count},{prob.numerator},{prob.denominator}", file=out)
    return 0


def _cmd_hom(args, out, err) -> int:
    if (args.d is None) == (args.graph is None):
        raise ValueError("give exactly one of --d or --graph")
    if args.q < 1:
        raise ValueError("--q must be positive")
    if args.d is not None:
        if args.d < 1:
            raise ValueError("--d must be positive")
        count = gr.hom_kdd(args.d, args.q)
        _emit_json({"d": args.d, "q": args.q, "count": count}, out)
        return 0
    with open(args.graph, encoding="utf-8") as handle:
        # hom_count's guard, checked before one set per vertex is built
        graph = gr.graph_from_text(handle.read(), max_vertices=12)
    count = gr.hom_count(graph, gr.threshold_target(args.q))
    _emit_json({"vertices": graph.vertex_count, "q": args.q,
                "count": count}, out)
    return 0


def _cmd_bounds(args, out, err) -> int:
    if args.monotone:
        report = bounds_mod.check_c_monotone(q_max=args.q_max)
        _emit_json({"q_max": args.q_max, "ok": report.ok,
                    "violation": report.violation}, out)
        return 0 if report.ok else 1
    if args.stressed:
        if args.ell is None:
            raise ValueError("--stressed needs --ell")
        naive, refined = bounds_mod.stressed3_upper_bounds(args.ell)
        _emit_json({"ell": args.ell,
                    **_exact_fields(naive=naive, refined=refined)}, out)
        return 0
    if args.tail_width is not None:
        if args.ell is None or args.depth is None:
            raise ValueError("--tail-width needs --ell and --depth")
        bound = bounds_mod.tail_heavy_bound(args.ell, args.tail_width,
                                            args.depth)
        _emit_json({"ell": args.ell, "tail_width": args.tail_width,
                    "depth": args.depth, **_exact_fields(lower=bound)}, out)
        return 0
    if args.f is not None and args.q is not None:
        generic = bounds_mod.generic_bounds(args.f, args.q)
        _emit_json({"f": args.f, "q": args.q, **_exact_fields(
            depth_power=generic.depth_power,
            frobenius_power=generic.frobenius_power)}, out)
        return 0
    raise ValueError("give --monotone, --stressed --ell, "
                     "--tail-width --ell --depth, or --f --q")


def _cmd_plot(args, out, err) -> int:
    if args.which == "growth":
        if args.x_max < 1.0 or args.step <= 0.0:
            raise ValueError("--x-max must be >= 1 and --step positive")
        # the rows are x = 1 + k*step for k = 0, 1, ... until x > x_max + 1e-9;
        # x grows with k, so count down from a guess at or above the rows
        limit = args.x_max + 1e-9
        guess = (limit - 1.0) / args.step
        if not guess < _GROWTH_ROWS_MAX:  # also an overflow to inf, or nan
            raise ValueError(
                f"plot growth prints at most {_GROWTH_ROWS_MAX} rows")
        rows = int(guess) + 2
        while 1.0 + (rows - 1) * args.step > limit:
            rows -= 1
        lines = ["x,y"]
        for k in range(rows):
            x = 1.0 + k * args.step
            lines.append(f"{x:.4f},{bounds_mod.growth_rate(x):.6f}")
        print("\n".join(lines), file=out)
        return 0
    if args.which == "table1-ratio":
        rows = refdata.load_table1(args.ref_data)
        print("ell,ratio", file=out)
        for ell in sorted(rows):
            ratio = rows[ell] / 6.0 ** (ell / 2.0)
            print(f"{ell},{ratio:.6f}", file=out)
        return 0
    rows = refdata.load_table2(args.ref_data)
    print("m,f,x,y", file=out)
    for f, m in sorted(rows, key=lambda cell: (cell[1], cell[0])):
        if args.m is not None and m != args.m:
            continue
        count = rows[f, m]
        x = f / m
        y = count ** (1.0 / m) if count else 0.0
        print(f"{m},{f},{x:.6f},{y:.6f}", file=out)
    return 0


def _cmd_verify(args, out, err) -> int:
    from . import verify as verify_mod
    return 0 if verify_mod.run_suite(args.suite, out=out, err=err) else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out, err = sys.stdout, sys.stderr
    start = time.perf_counter()
    try:
        code = args.run(args, out, err)
        # a reader that has gone shows here, not at the interpreter's exit
        out.flush()
    except BrokenPipeError:
        # stdout's reader left early (`... | head`): no usage error and
        # nothing to report; closing stdout drops what is still buffered for
        # it, so the exit flush has nothing left to fail on
        with contextlib.suppress(OSError):
            out.close()
        return 141
    except (ValueError, OSError, OverflowError) as exc:
        # a usage error is a ValueError; an overflow comes from a flag too
        # large to compute with
        print(f"kunzlab: {exc}", file=err)
        return 2
    except ArithmeticError as exc:
        print(f"kunzlab: verification failure: {exc}", file=err)
        return 1
    elapsed = time.perf_counter() - start
    print(f"elapsed={elapsed:.3f}s", file=err)
    return code


if __name__ == "__main__":
    sys.exit(main())
