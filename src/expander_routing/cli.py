"""`route` command line: drive the whole pipeline from graph files and traces."""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from .errors import RoutingError
from .expanders import (
    check_expansion_exhaustive,
    estimate_second_eigenvalue,
    gen_random_regular_graph,
)
from .graph import UndirectedGraph, format_graph, load_graph, save_graph
from .harness import format_trace, gen_workload, load_trace, run_trace
from .preprocess import check_profile, pre_process
from .profiles import derive_profile, desk_profile, format_profile, load_profile, profile_items
from .router import RoutingEngine


def _write_out(path, text):
    """Write text to the --out file, or to stdout for -."""
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _write_json(path, report):
    """Write a report dataclass to the --json file, if one was given; returns it as a dict."""
    payload = asdict(report)
    if path:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return payload


def _ratio(text):
    """argparse type of a ratio option: a bad value is a usage error (exit 2)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a ratio: %r" % text) from None


def _at_least(least):
    """argparse type of an int option: a value below `least` is a usage error (exit 2)."""

    def integer(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (least, value))
        return value

    return integer


def _open_unit(text):
    """argparse type of --tol: a ratio outside (0, 1) is a usage error (exit 2)."""
    value = _ratio(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError("must lie in (0, 1), got %s" % text)
    return float(value)


def _add_profile_options(parser):
    """--profile FILE or --desk, the router profile `_graph_and_profile` reads;
    both at once is a usage error (exit 2)."""
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--profile")
    source.add_argument("--desk", action="store_true", help="use the tuned desk-scale profile")


def _graph_and_profile(args):
    """The undirected graph at --graph and its router profile from --profile or
    --desk; a directed graph, a profile for another (n, d) or more than one
    input read from standard input is a usage error."""
    stdin = [("" if key == "graph" and args.command == "preprocess" else "--") + key
             for key in ("graph", "profile", "trace") if getattr(args, key, None) == "-"]
    if len(stdin) > 1:
        raise RoutingError("only one input may be - (standard input), got %s" % ", ".join(stdin))
    g = load_graph(args.graph)
    if not isinstance(g, UndirectedGraph):
        raise RoutingError("%s expects an undirected graph file" % args.command)
    if args.profile:
        profile = load_profile(args.profile)
    elif args.desk:
        d = g.regularity()
        if d is None:
            raise RoutingError("--desk needs a regular graph")
        profile = desk_profile(g.n, d)
    else:
        raise RoutingError("pass --profile FILE or --desk")
    check_profile(g, profile)
    return g, profile


def cmd_run(args):
    # build seconds: graph load and engine build, not the trace load between
    start = time.perf_counter()
    g, profile = _graph_and_profile(args)
    build_s = time.perf_counter() - start
    commands = load_trace(args.trace)
    start = time.perf_counter()
    engine = RoutingEngine(g, profile)
    build_s += time.perf_counter() - start
    emit = None if args.quiet else lambda line: print(line)
    report = run_trace(
        engine,
        commands,
        verify_every=args.verify_every,
        stop_on_failure=args.stop_on_failure,
        emit=emit,
    )
    report.build_s = build_s
    report.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    _write_json(args.json, report)
    print(report.format_text(), end="")
    return 0 if report.clean else 1


def cmd_gen_workload(args):
    # fill is sized by --count, churn and hotspot by --ops
    need, refused = ("count", ("ops", "live_target")) if args.kind == "fill" else ("ops", ("count",))
    if getattr(args, need) is None:
        raise RoutingError("--kind %s needs --%s" % (args.kind, need))
    given = ["--" + key.replace("_", "-") for key in refused if getattr(args, key) is not None]
    if given:
        raise RoutingError("--kind %s takes no %s" % (args.kind, ", ".join(given)))
    g, profile = _graph_and_profile(args)
    sizes = ("ops", "count", "live_target")
    params = {key: getattr(args, key) for key in sizes if getattr(args, key) is not None}
    commands = gen_workload(
        args.kind, g.n, params, args.seed, profile.endpoint_cap, profile.r
    )
    _write_out(args.out, format_trace(commands))
    return 0


def cmd_preprocess(args):
    g, profile = _graph_and_profile(args)
    split = pre_process(g, profile)
    prefix = args.outprefix
    for part in ("host", "g1", "g2", "g3"):
        save_graph("%s.%s" % (prefix, part), getattr(split, part))
    with open(prefix + ".header", "w", encoding="ascii") as fh:
        fh.write("n=%d\nd=%d\nk=%d\nd_prime=%d\n" % (profile.n, profile.d, profile.k, profile.d_prime))
    print("wrote %s.{host,g1,g2,g3,header}" % prefix)
    return 0


def cmd_gen(args):
    g = gen_random_regular_graph(args.n, args.d, args.seed)
    _write_out(args.out, format_graph(g))
    return 0


def cmd_check_expansion(args):
    g = load_graph(args.graph)
    report = check_expansion_exhaustive(g, args.beta, args.gamma, args.max_subset_size)
    print(json.dumps(_write_json(args.json, report), sort_keys=True))
    return 0 if report.holds else 1


def cmd_spectrum(args):
    g = load_graph(args.graph)
    if not isinstance(g, UndirectedGraph):
        raise RoutingError("spectrum expects an undirected graph file")
    report = estimate_second_eigenvalue(g, max_iters=args.max_iters, tol=args.tol)
    print(json.dumps(_write_json(args.json, report), sort_keys=True))
    return 0 if report.converged else 1


def cmd_profile(args):
    # --beta, --gamma and --relaxed are attributes only when given
    given = [opt for opt in ("beta", "gamma", "relaxed") if opt in vars(args)]
    if args.desk:
        if given:
            raise RoutingError("--desk takes no %s" % ", ".join("--" + opt for opt in given))
        profile = desk_profile(args.n, args.d)
    else:
        relaxed = "relaxed" in given
        beta, gamma = getattr(args, "beta", "1/100"), getattr(args, "gamma", "1/2000")
        profile = derive_profile(args.n, args.d, beta, gamma, relaxed=relaxed)
        values = dict(profile_items(profile))
        caps = ("r", "oracle_out_cap", "oracle_in_cap")
        zero = [key for key in caps if values[key] == 0]
        if relaxed and zero:
            raise RoutingError("relaxed profile cannot route (%s = 0); use --desk instead" % ", ".join(zero))
        if zero:
            # strict constants are written as derived, routable or not
            hit = "; every find will hit the volume cap r=0" if profile.r == 0 else ""
            print("warning: strict profile cannot route (%s = 0)%s; use --desk for one that can"
                  % (", ".join(zero), hit), file=sys.stderr)
    _write_out(args.out, format_profile(profile))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="route", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a trace against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--trace", required=True, help="trace file or - for stdin")
    _add_profile_options(p)
    p.add_argument("--verify-every", type=_at_least(0), default=0, metavar="K")
    p.add_argument("--stop-on-failure", action="store_true")
    p.add_argument("--json", help="write the report as JSON here")
    p.add_argument("--quiet", action="store_true", help="suppress per-path output")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("gen-workload", help="generate a rule-respecting trace")
    p.add_argument("--graph", required=True)
    _add_profile_options(p)
    p.add_argument("--kind", required=True, choices=["churn", "fill", "hotspot"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ops", type=_at_least(0), help="churn and hotspot: commands to write")
    p.add_argument("--count", type=_at_least(0), help="fill: finds to write")
    p.add_argument("--live-target", type=_at_least(0), help="churn and hotspot: live paths to hold")
    p.add_argument("--out", required=True, help="output file or -")
    p.set_defaults(func=cmd_gen_workload)

    p = sub.add_parser("preprocess", help="orient and split an undirected expander")
    p.add_argument("graph")
    p.add_argument("outprefix")
    _add_profile_options(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("gen", help="generate a random regular graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output file or -")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check-expansion", help="exhaustive small-subset density check")
    p.add_argument("--graph", required=True)
    p.add_argument("--beta", type=_ratio, required=True)
    p.add_argument("--gamma", type=_ratio, required=True)
    p.add_argument("--max-subset-size", type=int, required=True)
    p.add_argument("--json")
    p.set_defaults(func=cmd_check_expansion)

    p = sub.add_parser("spectrum", help="estimate the second adjacency eigenvalue")
    p.add_argument("--graph", required=True)
    p.add_argument("--max-iters", type=_at_least(1), default=20000)
    p.add_argument("--tol", type=_open_unit, default=1e-9)
    p.add_argument("--json")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("profile", help="derive a constants profile")
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta", type=_ratio, default=argparse.SUPPRESS, help="default 1/100")
    p.add_argument("--gamma", type=_ratio, default=argparse.SUPPRESS, help="default 1/2000")
    p.add_argument("--relaxed", action="store_true", default=argparse.SUPPRESS)
    p.add_argument("--desk", action="store_true")
    p.add_argument("--out", required=True, help="output file or -")
    p.set_defaults(func=cmd_profile)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RoutingError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
