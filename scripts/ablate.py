#!/usr/bin/env python3
"""The paper's own mechanism against the router as built, on seeded churn.

    python3 scripts/ablate.py [--case scale|small ...]

Run it from the root of a source checkout; the router is imported from
`src/`. Each case serves one seeded churn trace twice, each time on a fresh
engine over the same graph and desk profile:

- `head`: the router as built, whose trees also meet through a free G3
  path of up to MEETING_RADIUS (four) edges, tested by a discovery's
  G3 ball of radius two against the other tree's zone, which reaches
  two hops too;
- `paper`: the paper's mechanism alone. The engine's outermost balls
  are replaced on the instance by one-vertex balls, and its oracles
  rebuilt with one-vertex reach rows (`paper_only`, which
  tests/test_router.py loads from here), so trees meet only at a shared
  vertex, picks prefer only heads in the other tree, and trees that
  meet nothing take the breadth-first connector. The G3 path search
  keeps the balls it was bound to at construction, which only prune
  its layers.

For each it prints oracle adds per served find, the mean and the longest
served path over log2 n (the run report's own figures), the connector searches (G3 searches with the
depth_cap hop budget), the meeting link searches (MEETING_RADIUS hops)
and the oracles' alternating-walk searches. All of these are counts: they
do not depend on the machine.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from expander_routing.expanders import gen_random_regular_graph  # noqa: E402
from expander_routing.harness import gen_workload, run_trace  # noqa: E402
from expander_routing.oracle import EdgeOracle  # noqa: E402
from expander_routing.profiles import desk_profile  # noqa: E402
from expander_routing.router import MEETING_RADIUS, RoutingEngine  # noqa: E402

# name: (n, d, churn ops, graph seed, trace seed); live target r/2 as in perfbench
CASES = {
    "scale": (9600, 31, 1500, 4, 4000),  # perfbench's `scale` workload, seed 4, first round
    "small": (600, 30, 1000, 11, 5),
}


def paper_only(engine):
    """The fresh `engine` with one-vertex outermost balls and oracles with one-vertex reach rows."""
    engine.out_balls = engine.in_balls = {MEETING_RADIUS // 2: [(v,) for v in range(engine.n)]}
    engine.out_oracle = EdgeOracle(engine.out_oracle.host, engine.profile.oracle)
    engine.in_oracle = EdgeOracle(engine.in_oracle.host, engine.profile.oracle)
    return engine


def serve(graph, profile, commands, mechanism):
    engine = RoutingEngine(graph, profile)
    if mechanism == "paper":
        paper_only(engine)
    hops = []
    for name in ("link_out", "link_in"):
        search = getattr(engine, name)
        setattr(engine, name, lambda *args, search=search: hops.append(args[-1]) or search(*args))
    report = run_trace(engine, commands)
    figures = report.figures()
    return {
        "served": figures["served_finds"],
        "failures": len(report.failures),
        **{key: figures[key] for key in ("adds_per_find", "mean_len_over_log2n", "max_len_over_log2n")},
        "connector_searches": hops.count(profile.depth_cap),
        "link_searches": hops.count(MEETING_RADIUS),
        "walk_searches": report.oracle_call_counts["walk_searches"],
    }


def run_case(name):
    """The case's profile, and its figures for each mechanism."""
    n, d, ops, graph_seed, trace_seed = CASES[name]
    profile = desk_profile(n, d)
    graph = gen_random_regular_graph(n, d, seed=graph_seed)
    commands = gen_workload("churn", n, {"ops": ops, "live_target": profile.r // 2},
                            trace_seed, profile.endpoint_cap, profile.r)
    return profile, {mechanism: serve(graph, profile, commands, mechanism) for mechanism in ("paper", "head")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--case", action="append", choices=sorted(CASES), help="default: every case")
    args = ap.parse_args(argv)
    for name in args.case or CASES:
        profile, rows = run_case(name)
        print("case %s: n=%d d=%d, %d churn ops, graph seed %d, trace seed %d, depth_cap %d"
              % ((name, profile.n, profile.d) + CASES[name][2:] + (profile.depth_cap,)))
        print("  %-20s %12s %12s" % ("", "paper", "head"))
        for key, value in rows["paper"].items():
            text = "%12d %12d" if isinstance(value, int) else "%12.2f %12.2f"
            print("  %-20s " % key + text % (value, rows["head"][key]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
