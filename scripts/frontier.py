#!/usr/bin/env python3
"""Fill frontiers: how many live paths the router holds before a find fails.

    python3 scripts/frontier.py [--cell N D SEED ...]

Run it from the root of a source checkout; the router is imported from
`src/`. Each cell builds the desk profile for (n, d) with the volume cap
r raised to n, so that only the router bounds the fill, and serves
random legal pairs on a fresh engine over the graph of the same seed
until the first find fails. Pairs come from `random.Random(seed)`: a
uniform (a, b), redrawn while the game rules refuse it.

For each cell it prints the live paths at the first failure, their ratio
to n·d / log2 n (the paper's volume bound, without its constant), the
mean and the longest live path, in hops and over log2 n, oracle adds per
served find and the first failure's message. All of these are counts or
follow from them: they do not depend on the machine.
"""

import argparse
import math
import os
import random
import sys
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from expander_routing.errors import ExpansionViolation  # noqa: E402
from expander_routing.expanders import gen_random_regular_graph  # noqa: E402
from expander_routing.profiles import desk_profile  # noqa: E402
from expander_routing.router import RoutingEngine  # noqa: E402

# (n, d, seed): the four cells ROADMAP item 2 tracks
CELLS = ((1200, 30, 1), (1200, 30, 2), (2400, 30, 1), (2400, 31, 2))


def fill(n, d, seed):
    """Serve random legal pairs until the first failed find; its figures."""
    profile = replace(desk_profile(n, d), r=n)
    engine = RoutingEngine(gen_random_regular_graph(n, d, seed=seed), profile)
    rng = random.Random(seed)
    failure = None
    while failure is None:
        for _ in range(100 * n):
            a, b = rng.randrange(n), rng.randrange(n)
            if not engine.ledger.violation(a, b):
                break
        else:
            failure = "no legal pair left after %d draws" % (100 * n)
            break
        try:
            engine.find_path(a, b)
        except ExpansionViolation as exc:
            failure = str(exc)
    lengths = [rec.length for rec in engine.ledger.paths.values()]
    live = len(lengths)
    counts = engine.oracle_call_counts()
    return {
        "live": live,
        "live_over_volume": live / (n * d / math.log2(n)),
        "mean_len": sum(lengths) / live if live else 0.0,
        "max_len": max(lengths, default=0),
        "adds_per_find": (counts["out_add"] + counts["in_add"]) / live if live else 0.0,
        "first_failure": failure,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cell", nargs=3, type=int, action="append", metavar=("N", "D", "SEED"),
                    help="default: every cell of %s" % (CELLS,))
    args = ap.parse_args(argv)
    for n, d, seed in args.cell or CELLS:
        row, log_n = fill(n, d, seed), math.log2(n)
        print("fill n=%d d=%d seed=%d: %d live paths, %.3f of n*d/log2 n; length mean %.2f hops (%.3f log2 n),"
              " max %d (%.3f log2 n); %.2f adds per find; first failure: %s"
              % (n, d, seed, row["live"], row["live_over_volume"], row["mean_len"], row["mean_len"] / log_n,
                 row["max_len"], row["max_len"] / log_n, row["adds_per_find"], row["first_failure"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
