#!/usr/bin/env python3
"""Write one benchmark run's inputs: a graph file and one trace file per round.

Runs as a process of its own, so input generation never shows in the
benchmark's timings or in its peak memory.

    python3 perfbench/gen_inputs.py OUT_DIR N D GRAPH_SEED LIVE_TARGET OPS TRACE_SEED...

Writes OUT_DIR/graph.txt, OUT_DIR/trace<i>.txt for the i-th trace seed, and
OUT_DIR/meta.json with the seconds each `gen_workload` call took.
"""

import json
import os
import sys
import time

from expander_routing.expanders import gen_random_regular_graph
from expander_routing.graph import save_graph
from expander_routing.harness import gen_workload, save_trace
from expander_routing.profiles import desk_profile


def main(argv):
    out_dir = argv[0]
    n, d, graph_seed, live_target, ops, *trace_seeds = map(int, argv[1:])
    save_graph(os.path.join(out_dir, "graph.txt"), gen_random_regular_graph(n, d, seed=graph_seed))
    profile = desk_profile(n, d)
    gen_s = []
    for i, trace_seed in enumerate(trace_seeds):
        t0 = time.perf_counter()
        commands = gen_workload(
            "churn", n, {"ops": ops, "live_target": live_target},
            trace_seed, profile.endpoint_cap, profile.r,
        )
        gen_s.append(time.perf_counter() - t0)
        save_trace(os.path.join(out_dir, "trace%d.txt" % i), commands)
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="ascii") as fh:
        json.dump({"gen_workload_s": gen_s}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
