#!/usr/bin/env python3
"""Benchmark of the online router: scale, audit and overload workloads.

    python3 perfbench/run.py --workload scale|audit|overload --seed N \\
        --seconds S --trace 0|1 [--record-digests]

Run it from the root of a source checkout; the router is imported from
`src/`. One run is one workload in one single-threaded process, driven
closed-loop by one client: each request is sent when the previous one has
been answered, as in the paper's game. The seed makes the graph
(`expanders.gen_random_regular_graph`) and one churn trace per round
(`harness.gen_workload`); a child process writes them to files, outside
every timed window. Each round builds a fresh engine, timing
`graph.load_graph` plus `RoutingEngine(...)` as set-up, then serves its
trace through `find_path` / `remove_path` one call at a time, with timed
`verify()` calls beside it, as `route run` does. Rounds repeat until
--seconds have passed; an untraced run serves at least three, so that
set-up has a median.

A shared host changes this process's speed by up to 1.6x, for seconds
or minutes at a time, and the program slows with it. So every end-to-end
time is given at a fixed reference speed: every PROBE_EVERY seconds a
SIGALRM handler runs a fixed piece of dict/set/list work (probe()) between
two bytecodes of whatever is running, the probes' own time is taken out
of every timed interval, and each interval is scaled by P_REF over the
median probe time around it. Over 90 s on a 2-vCPU VM, medians of 15
timings of a fixed `verify()` at n=9600 ranged over 0.66-1.25x of their
median; scaled this way they ranged over 0.91-1.08x. A probe that reads a
large dict tracked it worse (0.87-1.15x). Each end-to-end time is then the
median over rounds of that round's figure, so that a stretch the probe
misses moves one round, not the result. Per-layer seconds (--trace 1)
are wall seconds, probes included.

With --trace 0 the last line holds the end-to-end metrics. With --trace 1
each round is served twice, plain and then traced (see tracing.py), and
the last line holds the per-layer metrics plus the tracing overhead. After
each round the PATH/FAIL lines that `route run` would print are hashed
(sha256) and compared with perfbench/digests.json, keyed by workload, seed
and round; --record-digests stores them there instead.

`overload` is not in BENCHMARK.json. Most of its rounds collapse: after
a seed-dependent first failure (op ~290 to 820; a few rounds see none in
1000 ops) every find fails, at ~0.35 s each. A round stops after
COLLAPSE_STREAK failed finds in a row and its unsent requests count as
failed. Its throughput, served share and find tail therefore differ by
25-57% between seeds, more than any bound the benchmark may set, and it
fails requests by design. The same collapse reaches `scale` on long
traces: at 2400 requests a round, seed 8's third round failed from op
2349 on (one of 60 rounds over seeds 1-20); `scale` serves 1500.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

# A round stops once this many finds in a row have failed; its unsent
# requests count as failed.
COLLAPSE_STREAK = 10
MIN_ROUNDS = 3       # rounds of an untraced run at least, so that set-up has a median
PROBE_EVERY = 0.05   # seconds between probes
PROBE_SIZE = 3000    # about 1 ms of work
P_REF = 1.0e-3       # seconds one probe takes at the reference speed
SPEED_SPAN = 2       # probes on each side of an interval that give its speed
TAIL_LADDER = (99.9, 99, 98, 95, 90, 80, 75, 50)


@dataclass(frozen=True)
class Workload:
    n: int
    d: int
    ops: int             # requests per round
    live: str            # churn live_target: "half" = r/2, "r-6" = r - 6
    verify_every: int    # requests between timed verify() calls
    round_s: float       # wall seconds of one round, set-up included, on a 2-vCPU VM;
                         # sizes the inputs made ahead of the run
    tail_caps: tuple     # tail percentile for (find, remove, verify), taken per round;
                         # a full round leaves at least ten samples beyond it


WORKLOADS = {
    # largest ROADMAP graph; odd d forces the blossom matching into set-up
    "scale": Workload(9600, 31, 1500, "half", 25, 14.0, (95, 95, 75)),
    # buffering under load at r - 6; most rounds collapse (not gated, see above)
    "overload": Workload(4800, 30, 1000, "r-6", 25, 5.0, (99, 95, 80)),
    # small working set, verify() after every request
    "audit": Workload(600, 30, 1000, "half", 1, 3.6, (95, 95, 98)),
}


if not os.path.isfile(os.path.join(SRC, "expander_routing", "router.py")):
    sys.exit("perfbench: no router source under %s; run from the root of a checkout" % SRC)
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

from expander_routing.errors import CallerError, ExpansionViolation  # noqa: E402
from expander_routing.graph import load_graph  # noqa: E402
from expander_routing.harness import parse_trace, resolve_ref  # noqa: E402
from expander_routing.profiles import desk_profile  # noqa: E402
from expander_routing.router import PathRecord, RoutingEngine  # noqa: E402

import tracing  # noqa: E402


# --- one round ----------------------------------------------------------------


@dataclass
class Round:
    requests: int                                 # commands in the trace
    setup_s: float = 0.0
    setup_windows: tuple = (0, 0)                 # probe windows at its start and end
    # (kind, seconds, served, window) of every find, remove and verify, in
    # order; after at_reference_speed(), (kind, seconds, served)
    samples: list = field(default_factory=list)
    served: int = 0
    failed_expansion: int = 0
    failed_caller: int = 0
    unsent: int = 0
    first_fail_op: int = 0                        # 1-based; 0 = none
    verify_findings: int = 0
    path_lens: list = field(default_factory=list)
    connector_lens: list = field(default_factory=list)
    tree_lens: list = field(default_factory=list)
    kept: dict = field(default_factory=lambda: {"out": 0, "in": 0})
    digest: str = ""

    @property
    def failed(self):
        return self.failed_expansion + self.failed_caller + self.unsent

    def times(self, kind):
        return [s for k, s, _ in self.samples if k == kind]


def probe():
    """Time a fixed piece of dict, set and list work, the kind the router does."""
    t0 = time.perf_counter()
    d, s, xs = {}, set(), []
    for i in range(PROBE_SIZE):
        d[i] = i
        s.add(i * 7 % 1001)
        xs.append(d.get(i - 3, 0))
    for i in range(0, PROBE_SIZE, 2):
        del d[i]
    return time.perf_counter() - t0


class Clock:
    """Wall time without the probes, and the probes' record of the host's speed.

    While open, a SIGALRM handler runs probe() every PROBE_EVERY seconds,
    between two bytecodes of whatever the process is doing. Probe window w
    is the time between probe w-1 and probe w.
    """

    def __init__(self):
        self.probes = []   # seconds each probe took, in order
        self.spent = 0.0   # their sum
        self._busy = False

    def _tick(self, *_):
        if self._busy:     # a stall longer than PROBE_EVERY inside a probe
            return
        self._busy = True
        p = probe()
        self.probes.append(p)
        self.spent += p
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def now(self):
        """(seconds, not counting probes; the current probe window)."""
        while True:
            spent, window = self.spent, len(self.probes)
            t = time.perf_counter()
            if spent == self.spent:  # no probe ran in between
                return t - spent, window

    def speed(self, w0, w1):
        """Median probe time around windows w0 to w1."""
        return statistics.median(self.probes[max(0, w0 - SPEED_SPAN): w1 + SPEED_SPAN])


def at_reference_speed(clock, rounds):
    """Scale each round's set-up and samples to the reference speed."""
    speeds = {}
    for r in rounds:
        r.setup_s *= P_REF / clock.speed(*r.setup_windows)
        for w in {w for _, _, _, w in r.samples} - speeds.keys():
            speeds[w] = clock.speed(w, w)
        r.samples = [(k, s * P_REF / speeds[w], ok) for k, s, ok, w in r.samples]


def timed_verify(engine, rnd, clock):
    t0, w = clock.now()
    report = engine.verify()
    rnd.samples.append(("verify", clock.now()[0] - t0, True, w))
    rnd.verify_findings += len(report.findings)


def serve(engine, commands, wl, rnd, clock, after_request=None):
    """Serve the trace one request at a time; returns (command, outcome) pairs."""
    outcomes = []
    streak = 0
    for i, cmd in enumerate(commands, start=1):
        is_find = cmd.kind == "find"
        path_id = None if is_find else resolve_ref(engine, cmd.ref)
        t0, w = clock.now()
        try:
            if is_find:
                out = engine.find_path(cmd.a, cmd.b)
            else:
                engine.remove_path(path_id)
                out = None
            dt = clock.now()[0] - t0
        except (CallerError, ExpansionViolation) as exc:
            dt = clock.now()[0] - t0
            out = exc
        rnd.samples.append(("find" if is_find else "remove", dt, not isinstance(out, Exception), w))
        outcomes.append((cmd, out))
        if isinstance(out, Exception):
            if isinstance(out, CallerError):
                rnd.failed_caller += 1
            else:
                rnd.failed_expansion += 1
            rnd.first_fail_op = rnd.first_fail_op or i
            streak += is_find
        else:
            rnd.served += 1
            if is_find:
                streak = 0
        if after_request is not None:
            after_request(engine)
        if i % wl.verify_every == 0:
            timed_verify(engine, rnd, clock)
        if streak >= COLLAPSE_STREAK:
            rnd.unsent = len(commands) - i
            break
    timed_verify(engine, rnd, clock)
    return outcomes


def check_outputs(engine, outcomes, rnd):
    """Rebuild `route run`'s PATH/FAIL lines, check each path, hash the lines."""
    lines = []
    for cmd, out in outcomes:
        if isinstance(out, PathRecord):
            verts = engine.path_vertices(out)
            if verts[0] != cmd.a or verts[-1] != cmd.b:
                rnd.verify_findings += 1
            lines.append(
                "PATH %d %d %d %d : %s" % (out.id, out.a, out.b, out.length, " ".join(map(str, verts)))
            )
            rnd.path_lens.append(out.length)
            rnd.connector_lens.append(len(out.seg_mid))
            rnd.tree_lens.extend((len(out.seg_a), len(out.seg_b)))
            rnd.kept["out"] += len(out.seg_a)
            rnd.kept["in"] += len(out.seg_b)
        elif isinstance(out, Exception):
            cls = "caller-error" if isinstance(out, CallerError) else "expansion-violation"
            lines.append("FAIL line %d [%s] %s" % (cmd.line, cls, out))
    rnd.digest = hashlib.sha256(("\n".join(lines) + "\n").encode("ascii")).hexdigest()


def play(graph_path, profile, commands, wl, clock, tracer=None):
    """One round on a fresh engine; with a tracer, every layer is spanned."""
    gc.collect()
    rnd = Round(requests=len(commands))
    with tracer.setup_spans() if tracer else contextlib.nullcontext():
        t0, w0 = clock.now()
        g = load_graph(graph_path)
        loaded = clock.now()[0]
        engine = RoutingEngine(g, profile)
        t1, w1 = clock.now()
        rnd.setup_s, rnd.setup_windows = t1 - t0, (w0, w1)
    if tracer is None:
        outcomes = serve(engine, commands, wl, rnd, clock)
    else:
        tracer.total["graph.load"] += loaded - t0
        tracer.instrument(engine)
        outcomes = serve(engine, commands, wl, rnd, clock, after_request=tracer.sample)
        for side, oracle in (("out", engine.out_oracle), ("in", engine.in_oracle)):
            tracer.calls["oracle.%s.low_additions" % side] += oracle.low_additions
    check_outputs(engine, outcomes, rnd)
    return rnd


# --- metrics -------------------------------------------------------------------


def pct(sorted_xs, p):
    """Nearest-rank percentile."""
    return sorted_xs[max(0, math.ceil(p / 100 * len(sorted_xs)) - 1)]


def ten_beyond(n, p):
    """Whether n samples leave at least ten beyond percentile p."""
    return n - math.ceil(p / 100 * n) >= 10


def tail(xs, cap):
    """Highest ladder percentile (at most cap) with at least ten samples beyond it."""
    xs = sorted(xs)
    for p in TAIL_LADDER:
        if p <= cap and ten_beyond(len(xs), p):
            return p, pct(xs, p)
    return 100.0, xs[-1]


def req_per_s(rounds):
    """Served requests per second of request time."""
    served = secs = 0.0
    for r in rounds:
        for kind, s, ok in r.samples:
            if kind != "verify":
                served += ok
                secs += s
    return served / secs if secs else 0.0


def end_to_end(rounds, wl):
    """Each timing is the median over rounds of that round's figure, so that
    a stretch of host noise moves one round, not the result."""
    lens = [x for r in rounds for x in r.path_lens]
    metrics = {
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
        "req_per_s": (statistics.median(req_per_s([r]) for r in rounds), "1/s"),
        "served_frac": (sum(r.served for r in rounds) / sum(r.requests for r in rounds), "frac"),
        "path_len_mean": (statistics.fmean(lens), "hops"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = []
    for kind, cap in zip(("find", "remove", "verify"), wl.tail_caps):
        per_round = [sorted(r.times(kind)) for r in rounds]
        tails = [tail(xs, cap) for xs in per_round]
        metrics[kind + "_p50_ms"] = (statistics.median(pct(xs, 50) for xs in per_round) * 1e3, "ms")
        metrics[kind + "_tail_ms"] = (statistics.median(v for _, v in tails) * 1e3, "ms")
        notes.append("%s_p50_ms and %s_tail_ms (p%g) from rounds of %d to %d samples, %d in all"
                     % (kind, kind, min(p for p, _ in tails), min(map(len, per_round)),
                        max(map(len, per_round)), sum(map(len, per_round))))
    # Printed, not reported: a remove is a few oracle edge removals, 13 us
    # at n=600 and 45 us at n=9600, bound by cache misses that the probe
    # does not see. Its p50 moved by 25% between runs of one seed (its tail
    # by 28% over ten seeds), more than the largest bound a metric may have.
    for name in ("remove_p50_ms", "remove_tail_ms"):
        value, unit = metrics.pop(name)
        notes.append("%s = %.6g %s (not in BENCHMARK.json)" % (name, value, unit))
    return metrics, notes


# Per-layer metric -> (end-to-end metric it should move, workload that shows it).
LAYER_MAP = [
    ("graph.", "setup_s", "scale"),
    ("matching.", "setup_s", "scale"),
    ("preprocess.", "setup_s", "scale"),
    (".release_s", "remove_p50_ms", "scale"),
    (".audit_s", "verify_p50_ms", "audit"),
    (".walk", "req_per_s, find_tail_ms, served_frac", "overload"),
    (".low_", "req_per_s, find_tail_ms, served_frac", "overload"),
    (".rollback", "req_per_s, find_tail_ms, served_frac", "overload"),
    ("_peak", "req_per_s, find_tail_ms, served_frac", "overload"),
    ("oracle.", "find_p50_ms, req_per_s", "scale"),
    ("router.find", "find_p50_ms", "scale"),
    ("router.remove", "remove_p50_ms", "scale"),
    ("router.verify", "verify_p50_ms", "audit"),
    ("_len_mean", "path_len_mean", "all"),
    ("router.fail", "served_frac", "overload"),
    ("router.", "req_per_s", "all"),
    ("harness.", "none (input side only)", "all"),
    ("trace.", "none (tracing overhead)", "all"),
]


def maps_to(name):
    return next("%s on %s" % (m, w) for key, m, w in LAYER_MAP if key in name)


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, rounds, plain_rounds, gen_s, parse_s):
    t = tracer
    finds = t.calls["router.find"]
    metrics = {
        "graph.load_s": (t.total["graph.load"], "s"),
        "matching.perfect_s": (t.total["matching.perfect"], "s"),
        "matching.one_factor_s": (t.total["matching.one_factor"], "s"),
        "matching.one_factor_calls": (t.calls["matching.one_factor"], "count"),
        "preprocess.total_s": (t.total["preprocess.total"], "s"),
        "preprocess.orient_s": (t.total["preprocess.orient"], "s"),
        "preprocess.split_self_s": (t.self_s["preprocess.split"], "s"),
    }
    ratios = []
    for side in ("out", "in"):
        o = "oracle.%s." % side
        adds = t.calls[o + "add"]
        kept = sum(r.kept[side] for r in rounds)
        lows = t.calls[o + "low_additions"]
        walks = t.calls[o + "walk"]
        metrics.update({
            o + "add_calls": (adds, "count"),
            o + "add_buffered_calls": (t.calls[o + "add_buffered"], "count"),
            o + "add_self_s": (t.self_s[o + "add"], "s"),
            o + "handback_calls": (t.calls[o + "handback"], "count"),
            o + "handback_s": (t.total[o + "handback"], "s"),
            o + "walk_calls": (walks, "count"),
            o + "walk_s": (t.total[o + "walk"], "s"),
            o + "low_additions": (lows, "count"),
            o + "rollback_calls": (t.calls[o + "rollback"], "count"),
            o + "rollback_s": (t.total[o + "rollback"], "s"),
            o + "low_peak": (t.peaks[o + "low_peak"], "count"),
            o + "b_peak": (t.peaks[o + "b_peak"], "count"),
            o + "sat_peak": (t.peaks[o + "sat_peak"], "count"),
            o + "release_s": (t.total[o + "release"], "s"),
            o + "audit_s": (t.total[o + "audit"], "s"),
            o + "adds_per_find": (ratio(adds, finds), "ratio"),
            o + "kept_frac": (ratio(kept, adds), "frac"),
            o + "walks_per_low": (ratio(walks, lows), "ratio"),
        })
        ratios += [
            "%sadds_per_find = %d adds / %d finds" % (o, adds, finds),
            "%skept_frac = %d tree-segment edges kept / %d adds" % (o, kept, adds),
            "%swalks_per_low = %d walks / %d Low promotions" % (o, walks, lows),
        ]
    served_paths = [r for r in rounds if r.connector_lens]
    plain_rps = req_per_s(plain_rounds)
    traced_rps = req_per_s(rounds)
    metrics.update({
        "router.find_calls": (finds, "count"),
        "router.find_self_s": (t.self_s["router.find"], "s"),
        "router.remove_self_s": (t.self_s["router.remove"], "s"),
        "router.verify_self_s": (t.self_s["router.verify"], "s"),
        "router.connector_len_mean": (
            statistics.fmean(x for r in served_paths for x in r.connector_lens), "hops"),
        "router.tree_seg_len_mean": (
            statistics.fmean(x for r in served_paths for x in r.tree_lens), "hops"),
        "router.fail_expansion": (sum(r.failed_expansion for r in rounds), "count"),
        "router.fail_caller": (sum(r.failed_caller for r in rounds), "count"),
        "harness.gen_workload_s": (sum(gen_s), "s"),
        "harness.parse_trace_s": (sum(parse_s), "s"),
        "trace.req_per_s_plain": (plain_rps, "1/s"),
        "trace.req_per_s_traced": (traced_rps, "1/s"),
        "trace.overhead_frac": (ratio(plain_rps - traced_rps, plain_rps), "frac"),
    })
    return metrics, ratios


# --- command line --------------------------------------------------------------


def make_inputs(work, wl, seed, rounds):
    """Generate the graph and `rounds` traces in a child process."""
    profile = desk_profile(wl.n, wl.d)
    live = profile.r // 2 if wl.live == "half" else profile.r - 6
    trace_seeds = [seed * 1000 + i for i in range(rounds)]
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "gen_inputs.py"), work,
         str(wl.n), str(wl.d), str(seed), str(live), str(wl.ops)]
        + [str(s) for s in trace_seeds],
        env=env, check=True, timeout=170,
    )
    with open(os.path.join(work, "meta.json"), encoding="ascii") as fh:
        return profile, json.load(fh)["gen_workload_s"]


def load_trace(work, i):
    """Round i's commands and the seconds `parse_trace` took."""
    with open(os.path.join(work, "trace%d.txt" % i), encoding="ascii") as fh:
        text = fh.read()
    t0 = time.perf_counter()
    commands = parse_trace(text)
    return commands, time.perf_counter() - t0


def check_digests(name, seed, rounds, record):
    with open(DIGESTS, encoding="ascii") as fh:
        book = json.load(fh)
    key = "%s/%d" % (name, seed)
    got = [r.digest for r in rounds]
    if record:
        old = book.get(key, [])
        book[key] = got + old[len(got):]
        with open(DIGESTS, "w", encoding="ascii") as fh:
            json.dump(book, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return "digest: recorded %d round(s) for %s" % (len(got), key)
    want = book.get(key, [])
    lines = []
    for i, digest in enumerate(got):
        if i >= len(want):
            lines.append("digest %s round %d: %s (none recorded)" % (key, i, digest))
        elif want[i] != digest:
            lines.append("digest %s round %d: MISMATCH %s, recorded %s" % (key, i, digest, want[i]))
    return "\n".join(lines) or "digest %s: all %d round(s) match" % (key, len(got))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    # A traced run serves each round twice and needs no set-up median.
    min_rounds = 1 if args.trace else MIN_ROUNDS
    # Inputs for up to twice the rounds expected in --seconds, so a faster
    # program or machine still measures for the whole window.
    max_rounds = max(min_rounds, 2 * math.ceil(args.seconds / wl.round_s))
    work = os.path.join(HERE, "work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        profile, gen_s = make_inputs(work, wl, args.seed, max_rounds)
        graph_path = os.path.join(work, "graph.txt")
        tracer = tracing.Tracer() if args.trace else None
        plain, traced, parse_s = [], [], []
        start = time.perf_counter()
        with Clock() as clock:
            while len(plain) < max_rounds and (
                len(plain) < min_rounds or time.perf_counter() - start < args.seconds
            ):
                cmds, secs = load_trace(work, len(plain))
                parse_s.append(secs)
                plain.append(play(graph_path, profile, cmds, wl, clock))
                if tracer:
                    traced.append(play(graph_path, profile, cmds, wl, clock, tracer))
        at_reference_speed(clock, plain + traced)
        rounds = traced if tracer else plain
        gen_s = gen_s[: len(rounds)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = all(r.verify_findings == 0 for r in rounds + plain)
    if args.trace:
        same = [p.digest == r.digest for p, r in zip(plain, rounds)]
        correct = correct and all(same)
        print("traced rounds reproduce the plain digests: %s" % all(same))
    print("workload %s seed %d: n=%d d=%d, %d round(s) of %d requests, collapse after %d failed finds in a row"
          % (args.workload, args.seed, wl.n, wl.d, len(rounds), wl.ops, COLLAPSE_STREAK))
    for i, r in enumerate(rounds):
        print("round %d: served %d, failed %d (expansion %d, caller %d, unsent %d), first_fail_op %s, "
              "finds %d, removes %d, verifies %d (%d findings), digest %s"
              % (i, r.served, r.failed, r.failed_expansion, r.failed_caller, r.unsent,
                 r.first_fail_op or "none", len(r.times("find")), len(r.times("remove")), len(r.times("verify")),
                 r.verify_findings, r.digest[:16]))
        if r.samples:
            finds = sorted(r.times("find"))
            p, find_tail = tail(finds, wl.tail_caps[0])
            print("  setup_s %.4g, req_per_s %.5g, find p50 %.4g ms, p%g %.4g ms, verify p50 %.4g ms"
                  % (r.setup_s, req_per_s([r]), pct(finds, 50) * 1e3, p, find_tail * 1e3,
                     pct(sorted(r.times("verify")), 50) * 1e3))
    print(check_digests(args.workload, args.seed, rounds, args.record_digests))
    attempted = sum(r.requests for r in rounds)
    failed = sum(r.failed for r in rounds)
    print("fail_frac = %.6f (%d failed or unsent of %d requests)" % (failed / attempted, failed, attempted))

    if args.trace:
        metrics, notes = per_layer(tracer, rounds, plain, gen_s, parse_s)
        for name, (value, unit) in metrics.items():
            print("  %-34s %14.6g %-6s -> %s" % (name, value, unit, maps_to(name)))
    else:
        metrics, notes = end_to_end(rounds, wl)
        for name, (value, unit) in metrics.items():
            print("  %-16s %14.6g %s" % (name, value, unit))
    for note in notes:
        print("  " + note)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
