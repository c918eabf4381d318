"""Acceptance suite: one test per criterion, fixed seeds, stated budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Heavyweight artifacts (the oracle churn of criterion 1, the
router churn of criterion 3) are built once and shared by the criteria
that sample from them.
"""

import dataclasses
import hashlib
import random
import statistics
import time
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from conftest import dump, edge_pairs, oriented_host
from expander_routing.errors import CallerError, ExpansionViolation
from expander_routing.expanders import (
    estimate_second_eigenvalue,
    gen_random_regular_graph,
)
from expander_routing.graph import UndirectedGraph, format_graph
from expander_routing.harness import gen_workload, run_trace
from expander_routing.oracle import EdgeOracle
from expander_routing.preprocess import pre_process
from expander_routing.profiles import (
    OracleProfile,
    ceil_log2,
    derive_profile,
    desk_profile,
)
from expander_routing.router import RoutingEngine

ORACLE_N, ORACLE_D, ORACLE_OPS = 300, 20, 10000
ROUTER_N, ROUTER_D, ROUTER_OPS = 600, 30, 2000

# sha256 of the preprocessing fingerprint per (d, seed), of the PATH/FAIL
# lines of criterion 8's 500-request replay, and of the engine state that
# replay ends in (both oracles' dump and sat_out, H3); a change to any of
# them means the matching, the orientation, the split, the router or the
# oracle bookkeeping changed behaviour
GOLDEN_PREPROCESS = {
    (20, 2): "296558d1fdc3491c54ee078c45de6b9ee729d525194c3a0183117af96d01713e",
    (21, 3): "6ed5b5f4cf98a3a71f9334153b83ceb9882958799b5da265cc96bf2477379c7a",
}
GOLDEN_REPLAY = "626c4ed2be9b1bb30174928ccb622821ed2cbd0736d59ecbe28f5e10859b5a77"
GOLDEN_REPLAY_STATE = "39a0c269ac9b26026a7aee058e62564d3d45d4ef1f8af19e2a1cdd6eb4480e3f"
# the oracle work that replay does: per-edge add and remove calls, walk
# searches, and Low promotions per oracle (out, in)
GOLDEN_REPLAY_CALLS = {
    "out_add": 293, "out_remove": 283, "in_add": 182, "in_remove": 173, "walk_searches": 0,
}
GOLDEN_REPLAY_LOW_ADDITIONS = (0, 0)


def _sha256(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def suite1_profile():
    # out cap and the buffering trigger are desk values; the in cap and
    # saturation threshold are the canonical floor(d/5), d/10
    return OracleProfile(
        out_cap=4,
        in_cap=4,
        sat_threshold=Fraction(2),
        low_threshold=Fraction(11),
    )


def _oracle_churn(prof, ops, watch_walks, audit_each, live_cap):
    """Random add/remove churn on the seed-5 host (rng seed 99), keeping
    at most `live_cap` active edges."""
    host = oriented_host(ORACLE_N, ORACLE_D, seed=5)
    oracle = EdgeOracle(host, prof)
    walks = watch_walks(oracle)
    rng = random.Random(99)
    active = []
    walk_failures = 0
    contract_violations = 0
    dirty_audits = 0
    start = time.perf_counter()
    for _ in range(ops):
        do_add = len(active) < live_cap and (
            len(active) < live_cap // 3 or rng.random() < 0.55
        )
        if do_add:
            pool = [v for v in range(ORACLE_N) if oracle.h.out_deg[v] < prof.out_cap]
            v = pool[rng.randrange(len(pool))]
            try:
                e = oracle.add_edge(v)
                if oracle.h.in_deg[host.heads[e]] - 1 >= prof.in_cap:
                    contract_violations += 1
                active.append(e)
            except ExpansionViolation:
                walk_failures += 1
        elif active:
            i = rng.randrange(len(active))
            active[i], active[-1] = active[-1], active[i]
            oracle.remove_edge(active.pop())
        # every in_F stays within in_cap, so |F| = |H| + |B| <= n * in_cap
        assert len(oracle.h) + len(oracle.b) <= ORACLE_N * prof.in_cap
        if audit_each:
            audit = oracle.audit(oracle.h.members())
            # |Low| < beta*n/12 with the suite's beta of 1
            if not audit.ok or oracle.low.count(1) * 12 >= ORACLE_N:
                dirty_audits += 1
    elapsed = time.perf_counter() - start
    return {
        "walks": walks,
        "walk_failures": walk_failures,
        "contract_violations": contract_violations,
        "dirty_audits": dirty_audits,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def suite1(watch_walks):
    return _oracle_churn(suite1_profile(), ORACLE_OPS, watch_walks, audit_each=True, live_cap=300)


@pytest.fixture(scope="module")
def suite1_long_walks(watch_walks):
    # suite 1's walks all have one edge; a lower buffering trigger and more
    # live edges force walks that reverse buffered edges. No per-op audit:
    # at these caps |Low| outgrows the beta*n/12 that criterion 1 checks
    prof = dataclasses.replace(suite1_profile(), low_threshold=Fraction(10))
    return _oracle_churn(prof, 3000, watch_walks, audit_each=False, live_cap=450)


def test_criterion_1_oracle_invariant_suite(suite1):
    assert suite1["walk_failures"] == 0
    assert suite1["contract_violations"] == 0
    assert suite1["dirty_audits"] == 0
    assert suite1["elapsed"] <= 120.0
    print(
        "PASS criterion 1: %d ops, 0 walk failures, 0 contract violations, "
        "all %d audits clean, %.1fs" % (ORACLE_OPS, ORACLE_OPS, suite1["elapsed"])
    )


def test_criterion_2_walk_toggle_semantics(suite1, suite1_long_walks):
    records = suite1["walks"] + suite1_long_walks["walks"]
    assert len(records) >= 200, "the oracle suites produced too few rebalancing events"
    assert suite1_long_walks["walk_failures"] == 0
    for rec in records:
        x, y = rec["x"], rec["y"]
        for v in set(rec["vertices"]):
            out_before, in_before = rec["before"][v]
            out_after, in_after = rec["after"][v]
            assert out_after == out_before + (1 if v == x else 0)
            assert in_after == in_before + (1 if v == y else 0)
    long_walks = sum(len(rec["vertices"]) >= 4 for rec in records)
    assert long_walks >= 20, "only %d walks have three or more edges" % long_walks
    print(
        "PASS criterion 2: all %d rebalancing events (%d of 3+ edges) match the toggle contract"
        % (len(records), long_walks)
    )


@pytest.fixture(scope="module")
def suite3():
    g = gen_random_regular_graph(ROUTER_N, ROUTER_D, seed=11)
    profile = desk_profile(ROUTER_N, ROUTER_D)
    commands = gen_workload(
        "churn",
        ROUTER_N,
        {"ops": ROUTER_OPS, "live_target": profile.r // 2},
        7,
        profile.endpoint_cap,
        profile.r,
    )
    engine = RoutingEngine(g, profile)
    lines = []
    start = time.perf_counter()
    report = run_trace(engine, commands, verify_every=1, emit=lines.append)
    elapsed = time.perf_counter() - start
    return {
        "graph": g,
        "profile": profile,
        "commands": commands,
        "engine": engine,
        "report": report,
        "lines": lines,
        "elapsed": elapsed,
    }


def test_criterion_3_router_end_to_end(suite3):
    report = suite3["report"]
    profile = suite3["profile"]
    assert report.failures == []
    assert report.requests_served == ROUTER_OPS
    assert report.verifies_run == ROUTER_OPS
    assert report.verify_findings == 0
    length_cap = 3 * ceil_log2(ROUTER_N)
    assert all(length <= length_cap for length in report.path_length_histogram)
    assert suite3["elapsed"] <= 600.0
    print(
        "PASS criterion 3: %d churn requests, 0 failures, %d clean verifies, %.1fs"
        % (ROUTER_OPS, report.verifies_run, suite3["elapsed"])
    )


def test_criterion_4_bfs_depth_bound(suite3, probe_trees, tree_depths):
    # each probe grows the two trees of one find in lockstep; trees that
    # met stop early, so only unmet trees must reach the vertex target
    engine = suite3["engine"]
    profile = suite3["profile"]
    depth_bound = ceil_log2(ROUTER_N)
    out_cap = profile.oracle.out_cap
    rng = random.Random(13)
    probes = met = 0
    attempts = 0
    while probes < 100:
        attempts += 1
        assert attempts < 2000, "could not find enough roots with headroom"
        a, b = rng.sample(range(ROUTER_N), 2)
        if engine.out_oracle.h.out_deg[a] >= out_cap or engine.in_oracle.h.out_deg[b] >= out_cap:
            continue
        probe = probe_trees(engine, a, b)
        met += probe["meet"] is not None
        for oracle, root, (edges, parent) in (
            (engine.out_oracle, a, probe["out"]),
            (engine.in_oracle, b, probe["in"]),
        ):
            if probe["meet"] is None:
                assert len(parent) >= profile.bfs_vertex_cap
            dist = tree_depths(oracle, root, edges)
            assert set(dist) >= set(parent)
            assert max(dist[v] for v in parent) <= depth_bound
            probes += 1
    print(
        "PASS criterion 4: %d tree probes (%d finds met), all within %d hops, unmet trees >= %d vertices"
        % (probes, met, depth_bound, profile.bfs_vertex_cap)
    )


def _preprocess_fingerprint(d, seed):
    g = gen_random_regular_graph(100, d, seed=seed)
    split = pre_process(g, derive_profile(100, d, "1/10", "1/50", relaxed=True))
    return g, split, "".join(
        format_graph(x) for x in (split.host, split.g1, split.g2, split.g3)
    )


def test_criterion_5_preprocessing():
    for d, seed in ((20, 2), (21, 3)):
        g, split, blob = _preprocess_fingerprint(d, seed)
        assert split.host.regularity() == 10
        assert split.g1.regularity() == 1
        assert split.g2.regularity() == 1
        assert split.g3.regularity() == 8
        ids = sorted(split.g1_host + split.g2_host + split.g3_host)
        assert ids == list(range(split.host.m))
        # orientation balance on the even-degree graph that was oriented
        oriented_deg = 10 if d == 20 else 10
        for v in range(100):
            assert len(split.host.out_adj[v]) == oriented_deg
            assert len(split.host.in_adj[v]) == oriented_deg
        _, _, blob2 = _preprocess_fingerprint(d, seed)
        assert blob == blob2
        assert _sha256(blob) == GOLDEN_PREPROCESS[(d, seed)]
    print("PASS criterion 5: even and odd degree preprocessing exact and deterministic")


def _dense_lambda(g):
    n = g.n
    a = np.zeros((n, n))
    for u, v in edge_pairs(g):
        a[u, v] += 1.0
        a[v, u] += 1.0
    vals = sorted(np.linalg.eigvalsh(a))
    vals.pop()
    colour = [-1] * n
    bipartite = True
    for start in range(n):
        if colour[start] != -1:
            continue
        colour[start] = 0
        q = deque([start])
        while q:
            x = q.popleft()
            for e in g.inc[x]:
                y = g.other_end(e, x)
                if colour[y] == -1:
                    colour[y] = colour[x] ^ 1
                    q.append(y)
                elif colour[y] == colour[x]:
                    bipartite = False
    if bipartite and vals:
        vals.pop(0)
    return max(abs(v) for v in vals)


def test_criterion_6_spectral_estimator():
    k5 = UndirectedGraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    rep = estimate_second_eigenvalue(k5, tol=1e-9)
    assert rep.converged
    assert abs(rep.lambda_estimate - 1.0) <= 1e-6

    c8 = UndirectedGraph(8, [(i, (i + 1) % 8) for i in range(8)])
    rep = estimate_second_eigenvalue(c8, tol=1e-9)
    assert rep.converged
    assert abs(rep.lambda_estimate - _dense_lambda(c8)) <= 1e-6

    tol = 1e-8
    combos = [(50, 4), (80, 6), (100, 8), (120, 6), (160, 8),
              (200, 10), (240, 8), (300, 12), (400, 10), (400, 12)]
    worst = 0.0
    for i, (n, d) in enumerate(combos):
        for seed in (2 * i, 2 * i + 1):
            g = gen_random_regular_graph(n, d, seed=seed)
            rep = estimate_second_eigenvalue(g, max_iters=50000, tol=tol)
            assert rep.converged, (n, d, seed)
            err = abs(rep.lambda_estimate - _dense_lambda(g))
            worst = max(worst, err)
            assert err <= 10 * tol, (n, d, seed, err)
    print("PASS criterion 6: K5, C8 and 20 random graphs, worst error %.2e" % worst)


def test_criterion_7_strict_profile_arithmetic():
    n, d = 10**6, 400
    beta = Fraction(1, 100)
    gamma = Fraction(1, 2000)
    p = derive_profile(n, d, beta, gamma)
    lg = ceil_log2(n)
    # independent evaluation of the two capacity chains, exact arithmetic
    assert Fraction(p.r * lg) <= p.c * n * p.k / 2
    assert Fraction(300, 1) / beta * p.r <= beta * n * p.k / 50
    with pytest.raises(CallerError):
        derive_profile(n, d, beta, Fraction(1, 500))
    with pytest.raises(CallerError):
        derive_profile(n, 19, beta, gamma, relaxed=True)
    print("PASS criterion 7: strict profile satisfies both chains; bad inputs rejected")


def test_criterion_8_determinism(suite3):
    # preprocessing fixtures, byte for byte
    for d, seed in ((20, 2), (21, 3)):
        _, _, blob1 = _preprocess_fingerprint(d, seed)
        _, _, blob2 = _preprocess_fingerprint(d, seed)
        assert blob1 == blob2
    # router fixture: a 500-request prefix of the criterion-3 trace replayed
    # twice on fresh engines must emit identical bytes
    prefix = suite3["commands"][:500]

    def replay():
        g = gen_random_regular_graph(ROUTER_N, ROUTER_D, seed=11)
        engine = RoutingEngine(g, desk_profile(ROUTER_N, ROUTER_D))
        lines = []
        report = run_trace(engine, prefix, verify_every=1, emit=lines.append)
        assert report.failures == [] and report.verify_findings == 0
        state = [engine.h3.members()]
        for oracle in (engine.out_oracle, engine.in_oracle):
            state += [dump(oracle), list(oracle.sat_out)]
        work = (
            engine.oracle_call_counts(),
            (engine.out_oracle.low_additions, engine.in_oracle.low_additions),
        )
        return "\n".join(lines), repr(state), work

    first, first_state, work = replay()
    assert (first, first_state, work) == replay()
    assert _sha256(first) == GOLDEN_REPLAY
    assert _sha256(first_state) == GOLDEN_REPLAY_STATE
    assert work == (GOLDEN_REPLAY_CALLS, GOLDEN_REPLAY_LOW_ADDITIONS)
    print("PASS criterion 8: preprocessing and router replays are byte-identical")


def test_criterion_9_complexity_sanity():
    def median_request_seconds(n, graph_seed):
        g = gen_random_regular_graph(n, ROUTER_D, seed=graph_seed)
        profile = desk_profile(n, ROUTER_D)
        commands = gen_workload(
            "churn", n, {"ops": 300, "live_target": profile.r // 2}, 17,
            profile.endpoint_cap, profile.r,
        )
        engine = RoutingEngine(g, profile)
        times = []
        for cmd in commands:
            t0 = time.perf_counter()
            if cmd.kind == "find":
                engine.find_path(cmd.a, cmd.b)
            else:
                engine.remove_path(cmd.ref)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    m600 = median_request_seconds(600, 11)
    m1200 = median_request_seconds(1200, 12)
    ratio = m1200 / m600
    assert ratio <= 10.0, (m600, m1200)
    print(
        "PASS criterion 9: median request %.6fs at n=600 vs %.6fs at n=1200 "
        "(ratio %.2f <= 10)" % (m600, m1200, ratio)
    )
