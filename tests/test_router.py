import random
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from conftest import dump
from expander_routing.errors import CallerError, ExpansionViolation
from expander_routing.expanders import gen_random_regular_graph
from expander_routing.harness import gen_workload, run_trace
from expander_routing.profiles import desk_profile
from expander_routing.router import RoutingEngine


def small_engine(n=150, d=30, seed=21):
    g = gen_random_regular_graph(n, d, seed=seed)
    return RoutingEngine(g, desk_profile(n, d))


def state_snapshot(engine):
    return (
        dump(engine.out_oracle),
        dump(engine.in_oracle),
        tuple(engine.out_oracle.sat_out),
        tuple(engine.in_oracle.sat_out),
        tuple(engine.h3.members()),
        tuple(engine.ledger.paths),
        tuple(engine.ledger.ps),
        tuple(engine.ledger.pe),
        engine.ledger.next_id,
    )


def test_fresh_engine_is_clean():
    eng = small_engine()
    assert len(eng.ledger.paths) == 0
    assert eng.verify().ok
    assert eng.split.g1.regularity() == eng.profile.d_prime
    assert eng.split.g2.regularity() == eng.profile.d_prime


def test_first_path_structure():
    eng = small_engine()
    rec = eng.find_path(3, 77)
    prof = eng.profile
    assert rec.length <= prof.path_len_cap
    assert len(rec.seg_a) <= prof.depth_cap
    assert len(rec.seg_b) <= prof.depth_cap
    assert len(rec.seg_mid) <= prof.g3_path_cap
    verts = eng.path_vertices(rec)
    assert verts[0] == 3 and verts[-1] == 77
    assert len(verts) == rec.length + 1
    # segments live in their own subgraphs and map to disjoint host edges
    host_ids = (
        [eng.split.g1_host[e] for e in rec.seg_a]
        + [eng.split.g3_host[e] for e in rec.seg_mid]
        + [eng.split.g2_host[e] for e in rec.seg_b]
    )
    assert len(host_ids) == len(set(host_ids))
    assert eng.verify().ok


def test_same_endpoints_rejected():
    eng = small_engine()
    before = state_snapshot(eng)
    with pytest.raises(CallerError):
        eng.find_path(5, 5)
    assert state_snapshot(eng) == before


def test_endpoint_cap_rejected_without_mutation():
    eng = small_engine()
    cap = eng.profile.endpoint_cap
    a = 9
    for i in range(cap):
        eng.find_path(a, 40 + i)
    before = state_snapshot(eng)
    with pytest.raises(CallerError):
        eng.find_path(a, 80)
    assert state_snapshot(eng) == before


def test_volume_cap_rejected():
    g = gen_random_regular_graph(150, 30, seed=21)
    eng = RoutingEngine(g, desk_profile(150, 30, r=1))
    eng.find_path(0, 50)
    before = state_snapshot(eng)
    with pytest.raises(CallerError):
        eng.find_path(1, 51)
    assert state_snapshot(eng) == before


def test_remove_unknown_id():
    eng = small_engine()
    before = state_snapshot(eng)
    with pytest.raises(CallerError):
        eng.remove_path(12)
    assert state_snapshot(eng) == before


def test_find_remove_round_trip():
    eng = small_engine()
    rec = eng.find_path(2, 60)
    eng.remove_path(rec.id)
    assert len(eng.ledger.paths) == 0
    assert len(eng.out_oracle.h) == 0
    assert len(eng.in_oracle.h) == 0
    assert len(eng.h3) == 0
    assert eng.ledger.ps == [0] * eng.n and eng.ledger.pe == [0] * eng.n
    assert eng.verify().ok


def test_churn_keeps_invariants():
    eng = small_engine(n=240, d=30, seed=23)
    prof = eng.profile
    cmds = gen_workload(
        "churn", eng.n, {"ops": 400, "live_target": prof.r // 2}, 31,
        prof.endpoint_cap, prof.r,
    )
    report = run_trace(eng, cmds, verify_every=1)
    assert report.failures == []
    assert report.verify_findings == 0
    # independent disjointness recount over the host digraph
    used = []
    for rec in eng.ledger.paths.values():
        used += [eng.split.g1_host[e] for e in rec.seg_a]
        used += [eng.split.g3_host[e] for e in rec.seg_mid]
        used += [eng.split.g2_host[e] for e in rec.seg_b]
    assert len(used) == len(set(used))
    # every stored path is a directed walk with the right endpoints
    for rec in eng.ledger.paths.values():
        verts = eng.path_vertices(rec)
        assert verts[0] == rec.a and verts[-1] == rec.b


def test_probe_bfs_depth_and_size(probe_bfs):
    eng = small_engine(n=240, d=30, seed=24)
    prof = eng.profile
    rng = random.Random(5)
    for _ in range(10):
        side = rng.choice(["out", "in"])
        oracle = eng.out_oracle if side == "out" else eng.in_oracle
        root = rng.randrange(eng.n)
        if oracle.h.out_deg[root] >= oracle.profile.out_cap:
            continue
        before = state_snapshot(eng)
        probe = probe_bfs(eng, side, root)
        assert state_snapshot(eng) == before
        assert len(probe["vertices"]) >= prof.bfs_vertex_cap
        # recompute hop distances over the returned tree edges only
        adj = {}
        for e in probe["edges"]:
            adj.setdefault(oracle.host.tails[e], []).append(oracle.host.heads[e])
        dist = {root: 0}
        q = deque([root])
        while q:
            u = q.popleft()
            for w in adj.get(u, ()):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    q.append(w)
        assert set(dist) >= probe["vertices"]
        assert max(dist[v] for v in probe["vertices"]) <= prof.depth_cap


def test_met_tree_skips_the_stall_check_but_not_the_depth_check():
    eng = small_engine(n=240, d=30, seed=24)
    prof = eng.profile
    oracle, root = eng.in_oracle, 5
    with oracle.request_log():
        _, parent = eng._oracle_bfs(oracle, root)
        oracle.rollback()
    verts = list(parent)
    meet = verts[len(verts) // 2]
    depth = len(eng._tree_path(parent, meet))
    before = state_snapshot(eng)
    with oracle.request_log():
        edges, met = eng._oracle_bfs(oracle, root, {meet})
        oracle.rollback()
    # far below bfs_vertex_cap, yet not a stall: the tree reached `stop`
    assert list(met) == verts[: len(verts) // 2 + 1]
    assert len(met) < prof.bfs_vertex_cap and len(edges) < len(verts)
    eng.profile = replace(prof, depth_cap=depth - 1)
    with pytest.raises(ExpansionViolation, match="depth"):
        with oracle.request_log():
            eng._oracle_bfs(oracle, root, {meet})
    assert state_snapshot(eng) == before


def test_meeting_trees_share_one_vertex_and_need_no_connector():
    # the in-tree grows as find_path grows it, with the out-tree as `stop`
    eng = small_engine(n=600, d=30, seed=11)
    rng = random.Random(2)
    met = 0
    for _ in range(40):
        a, b = rng.sample(range(eng.n), 2)
        with eng.out_oracle.request_log(), eng.in_oracle.request_log():
            _, par_a = eng._oracle_bfs(eng.out_oracle, a)
            _, par_b = eng._oracle_bfs(eng.in_oracle, b, par_a)
            eng.out_oracle.rollback()
            eng.in_oracle.rollback()
        shared = set(par_a).intersection(par_b)
        if shared:
            meet = next(reversed(par_b))
            assert shared == {meet}
            assert eng._g3_connect(par_a, par_b) == (meet, meet, [])
            met += 1
        else:
            assert len(par_b) >= eng.profile.bfs_vertex_cap
    # both outcomes occur at this size
    assert 5 <= met < 40
    assert eng.verify().ok and len(eng.out_oracle.h) == len(eng.in_oracle.h) == 0


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_overload_churn_serves_every_find(seed):
    # churn at r - 6 on n=4800 collapses if every oracle row is scanned in
    # head-id order: all trees crowd onto the same low-id heads, and B,
    # Sat and Low feed each other until no alternating walk is left (on
    # these seeds the first find fails between op 360 and op 470)
    n, d = 4800, 30
    prof = desk_profile(n, d)
    cmds = gen_workload(
        "churn", n, {"ops": 1000, "live_target": prof.r - 6}, seed, prof.endpoint_cap, prof.r
    )
    eng = RoutingEngine(gen_random_regular_graph(n, d, seed=seed), prof)
    report = run_trace(eng, cmds, verify_every=25, stop_on_failure=True)
    assert report.failures == []
    assert report.requests_served == len(cmds)
    assert report.verify_findings == 0 and eng.verify().ok


def test_failed_find_unwinds_everything():
    # an unreachable tree-size target makes every request fail after real
    # work; on the filled engine the failed trees also move B, Sat and Low
    for n, seed, fill, finds in ((150, 21, 0, 1), (1200, 11, 47, 60)):
        g = gen_random_regular_graph(n, 30, seed=seed)
        prof = desk_profile(n, 30)
        eng = RoutingEngine(g, prof)
        cmds = gen_workload("fill", n, {"count": fill}, 3, prof.endpoint_cap, prof.r)
        assert run_trace(eng, cmds).failures == []
        eng.profile = replace(prof, bfs_vertex_cap=n + 1)
        rng = random.Random(0)
        expansion_failures = 0
        for _ in range(finds):
            before = state_snapshot(eng)
            with pytest.raises((CallerError, ExpansionViolation)) as failure:
                eng.find_path(rng.randrange(n), rng.randrange(n))
            expansion_failures += failure.type is ExpansionViolation
            assert state_snapshot(eng) == before
        assert expansion_failures >= 0.9 * finds
        assert eng.verify().ok


def test_failed_connector_unwinds_everything():
    # a zero-length connector budget fails unless the two trees already touch
    g = gen_random_regular_graph(150, 30, seed=21)
    eng = RoutingEngine(g, desk_profile(150, 30, g3_path_cap=0))
    saw_failure = False
    for b in (50, 60, 70, 80):
        before = state_snapshot(eng)
        try:
            eng.find_path(0, b)
        except ExpansionViolation:
            saw_failure = True
            assert state_snapshot(eng) == before
            assert eng.verify().ok
            break
        eng.remove_path(eng.ledger.resolve(-1))
    assert saw_failure, "every tree pair overlapped; widen the sample"


def test_replay_determinism():
    def run():
        g = gen_random_regular_graph(150, 30, seed=29)
        prof = desk_profile(150, 30)
        eng = RoutingEngine(g, prof)
        cmds = gen_workload(
            "churn", 150, {"ops": 120, "live_target": 4}, 3, prof.endpoint_cap, prof.r
        )
        lines = []
        run_trace(eng, cmds, emit=lines.append)
        return lines

    assert run() == run()


MACHINE_N = 150
MACHINE_GRAPH = gen_random_regular_graph(MACHINE_N, 30, seed=21)
MACHINE_VERTICES = st.integers(0, MACHINE_N - 1)


class EngineMachine(RuleBasedStateMachine):
    """Finds, removes and forced failures on one small engine: every step
    leaves a clean verify, every failed find leaves the state as it was."""

    def __init__(self):
        super().__init__()
        # r above the desk value loads the oracles enough to buffer (B, Low)
        self.eng = RoutingEngine(MACHINE_GRAPH, desk_profile(MACHINE_N, 30, r=30))

    def _find(self, a, b):
        before = state_snapshot(self.eng)
        try:
            self.eng.find_path(a, b)
        except (CallerError, ExpansionViolation):
            assert state_snapshot(self.eng) == before

    @rule(a=MACHINE_VERTICES, b=MACHINE_VERTICES)
    def find(self, a, b):
        self._find(a, b)

    @precondition(lambda self: self.eng.ledger.paths)
    @rule(data=st.data())
    def remove(self, data):
        self.eng.remove_path(data.draw(st.sampled_from(list(self.eng.ledger.paths))))

    @rule(a=MACHINE_VERTICES, b=MACHINE_VERTICES, knob=st.sampled_from(
        [{"bfs_vertex_cap": MACHINE_N + 1}, {"g3_path_cap": 0}]
    ))
    def forced_failure(self, a, b, knob):
        prof = self.eng.profile
        self.eng.profile = replace(prof, **knob)
        try:
            self._find(a, b)
        finally:
            self.eng.profile = prof

    @invariant()
    def verify_clean(self):
        report = self.eng.verify()
        assert report.ok, str(report)


TestEngineMachine = EngineMachine.TestCase
# no shrink phase: each replay rebuilds the engine and verifies after every
# step, so shrinking a failure takes minutes; the unshrunk run is printed
TestEngineMachine.settings = settings(
    derandomize=True,
    deadline=None,
    max_examples=60,
    stateful_step_count=40,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
