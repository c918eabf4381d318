import copy
import gc
import random
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from conftest import depth_capped, dump, never, tree_by_single_adds
from expander_routing.errors import CallerError, ExpansionViolation
from expander_routing.expanders import gen_random_regular_graph
from expander_routing.harness import gen_workload, run_trace
from expander_routing.profiles import ceil_log2, derive_profile, desk_profile
from expander_routing.router import MEETING_RADIUS, RoutingEngine


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
    assert len(rec.seg_mid) <= prof.depth_cap
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
    eng = RoutingEngine(g, replace(desk_profile(150, 30), r=1))
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


def test_probe_bfs_depth_and_size(probe_trees, tree_depths):
    eng = small_engine(n=240, d=30, seed=24)
    prof = eng.profile
    out_cap = prof.oracle.out_cap
    rng = random.Random(5)
    for _ in range(10):
        a, b = rng.sample(range(eng.n), 2)
        if eng.out_oracle.h.out_deg[a] >= out_cap or eng.in_oracle.h.out_deg[b] >= out_cap:
            continue
        before = state_snapshot(eng)
        probe = probe_trees(eng, a, b)
        assert state_snapshot(eng) == before
        for oracle, root, (edges, parent) in (
            (eng.out_oracle, a, probe["out"]),
            (eng.in_oracle, b, probe["in"]),
        ):
            # only trees that did not meet must reach the vertex target
            if probe["meet"] is None:
                assert len(parent) >= prof.bfs_vertex_cap
            # hop distances over the returned tree edges only
            dist = tree_depths(oracle, root, edges)
            assert set(dist) >= set(parent)
            assert max(dist[v] for v in parent) <= prof.depth_cap


def _meeting_pair(eng, rng, probe_trees):
    """A pair (a, b) whose trees meet, with its probe."""
    for _ in range(50):
        a, b = rng.sample(range(eng.n), 2)
        try:
            probe = probe_trees(eng, a, b)
        except ExpansionViolation:
            continue
        if probe["meet"] is not None:
            return a, b, probe
    raise AssertionError("no meeting pair in 50 samples")


def test_met_tree_skips_the_stall_check_but_not_the_depth_check(probe_trees):
    # no tree reaches n + 1 vertices, yet a find whose trees meet is served
    eng = small_engine(n=240, d=30, seed=24)
    prof = eng.profile
    # beta sets the cap: ceil(beta * n / 5) = n + 1
    eng.profile = replace(prof, beta=Fraction(5 * (eng.n + 1), eng.n))
    assert eng.profile.bfs_vertex_cap == eng.n + 1
    a, b, probe = _meeting_pair(eng, random.Random(3), probe_trees)
    depth = max(
        len(eng._tree_path(parent, next(reversed(parent))))
        for _, parent in (probe["out"], probe["in"])
    )
    before = state_snapshot(eng)
    eng.profile = depth_capped(eng.profile, depth - 1)
    with pytest.raises(ExpansionViolation, match="depth"):
        eng.find_path(a, b)
    assert state_snapshot(eng) == before
    # met through a shared vertex (no connector) or a free G3 path (of at
    # most two edges for this pair), which shares the budget, and the
    # served path is simple
    entry, _, seg_mid = probe["meet"]
    eng.profile = depth_capped(eng.profile, max(depth, len(seg_mid)))
    rec = eng.find_path(a, b)
    assert len(rec.seg_mid) <= 2 and rec.seg_mid == tuple(seg_mid)
    verts = eng.path_vertices(rec)
    assert verts[len(rec.seg_a)] == entry
    assert len(set(verts)) == len(verts)
    assert eng.verify().ok


def _alone(oracle, parent, caps, meets=never, steps=None):
    """The tree `oracle` grows alone into `parent` by single adds, on a copy."""
    with copy.deepcopy(oracle).request_log() as orc:
        return tree_by_single_adds(orc, parent, *caps, meets, steps)


def _reach(step, parent):
    """A tree's reach set: the union of its vertices' step rows."""
    return set().union(*map(step.__getitem__, parent))


def _meets(eng, out, own, other, met):
    """The engine's meeting test of the tree `own` (the out-tree if `out`)
    against the tree `other`, over reach sets built from both trees."""
    steps = (eng.step_out, eng.step_in) if out else (eng.step_in, eng.step_out)
    return eng._meets(out, own, other, _reach(steps[0], own), _reach(steps[1], other), met)


def test_meeting_trees_share_one_vertex_and_need_no_connector(probe_trees):
    # on a filled engine, each lockstep tree is a prefix of the tree its
    # oracle grows alone. Trees share at most one vertex. Trees that meet
    # share it and need no connector, or share none and are joined by a G3
    # path of one to three edges, free before the find, from the out-tree
    # to the in-tree, whose middle vertices lie in neither tree. The
    # tree that met is the lone tree stopped at its last key, and the
    # other has had the turns lockstep gives it, as many dequeued vertices
    # as the meeting tree when the out-tree met, one fewer when it was the
    # in-tree (the out-tree moves first)
    n = 600
    eng = small_engine(n=n, d=30, seed=11)
    prof = eng.profile
    g3 = eng.split.g3
    cmds = gen_workload("fill", n, {"count": prof.r - 4}, 5, prof.endpoint_cap, prof.r)
    assert run_trace(eng, cmds).failures == []
    # H3 also holds about half the free G3 edges, as middle segments of
    # live paths would: with only the fill's, trees within three G3 edges
    # of each other nearly always find a free path, and no sampled find
    # stays unmet
    coin = random.Random(1)
    held = [e for e in range(g3.m) if not eng.h3.member[e] and coin.random() < 0.5]
    for e in held:
        eng.h3.add(e)
    caps = prof.bfs_vertex_cap, prof.fanout
    rng = random.Random(2)
    kinds = Counter()
    outcomes = ("shared", "one edge", "two edges", "three edges", "unmet")
    for _ in range(600):
        if min(kinds[k] for k in outcomes) >= 5:
            break
        a, b = rng.sample(range(n), 2)
        if eng.ledger.violation(a, b):
            continue
        probe = probe_trees(eng, a, b)
        meet = probe["meet"]
        sides = ((eng.out_oracle, a, probe["out"], True), (eng.in_oracle, b, probe["in"], False))
        for oracle, root, (edges, parent), _ in sides:
            full_edges, full_parent = _alone(oracle, {root: None}, caps)
            assert edges == full_edges[: len(edges)]
            assert list(parent.items()) == list(full_parent.items())[: len(parent)]
            if meet is None:
                assert (edges, parent) == (full_edges, full_parent)
                assert len(parent) >= prof.bfs_vertex_cap
        par_a, par_b = probe["out"][1], probe["in"][1]
        shared = set(par_a).intersection(par_b)
        assert len(shared) <= 1
        if meet is None:
            assert not shared
            kinds["unmet"] += 1
            continue
        entry, exit_, seg_mid = meet
        if shared:
            assert shared == {entry} and entry == exit_ and seg_mid == []
        else:
            assert 1 <= len(seg_mid) <= 3
            assert not any(eng.h3.member[e] for e in seg_mid)
            walk = [g3.tails[seg_mid[0]]] + [g3.heads[e] for e in seg_mid]
            assert all(g3.tails[f] == g3.heads[e] for e, f in zip(seg_mid, seg_mid[1:]))
            assert (walk[0], walk[-1]) == (entry, exit_)
            assert entry in par_a and exit_ in par_b
            assert not any(x in par_a or x in par_b for x in walk[1:-1])
        schedules = []
        for (m_orc, m_root, m_tree, out), (o_orc, o_root, o_tree, _), lag in (
            (sides[0], sides[1], 1),
            (sides[1], sides[0], 0),
        ):
            m_parent = m_tree[1]
            last = next(reversed(m_parent))
            if m_parent[last] is None:
                continue  # a root is never discovered
            turns = list(m_parent).index(m_parent[last][0]) + 1
            own = {m_root: None}
            schedules.append(
                _alone(m_orc, own, caps, _meets(eng, out, own, o_tree[1], [])) == m_tree
                and _alone(o_orc, {o_root: None}, caps, steps=turns - lag) == o_tree
            )
        assert any(schedules)
        kinds[outcomes[len(seg_mid)]] += 1
        rec = eng.find_path(a, b)
        assert rec.seg_mid == tuple(seg_mid)
        verts = eng.path_vertices(rec)
        assert len(set(verts)) == len(verts)
        eng.remove_path(rec.id)
    # all five outcomes occur at this size
    assert min(kinds[k] for k in outcomes) >= 5, kinds
    for e in held:
        eng.h3.remove(e)
    assert eng.verify().ok


def test_an_h3_held_g3_edge_is_never_a_meeting(probe_trees):
    # trees that met through a G3 path grow past that point once H3 holds
    # any of its edges, as a live path's middle segment would: the
    # edge's ends stay in the fixed G3 rows, but no link from either
    # tree's last key takes the edge, nor does the find grown again
    eng = small_engine(n=600, d=30, seed=11)
    g3 = eng.split.g3
    rng = random.Random(4)
    met = {}
    for _ in range(100):
        a, b = rng.sample(range(eng.n), 2)
        probe = probe_trees(eng, a, b)
        if probe["meet"] is not None and probe["meet"][2]:
            met.setdefault(len(probe["meet"][2]), []).append((a, b, probe))
        if min(len(met.get(2, ())), len(met.get(3, ()))) >= 3 and 1 in met:
            break
    else:
        raise AssertionError("too few pairs met through G3 in 100 samples: %s" % met)
    a, b, probe = met[1][0]
    [e] = probe["meet"][2]
    t, w = g3.tails[e], g3.heads[e]
    parallel = [f for f in g3.out_adj[t] if g3.heads[f] == w and f != e]
    assert [e] in (eng.link_out((t,), {w: None}, {t: None}, 3), eng.link_in((w,), {t: None}, {w: None}, 3))
    eng.h3.add(e)
    assert w in eng.g3_out[t] and t in eng.g3_in[w]
    for link, v, u in ((eng.link_out, t, w), (eng.link_in, w, t)):
        # a parallel edge, else only a path of two or three edges around e
        found = link((v,), {u: None}, {v: None}, 3)
        assert found == parallel[:1] or not parallel and (found is None or len(found) in (2, 3))
        assert found is None or e not in found
    eng.h3.remove(e)
    grew = Counter()
    for a, b, probe in met[1][:1] + met[2] + met[3]:
        par_a, par_b = probe["out"][1], probe["in"][1]
        last_a, last_b = next(reversed(par_a)), next(reversed(par_b))
        seg = probe["meet"][2]

        def links():
            return eng.link_out((last_a,), par_b, par_a, 3), eng.link_in((last_b,), par_a, par_b, 3)

        # the meeting tree's link found the path, walked from its last key
        assert seg in links() or seg[::-1] in links()
        for i, held in enumerate(seg):
            eng.h3.add(held)
            found = links()
            assert all(path is None or held not in path for path in found)
            again = probe_trees(eng, a, b)
            assert again["meet"] is None or held not in again["meet"][2]
            if found == (None, None):
                # no free path from either last key: the trees grow past it
                assert len(again["out"][1]) + len(again["in"][1]) > len(par_a) + len(par_b)
                grew[len(seg), i] += 1
            eng.h3.remove(held)
            assert probe_trees(eng, a, b) == probe
    # holding the one edge, or any edge of a pair or a triple, moved some
    # meeting on
    assert set(grew) == {(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)}, grew
    assert eng.verify().ok


def test_a_two_edge_link_never_passes_through_the_own_tree():
    # hold every G3 edge out of t but e, and every one out of e's head x
    # but f: the one free link from t to f's head w is e, f, through x. A
    # link from t takes it, walked from t (link_out) or from w (link_in),
    # unless x is a vertex of the own tree or of the other
    eng = small_engine()
    g3 = eng.split.g3
    t = 0
    e, f = next(
        (e, f)
        for e in g3.out_adj[t]
        for f in g3.out_adj[g3.heads[e]]
        if len({t, g3.heads[e], g3.heads[f]}) == 3
    )
    x, w = g3.heads[e], g3.heads[f]
    for held in chain(g3.out_adj[t], g3.out_adj[x]):
        if held not in (e, f):
            eng.h3.add(held)
    assert w in eng.g3_out[t] and t in eng.g3_in[w]
    assert eng.link_out((t,), {w: None}, {t: None}, 3) == [e, f]
    assert eng.link_in((w,), {t: None}, {w: None}, 3) == [f, e]
    # a one-hop search stops short of it
    assert eng.link_out((t,), {w: None}, {t: None}, 1) is None
    assert eng.link_in((w,), {t: None}, {w: None}, 1) is None
    # x in the own tree blocks the pair; x in the other makes a one-edge link
    assert eng.link_out((t,), {w: None}, {t: None, x: None}, 3) is None
    assert eng.link_in((w,), {t: None}, {w: None, x: None}, 3) is None
    assert eng.link_out((t,), {w: None, x: None}, {t: None}, 3) == [e]
    assert eng.link_in((w,), {t: None, x: None}, {w: None}, 3) == [f]
    # the two-edge path is the one free link: without f, none is left
    eng.h3.add(f)
    assert eng.link_out((t,), {w: None}, {t: None}, 3) is None
    assert eng.link_in((w,), {t: None}, {w: None}, 3) is None


def _g3_walks(adj, ends, v, hops):
    """Every G3 walk of exactly `hops` edges from v along `adj`, as edge
    lists, in adjacency order (lexicographic in each edge's row position)."""
    if not hops:
        yield []
        return
    for e in adj[v]:
        for rest in _g3_walks(adj, ends, ends[e], hops - 1):
            yield [e, *rest]


def _reference_link(g3, held, out, sources, keys, own, hops):
    """Brute force of the G3 path search: the shortest G3 path of at most
    `hops` edges from a vertex of `sources` out along its out-edges (`out`)
    or back along its in-edges, none set in `held`, to a key of `keys`,
    whose middle vertices are distinct and keys of neither `keys` nor
    `own`; ties go to the order of `sources`, then adjacency order."""
    adj, ends = (g3.out_adj, g3.heads) if out else (g3.in_adj, g3.tails)
    for length in range(1, hops + 1):
        for w in sources:
            for walk in _g3_walks(adj, ends, w, length):
                *mids, last = (ends[e] for e in walk)
                if (
                    last in keys
                    and not any(held[e] for e in walk)
                    and len(set(mids)) == len(mids)
                    and not any(x in keys or x in own for x in mids)
                ):
                    return walk
    return None


def _within_three(adj, ends, sources):
    """Plain BFS: the vertices at most three G3 edges from `sources` along
    `adj` to `ends`, H3 ignored."""
    seen = set(sources)
    layer = list(sources)
    for _ in range(3):
        layer = [ends[e] for u in layer for e in adj[u] if ends[e] not in seen]
        seen.update(layer)
    return seen


@pytest.mark.parametrize("n,d", [(150, 30), (150, 31), (300, 30), (300, 31)])
def test_reach_test_and_link_match_plain_searches(n, d, probe_trees):
    # after a churn prefix, with H3 holding live middle segments, each
    # find's lockstep trees are replayed discovery by discovery against
    # the other tree as it stood then (the out-tree moves first): the
    # reach test equals a plain BFS check that the G3 distance to the
    # other tree is at most three, a candidate's link equals the brute
    # force, only a tree's last discovery meets, and the find's meeting is
    # the brute-force one of the tree whose last discovery met, against the
    # other tree as it stood then. Links beside each H3-held edge match the
    # brute force too, and some of them go around the held edge. Each
    # tree's reach set ends as the union of the step rows of all its
    # vertices, its last key's too
    prof = desk_profile(n, d)
    eng = RoutingEngine(gen_random_regular_graph(n, d, seed=11), prof)
    cmds = gen_workload("churn", n, {"ops": 200, "live_target": prof.r // 2}, 5, prof.endpoint_cap, prof.r)
    assert run_trace(eng, cmds).failures == []
    g3, h3m = eng.split.g3, eng.h3.member
    assert len(eng.h3)
    # the reach sets `_grow_trees` hands to each tree's meeting test
    reaches, build = [], eng._meets

    def watched_build(out, own, other, reach, other_reach, met):
        reaches.append((out, own, reach))
        return build(out, own, other, reach, other_reach, met)

    eng._meets = watched_build
    # per tree: its two-hop rows and link, the other tree's step rows, and
    # the BFS direction from the other tree towards a discovery
    sides = {
        True: (eng.g3_out, eng.link_out, eng.step_in, g3.in_adj, g3.tails),
        False: (eng.g3_in, eng.link_in, eng.step_out, g3.out_adj, g3.heads),
    }
    tested = Counter()
    rng = random.Random(6)
    for _ in range(100):
        a, b = rng.sample(range(n), 2)
        if eng.ledger.violation(a, b):
            continue
        probe = probe_trees(eng, a, b)
        par_a, par_b = probe["out"][1], probe["in"][1]
        assert [(out, own) for out, own, _ in reaches] == [(True, par_a), (False, par_b)]
        for out, own, reach in reaches:
            assert reach == _reach(eng.step_out if out else eng.step_in, own)
        reaches.clear()
        met = []
        for out, own, other, lag in ((True, par_a, par_b, 0), (False, par_b, par_a, 1)):
            near, link, other_step, adj, ends = sides[out]
            order = list(own)
            at, other_at = {v: i for i, v in enumerate(own)}, {v: i for i, v in enumerate(other)}
            for k, w in enumerate(order[1:], 1):
                # w's parent was the tree's (i+1)-th dequeued vertex; by then
                # the other tree had served i (in-tree: i + 1) vertices
                served = at[own[w][0]] + lag
                keys = {x: None for x, up in other.items() if up is None or other_at[up[0]] < served}
                mine = dict.fromkeys(order[: k + 1])
                reach = _reach(other_step, keys)
                passed = w in reach or not reach.isdisjoint(near[w])
                assert passed == (w in _within_three(adj, ends, keys))
                ref = None if w in keys else _reference_link(g3, h3m, out, (w,), keys, mine, 3)
                if passed and w not in keys:
                    assert link((w,), keys, mine, 3) == ref
                assert passed or ref is None
                assert w == order[-1] or not (w in keys or ref is not None)
                if w in keys:
                    met.append((w, w, []))
                elif ref is not None:
                    end = (g3.heads if out else g3.tails)[ref[-1]]
                    met.append((w, end, ref) if out else (end, w, ref[::-1]))
                tested[passed] += 1
        # a tree that met ended the find: the other never met
        assert len(met) <= 1
        assert probe["meet"] == (met[0] if met else None)
    assert tested[True] and tested[False], tested
    # beside each held edge e from w: targets one, two and three G3 edges
    # on through e, with a few more vertices in w's own tree
    free = bytearray(g3.m)
    around = 0
    for e in eng.h3.members():
        for out, (_, link, _, _, _) in sides.items():
            adj, ends = (g3.out_adj, g3.heads) if out else (g3.in_adj, g3.tails)
            w, x = (g3.tails[e], g3.heads[e]) if out else (g3.heads[e], g3.tails[e])
            ring = {x}
            for _ in range(3):
                keys = dict.fromkeys(ring - {w})
                own = dict.fromkeys([w, *rng.sample([v for v in range(n) if v not in keys], 5)])
                ref = _reference_link(g3, h3m, out, (w,), keys, own, 3)
                assert link((w,), keys, own, 3) == ref
                around += ref != _reference_link(g3, free, out, (w,), keys, own, 3)
                ring = {ends[f] for v in ring for f in adj[v]}
    assert around


def _count_calls(eng, name, calls, record=lambda *args: args, results=None):
    """Wrap the engine method `name` on the instance: each call appends
    (name, `record` of its arguments, taken at the call) to `calls`, and
    (name, its return value) to the list `results` if one is given."""
    method = getattr(eng, name)

    def watched(*args):
        calls.append((name, record(*args)))
        result = method(*args)
        if results is not None:
            results.append((name, result))
        return result

    setattr(eng, name, watched)


def test_no_link_search_repeats_within_a_find():
    # the tree that met keeps the connector its link found, and the first
    # meeting in lockstep order ends the find, so no pair is tested again:
    # within one find, no link runs twice from the same vertex against
    # trees of the same sizes, and in a find that met through a link no
    # link runs after the one whose path the find serves
    n = 600
    prof = desk_profile(n, 30)
    eng = RoutingEngine(gen_random_regular_graph(n, 30, seed=11), prof)
    cmds = gen_workload("churn", n, {"ops": 1000, "live_target": prof.r // 2}, 5, prof.endpoint_cap, prof.r)
    calls, results = [], []
    for name in ("link_out", "link_in"):
        _count_calls(
            eng, name, calls, lambda sources, keys, own, hops: (tuple(sources), len(keys), len(own), hops), results
        )
    _count_calls(eng, "find_path", calls, results=results)
    assert run_trace(eng, cmds).failures == []
    # a find's record follows its link results; link_in walks a path backwards
    linked, last = Counter(), None
    for name, result in results:
        if name != "find_path":
            last = name, (result if name == "link_out" or result is None else result[::-1])
            continue
        if result.seg_mid:
            assert last is not None and last[1] is not None and tuple(last[1]) == result.seg_mid
            linked[last[0]] += 1
        last = None
    # both trees meet through links on this trace
    assert min(linked["link_out"], linked["link_in"]) > 20, linked
    searches, repeated = set(), []
    for call in calls:
        if call[0] == "find_path":
            searches.clear()
        elif call in searches:
            repeated.append(call)
        searches.add(call)
    assert sum(name != "find_path" for name, _ in calls) > 100
    assert repeated == []


def _paper_only(eng):
    """`eng` running the paper's mechanism alone: one-vertex step rows and
    empty two-hop rows, set on the instance, so trees meet only at a shared
    vertex and trees that meet nothing take the breadth-first connector."""
    eng.step_out = eng.step_in = [(v,) for v in range(eng.n)]
    eng.g3_out = eng.g3_in = [()] * eng.n
    return eng


@pytest.mark.parametrize("n,ops", [(150, 400), (600, 1000)])
def test_paper_mechanism_alone_serves_churn(n, ops):
    # the paper's own mechanism, kept under test: with one-vertex step rows
    # and empty two-hop rows, set on the instance, trees meet only at a
    # shared vertex and no radius-3 link runs; trees that meet nothing grow
    # to full size and take the breadth-first connector, the same G3 search
    # run from the whole out-tree with the hop budget, and fit within it
    prof = desk_profile(n, 30)
    eng = _paper_only(RoutingEngine(gen_random_regular_graph(n, 30, seed=11), prof))
    calls = []
    for name in ("link_out", "link_in"):
        _count_calls(eng, name, calls, lambda sources, keys, own, hops: hops)
    cmds = gen_workload("churn", n, {"ops": ops, "live_target": prof.r // 2}, 5, prof.endpoint_cap, prof.r)
    report = run_trace(eng, cmds, verify_every=1)
    assert report.failures == [] and report.requests_served == ops
    assert (report.verifies_run, report.verify_findings) == (ops, 0)
    assert max(report.connector_length_histogram) <= prof.depth_cap
    assert MEETING_RADIUS < prof.depth_cap
    assert set(calls) == {("link_out", prof.depth_cap)}


@pytest.mark.parametrize("n,d", [(150, 30), (150, 31), (300, 30), (300, 31)])
def test_paper_connector_matches_the_brute_force(n, d, probe_trees):
    # on the paper's mechanism alone, each served find's connector is the
    # brute-force shortest free G3 path of at most depth_cap edges from the
    # out-tree to the in-tree, ties to the sorted out-tree vertex and then
    # adjacency order, over the trees a probe grows and H3 as the find
    # found it; trees that met at a shared vertex need none
    prof = desk_profile(n, d)
    eng = _paper_only(RoutingEngine(gen_random_regular_graph(n, d, seed=11), prof))
    g3, h3m, find = eng.split.g3, eng.h3.member, eng.find_path
    connected = []

    def checked_find(a, b):
        probe = probe_trees(eng, a, b)
        par_a, par_b = probe["out"][1], probe["in"][1]
        if probe["meet"] is not None:
            assert probe["meet"][2] == []
            expected = []
        else:
            expected = _reference_link(g3, h3m, True, sorted(par_a), par_b, par_a, prof.depth_cap)
            connected.append(len(expected))
        rec = find(a, b)
        assert rec.seg_mid == tuple(expected)
        return rec

    eng.find_path = checked_find
    cmds = gen_workload("churn", n, {"ops": 300, "live_target": prof.r // 2}, 5, prof.endpoint_cap, prof.r)
    report = run_trace(eng, cmds, verify_every=25)
    assert report.failures == [] and report.verify_findings == 0
    assert len(connected) > 20 and max(connected) > 1, connected
def test_strict_paper_constants_serve_churn():
    # the paper's own constants, strict, end to end: the canonical profile
    # at n=1024, d=402, beta=9/10, gamma=1/2000 serves churn at r - 1 with
    # a clean verify after every request, the strict |Low| < beta*n/12
    # rule included. The expansion premise is not checked: at this d and
    # gamma any two adjacent vertices already break its small-set bound.
    # Every out-tree meets b within three G3 edges, so the in-oracle is
    # used only by the same trace on the paper's mechanism alone
    n, d = 1024, 402
    prof = derive_profile(n, d, Fraction(9, 10), Fraction(1, 2000))
    assert not prof.relaxed and (prof.r, prof.fanout, prof.bfs_vertex_cap) == (7, 5, 185)
    assert (prof.oracle.out_cap, prof.oracle.in_cap) == (10, 4)
    g = gen_random_regular_graph(n, d, seed=1)
    eng = RoutingEngine(g, prof)
    # the two-hop G3 rows hold each end once, not deg + deg^2 entries
    assert all(len(row) <= n for row in chain(eng.g3_out, eng.g3_in))
    cmds = gen_workload("churn", n, {"ops": 200, "live_target": prof.r - 1}, 1, prof.endpoint_cap, prof.r)
    paper = _paper_only(RoutingEngine(g, prof))
    for engine in (eng, paper):
        report = run_trace(engine, cmds, verify_every=1)
        assert report.failures == [] and report.requests_served == 200
        assert (report.verifies_run, report.verify_findings) == (200, 0)
    assert paper.in_oracle.add_calls > 0


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


@pytest.mark.parametrize("n,d", [(150, 30), (150, 31), (300, 30), (300, 31)])
@pytest.mark.parametrize("kind", ["churn", "fill", "hotspot"])
def test_served_connectors_fit_the_hop_budget(kind, n, d):
    # the connector shares the trees' budget of ceil_log2(n) hops; on
    # seeded desk traces every find is served within it
    prof = desk_profile(n, d)
    params = {"count": prof.r - 1} if kind == "fill" else {"ops": 600}
    cmds = gen_workload(kind, n, params, 7, prof.endpoint_cap, prof.r)
    eng = RoutingEngine(gen_random_regular_graph(n, d, seed=11), prof)
    report = run_trace(eng, cmds, verify_every=50)
    assert report.failures == [] and report.verify_findings == 0
    assert max(report.connector_length_histogram) <= prof.depth_cap == ceil_log2(n)


def test_failed_find_unwinds_everything():
    # a depth budget of zero hops makes nearly every request fail after
    # both trees grew (with one hop, depth-1 trees can meet through a G3
    # edge and be served); on the filled engine the failed trees also move
    # B, Sat or Low, which a wrapper around each oracle's rollback sees in
    # its log
    for n, seed, fill, finds in ((150, 21, 0, 20), (1200, 11, 47, 60)):
        g = gen_random_regular_graph(n, 30, seed=seed)
        prof = desk_profile(n, 30)
        eng = RoutingEngine(g, prof)
        cmds = gen_workload("fill", n, {"count": fill}, 3, prof.endpoint_cap, prof.r)
        assert run_trace(eng, cmds).failures == []
        assert len(eng.ledger.paths) == fill
        eng.profile = depth_capped(prof, 0)
        rolled_back = []
        for oracle in (eng.out_oracle, eng.in_oracle):
            oracle.rollback = _watch_rollback(oracle, rolled_back)
        rng = random.Random(0)
        expansion_failures = 0
        for _ in range(finds):
            before = state_snapshot(eng)
            with pytest.raises((CallerError, ExpansionViolation)) as failure:
                eng.find_path(rng.randrange(n), rng.randrange(n))
            expansion_failures += failure.type is ExpansionViolation
            assert state_snapshot(eng) == before
        assert expansion_failures >= 0.9 * finds
        if fill:
            assert any(op != "h+" for op in rolled_back)
        eng.profile = prof
        assert eng.verify().ok


def _watch_rollback(oracle, ops):
    """Wrap oracle.rollback to collect the ops of each log it undoes."""
    rollback = oracle.rollback

    def watched():
        ops.extend(op for op, _ in oracle._undo)
        return rollback()

    return watched


def test_oracle_counters_count_every_tree_edge(probe_trees):
    # the undo logs count each edge a find put in H once, kept or rolled
    # back, so a find's add_calls deltas are its trees' sizes: met at a
    # shared vertex or through a G3 path of one to three edges, unmet and
    # failed alike; a probe grows the same trees the find then grows
    eng = small_engine(n=600, d=30, seed=11)

    def find(a, b, profile=None):
        probe = probe_trees(eng, a, b)
        calls = eng.oracle_call_counts()
        if profile:
            eng.profile = profile
        try:
            rec = eng.find_path(a, b)
        except ExpansionViolation:
            rec = None
        after = eng.oracle_call_counts()
        assert after["out_add"] - calls["out_add"] == len(probe["out"][0])
        assert after["in_add"] - calls["in_add"] == len(probe["in"][0])
        return rec

    rng = random.Random(2)
    connectors = set()
    while len(connectors) < 3:
        rec = find(*rng.sample(range(eng.n), 2))
        connectors.add(min(len(rec.seg_mid), 2))
        eng.remove_path(rec.id)
    # a depth budget of zero hops fails a find after both trees grew; it is
    # checked after growth, so the probe under the old budget sees the trees
    assert find(*rng.sample(range(eng.n), 2), depth_capped(eng.profile, 0)) is None


def test_raised_volume_cap_verifies_clean_when_full():
    # with r raised past the default 8, the live paths hold more tree
    # edges than the default r * depth_cap; verify must still pass. The
    # fill stops once |H1| passes that bound (or at r): well before r the
    # random fill reaches the load frontier, past which finds fail
    n, r = 150, 70
    default = desk_profile(n, 30)
    default_cap = default.r * default.depth_cap
    eng = RoutingEngine(gen_random_regular_graph(n, 30, seed=21), replace(default, r=r))
    rng = random.Random(1)
    while len(eng.ledger.paths) < r and len(eng.out_oracle.h) <= default_cap:
        try:
            eng.find_path(*rng.sample(range(n), 2))
        except CallerError:
            pass
    assert len(eng.out_oracle.h) > default_cap
    report = eng.verify()
    assert report.ok, report.findings


def test_failed_connector_unwinds_everything():
    # under a one-hop budget, trees of depth at most one that meet through
    # a free two-edge G3 path pass the depth check and fail at the
    # connector check; every failure leaves the state as it was
    g = gen_random_regular_graph(150, 30, seed=21)
    eng = RoutingEngine(g, depth_capped(desk_profile(150, 30), 1))
    for b in range(1, 60):
        before = state_snapshot(eng)
        try:
            eng.find_path(0, b)
        except ExpansionViolation as exc:
            assert state_snapshot(eng) == before
            if str(exc) == "connector length 2 exceeds cap 1":
                break
            continue
        eng.remove_path(eng.ledger.resolve(-1))
    else:
        pytest.fail("no find failed at the connector check; widen the sample")
    assert eng.verify().ok


def test_connector_search_stops_at_the_hop_budget():
    # under a two-hop budget, trees of depth at most two that met nothing
    # get a G3 connector of at most two edges or none: the search expands
    # two BFS layers and gives up, naming the budget, and the failure
    # leaves the state as it was. H3 holds about half the G3 edges, as
    # middle segments of live paths would: on a fresh engine nearly every
    # pair of trees is within three free G3 edges, and no find reaches the
    # search
    g = gen_random_regular_graph(150, 30, seed=21)
    eng = RoutingEngine(g, depth_capped(desk_profile(150, 30), 2))
    coin = random.Random(1)
    held = [e for e in range(eng.split.g3.m) if coin.random() < 0.5]
    for e in held:
        eng.h3.add(e)
    for b in range(1, 150):
        before = state_snapshot(eng)
        try:
            eng.find_path(0, b)
        except ExpansionViolation as exc:
            assert state_snapshot(eng) == before
            if str(exc) == "no connector of at most 2 hops between the two trees in the third subgraph":
                break
            continue
        eng.remove_path(eng.ledger.resolve(-1))
    else:
        pytest.fail("no find failed in the connector search; widen the sample")
    for e in held:
        eng.h3.remove(e)
    assert eng.verify().ok


def test_dropped_engine_is_freed_without_the_cycle_collector():
    # nothing in an engine refers back to it, so dropping the last
    # reference frees it and its split at once, not at a later collection
    eng = small_engine()
    eng.find_path(0, 5)
    ref = weakref.ref(eng)
    gc.disable()
    try:
        del eng
        assert ref() is None
    finally:
        gc.enable()


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
    leaves a clean verify, every served path is simple, and every failed
    find leaves the state as it was. A forced failure runs under a one-hop
    budget, which fails most finds at the depth or the connector check."""

    def __init__(self):
        super().__init__()
        # r above the desk value loads the oracles enough to buffer (B, Low)
        self.eng = RoutingEngine(MACHINE_GRAPH, replace(desk_profile(MACHINE_N, 30), r=30))

    def _find(self, a, b):
        before = state_snapshot(self.eng)
        try:
            rec = self.eng.find_path(a, b)
        except (CallerError, ExpansionViolation):
            assert state_snapshot(self.eng) == before
            return
        # a served path is simple: it repeats no vertex
        verts = self.eng.path_vertices(rec)
        assert len(set(verts)) == len(verts), verts

    @rule(a=MACHINE_VERTICES, b=MACHINE_VERTICES)
    def find(self, a, b):
        self._find(a, b)

    @precondition(lambda self: self.eng.ledger.paths)
    @rule(data=st.data())
    def remove(self, data):
        self.eng.remove_path(data.draw(st.sampled_from(list(self.eng.ledger.paths))))

    @rule(a=MACHINE_VERTICES, b=MACHINE_VERTICES)
    def forced_failure(self, a, b):
        prof = self.eng.profile
        self.eng.profile = depth_capped(prof, 1)
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
