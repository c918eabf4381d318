import gc
import math
import os
import random
import runpy
import sys
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from conftest import (
    checked_picks, depth_capped, dump, first_pick, never, one_vertex_rows, tree_by_single_adds, undo_entries,
)
from expander_routing import preprocess
from expander_routing.errors import CallerError, ExpansionViolation
from expander_routing.expanders import gen_random_regular_graph
from expander_routing.graph import load_graph, save_graph
from expander_routing.harness import gen_workload, run_trace
from expander_routing.profiles import ceil_log2, derive_profile, desk_profile
from expander_routing.router import MEETING_RADIUS, Ledger, RoutingEngine


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
    assert eng.g1.regularity() == eng.profile.d_prime
    assert eng.g2.regularity() == eng.profile.d_prime


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
        [eng.g1_host[e] for e in rec.seg_a]
        + [eng.g3_host[e] for e in rec.seg_mid]
        + [eng.g2_host[e] for e in rec.seg_b]
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


@pytest.mark.parametrize("call, args", [("find_path", (1.5, 2)), ("find_path", ("1", 2)),
                                        ("find_path", (1, 2.0)), ("remove_path", (0.0,))])
def test_non_integer_endpoint_or_id_refused_without_mutation(call, args):
    # 0.0 hashes as path id 0 and 1.5 would fail as a list index: the ledger
    # refuses both, as a CallerError before any change
    eng = small_engine()
    eng.find_path(1, 2)
    before = state_snapshot(eng)
    with pytest.raises(CallerError, match="integer|unknown path id"):
        getattr(eng, call)(*args)
    assert state_snapshot(eng) == before


@pytest.mark.parametrize("ref", ["1", 1.5, None])
def test_ledger_refuses_a_non_integer_ref(ref):
    # as remove refuses such an id: "1" failed the >= 0 test with a
    # TypeError, and 1.5 came back as a path id
    ledger = Ledger(10, 2, 5)
    ledger.add(1, 2)
    ledger.add(3, 4)
    with pytest.raises(CallerError, match=r"^unknown path id "):
        ledger.resolve(ref)
    assert (ledger.resolve(1), ledger.resolve(-2)) == (1, 0)


def test_ledger_refuses_an_endpoint_cap_over_a_byte():
    # ps and pe are bytearrays: a library caller's cap over 255 is refused
    # before any trace is generated, not partway through with a ValueError
    assert Ledger(10, 255, 5).endpoint_cap == 255
    with pytest.raises(CallerError, match=r"^endpoint_cap must be at most 255, got 256$"):
        Ledger(10, 256, 5)
    with pytest.raises(CallerError, match=r"^endpoint_cap must be at most 255, got 300$"):
        gen_workload("hotspot", 600, {"ops": 700, "live_target": 290}, 1, 300, 400)


def test_index_like_endpoints_and_ids_still_served():
    # what operator.index takes, bools and numpy ints, stays an endpoint or id
    np = pytest.importorskip("numpy")
    eng = small_engine()
    rec = eng.find_path(np.int64(5), True)
    assert (rec.a, rec.b, eng.ledger.ps[5], eng.ledger.pe[1]) == (5, 1, 1, 1)
    eng.remove_path(np.int64(rec.id))
    assert not eng.ledger.paths and eng.verify().ok


def test_find_remove_round_trip():
    eng = small_engine()
    rec = eng.find_path(2, 60)
    eng.remove_path(rec.id)
    assert len(eng.ledger.paths) == 0
    assert len(eng.out_oracle.h) == 0
    assert len(eng.in_oracle.h) == 0
    assert len(eng.h3) == 0
    assert list(eng.ledger.ps) == [0] * eng.n and list(eng.ledger.pe) == [0] * eng.n
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
        used += [eng.g1_host[e] for e in rec.seg_a]
        used += [eng.g3_host[e] for e in rec.seg_mid]
        used += [eng.g2_host[e] for e in rec.seg_b]
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


def _replayed(oracle, rows, parent, vertex_cap, prefer, picks, meets=never, steps=None):
    """The tree `oracle` grows into `parent` by single adds in a log it then
    rolls back, its k-th pick preferring `prefer(k)`. Each pick is checked
    against `first_pick` over the reach rows `rows` as the oracle stands
    just before it, and `picks` counts them by kind."""
    with oracle.request_log() as orc:
        grow = orc.grow_tree

        def checked(root, edges, vertex_cap, meets, near):
            (u,) = root
            want, kind = first_pick(orc, u, near, rows)
            if kind != "stock":
                assert orc.state[want] == 0 and not orc.sat[orc.host.heads[want]]
            next(grow(root, edges, vertex_cap, meets, near))
            assert edges == [want]
            picks[kind] += 1
            yield

        orc.grow_tree = checked
        try:
            return tree_by_single_adds(orc, parent, vertex_cap, meets, steps, prefer)
        finally:
            del orc.grow_tree
            orc.rollback()


def _lockstep_zone(eng, out, other):
    """prefer(k) of the tree facing the lockstep tree `other`, (edges,
    parent), the out-tree if `out`: `other`'s zone at the tree's k-th
    pick, over its root and what its first k picks discovered (k + 1 for
    the in-tree: the out-tree moves first)."""
    lag = 0 if out else 1
    edges, parent = other
    at = {e: i for i, e in enumerate(edges)}
    return lambda k: _zone(eng, not out, [x for x, up in parent.items() if up is None or at[up[1]] < k + lag])


def _zone(eng, out, tree):
    """Plain BFS: the zone of `tree`, the out-tree if `out`, every vertex
    at most two G3 edges out of it (into it for the in-tree), H3 ignored."""
    g3 = eng.g3
    return _within(g3.out_adj, g3.heads, tree, 2) if out else _within(g3.in_adj, g3.tails, tree, 2)


def _meets(eng, out, own, other, met):
    """The engine's meeting test of the tree `own` (the out-tree if `out`)
    against the tree `other`, over zones built from both trees."""
    return eng._meets(out, own, other, _zone(eng, out, own), _zone(eng, not out, other), met)


def test_meeting_trees_share_one_vertex_and_need_no_connector(probe_trees):
    # on a filled engine, each lockstep tree is a prefix of the tree its
    # oracle grows by single adds, each pick preferring the other tree's
    # zone (a plain BFS of two G3 edges from it) as lockstep growth then
    # leaves it, and every pick follows the rule spelled out: a Low
    # vertex's first stock edge, else the first free, unsaturated out-edge
    # whose head's radius-1 G3 ball meets that zone, else the first free,
    # unsaturated one; both of the latter occur, and
    # some picks pass over an allowed edge for a preferred one (no vertex
    # is Low at this load, so no stock pick occurs). Roots joined by a
    # free G3 path grow no tree. Trees share at most one vertex. Trees
    # that meet share it and need no connector, or share none and are
    # joined by a G3 path of one to four edges, free before the find,
    # from the out-tree to the in-tree, whose middle vertices lie in
    # neither tree. The tree that met is the replayed tree stopped at its
    # last key, and the other has had the turns lockstep gives it, as many
    # picks as the meeting tree when the in-tree met, one fewer when it was
    # the out-tree (the out-tree moves first)
    n = 600
    eng = small_engine(n=n, d=30, seed=11)
    prof = eng.profile
    g3 = eng.g3
    cmds = gen_workload("fill", n, {"count": prof.r - 4}, 5, prof.endpoint_cap, prof.r)
    assert run_trace(eng, cmds).failures == []
    # H3 also holds about half the free G3 edges, as middle segments of
    # live paths would: with only the fill's, trees within four G3 edges
    # of each other nearly always find a free path, and no sampled find
    # stays unmet. Even with half held, about one find in 200 stays unmet,
    # so sampling goes on until each outcome has been seen five times
    coin = random.Random(1)
    held = [e for e in range(g3.m) if not eng.h3.member[e] and coin.random() < 0.5]
    for e in held:
        eng.h3.add(e)
    cap = prof.bfs_vertex_cap
    rng = random.Random(2)
    kinds, picks = Counter(), Counter()
    outcomes = ("shared", "one edge", "two edges", "three edges", "four edges", "unmet", "roots")
    for _ in range(2000):
        if min(kinds[k] for k in outcomes) >= 5:
            break
        a, b = rng.sample(range(n), 2)
        if eng.ledger.violation(a, b):
            continue
        probe = probe_trees(eng, a, b)
        meet = probe["meet"]
        sides = ((eng.out_oracle, a, probe["out"], True), (eng.in_oracle, b, probe["in"], False))
        near = {out: _lockstep_zone(eng, out, probe["in" if out else "out"]) for out in (True, False)}
        rows = {True: eng.out_balls[1], False: eng.in_balls[1]}
        for oracle, root, (edges, parent), out in sides:
            full_edges, full_parent = _replayed(oracle, rows[out], {root: None}, cap, near[out], picks)
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
            assert 1 <= len(seg_mid) <= MEETING_RADIUS
            assert not any(eng.h3.member[e] for e in seg_mid)
            walk = [g3.tails[seg_mid[0]]] + [g3.heads[e] for e in seg_mid]
            assert all(g3.tails[f] == g3.heads[e] for e, f in zip(seg_mid, seg_mid[1:]))
            assert (walk[0], walk[-1]) == (entry, exit_)
            assert entry in par_a and exit_ in par_b
            assert not any(x in par_a or x in par_b for x in walk[1:-1])
        roots = len(par_a) == len(par_b) == 1
        if roots:
            # the out-tree's test on a, against the in-root b, met
            assert seg_mid and _meets(eng, True, {a: None}, par_b, [])(a)
            kinds["roots"] += 1
        schedules = []
        for (m_orc, m_root, m_tree, out), (o_orc, o_root, o_tree, o_out), lag in (
            (sides[0], sides[1], 1),
            (sides[1], sides[0], 0),
        ):
            m_edges, m_parent = m_tree
            if m_parent[next(reversed(m_parent))] is None:
                continue  # a root is never discovered
            own = {m_root: None}
            schedules.append(
                _replayed(m_orc, rows[out], own, cap, near[out], picks, _meets(eng, out, own, o_tree[1], [])) == m_tree
                and _replayed(o_orc, rows[o_out], {o_root: None}, cap, near[o_out], picks, steps=len(m_edges) - lag)
                == o_tree
            )
        assert any(schedules) or roots
        kinds[outcomes[len(seg_mid)]] += 1
        rec = eng.find_path(a, b)
        assert rec.seg_mid == tuple(seg_mid)
        verts = eng.path_vertices(rec)
        assert len(set(verts)) == len(verts)
        eng.remove_path(rec.id)
    # all seven outcomes and all three kinds of unbuffered pick occur
    assert min(kinds[k] for k in outcomes) >= 5, kinds
    assert min(picks[k] for k in ("first", "preferred", "passed over")) > 0, picks
    for e in held:
        eng.h3.remove(e)
    assert eng.verify().ok


def test_an_h3_held_g3_edge_is_never_a_meeting(probe_trees):
    # trees that met through a G3 path grow past that point once H3 holds
    # any of its edges, as a live path's middle segment would: the
    # edge's ends stay in the fixed G3 balls, but no link from either
    # tree's last key takes the edge, nor does the find grown again
    eng = small_engine(n=600, d=30, seed=11)
    g3 = eng.g3
    rng = random.Random(4)
    met = {}
    for _ in range(100):
        a, b = rng.sample(range(eng.n), 2)
        probe = probe_trees(eng, a, b)
        if probe["meet"] is not None and probe["meet"][2]:
            met.setdefault(len(probe["meet"][2]), []).append((a, b, probe))
        if min(len(met.get(k, ())) for k in range(2, MEETING_RADIUS + 1)) >= 3 and 1 in met:
            break
    else:
        raise AssertionError("too few pairs met through G3 in 100 samples: %s" % met)
    a, b, probe = met[1][0]
    [e] = probe["meet"][2]
    t, w = g3.tails[e], g3.heads[e]
    parallel = [f for f in g3.out_adj[t] if g3.heads[f] == w and f != e]
    assert [e] in (eng.link_out((t,), {w: None}, {t: None}, MEETING_RADIUS),
                   eng.link_in((w,), {t: None}, {w: None}, MEETING_RADIUS))
    eng.h3.add(e)
    assert w in eng.out_balls[2][t] and t in eng.in_balls[2][w]
    for link, v, u in ((eng.link_out, t, w), (eng.link_in, w, t)):
        # a parallel edge, else only a path of two to MEETING_RADIUS edges around e
        found = link((v,), {u: None}, {v: None}, MEETING_RADIUS)
        assert found == parallel[:1] or not parallel and (found is None or 2 <= len(found) <= MEETING_RADIUS)
        assert found is None or e not in found
    eng.h3.remove(e)
    grew = Counter()
    for a, b, probe in met[1][:1] + [*chain.from_iterable(met[k] for k in range(2, MEETING_RADIUS + 1))]:
        par_a, par_b = probe["out"][1], probe["in"][1]
        last_a, last_b = next(reversed(par_a)), next(reversed(par_b))
        seg = probe["meet"][2]

        def links():
            return (eng.link_out((last_a,), par_b, par_a, MEETING_RADIUS),
                    eng.link_in((last_b,), par_a, par_b, MEETING_RADIUS))

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
    # holding the one edge, or any edge of a path of two to MEETING_RADIUS
    # edges, moved some meeting on
    assert set(grew) == {(k, i) for k in range(1, MEETING_RADIUS + 1) for i in range(k)}, grew
    assert eng.verify().ok


def test_a_two_edge_link_never_passes_through_the_own_tree():
    # hold every G3 edge out of t but e, and every one out of e's head x
    # but f: the one free link from t to f's head w is e, f, through x. A
    # link from t takes it, walked from t (link_out) or from w (link_in),
    # unless x is a vertex of the own tree or of the other
    eng = small_engine()
    g3 = eng.g3
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
    assert w in eng.out_balls[2][t] and t in eng.in_balls[2][w]
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


def _within(adj, ends, sources, hops):
    """Plain BFS: the vertices at most `hops` G3 edges from `sources`
    along `adj` to `ends`, H3 ignored."""
    seen = set(sources)
    layer = list(sources)
    for _ in range(hops):
        layer = [ends[e] for u in layer for e in adj[u] if ends[e] not in seen]
        seen.update(layer)
    return seen


@pytest.mark.parametrize("n,d", [(150, 30), (150, 31), (300, 30), (300, 31)])
def test_reach_test_and_link_match_plain_searches(n, d, probe_trees):
    # after a churn prefix, with H3 holding live middle segments, each
    # find's lockstep trees are replayed discovery by discovery against
    # the other tree as it stood then (lockstep turns are picks, the
    # out-tree moves first, and its
    # root is tested against the in-root before either tree grows): the
    # reach test, the discovery's two-hop row (a plain BFS of two G3 edges
    # from it) against the other tree's zone (a plain BFS of two G3 edges
    # from that tree), equals a plain BFS check that the G3 distance to
    # the other tree is at most MEETING_RADIUS, a candidate's link
    # equals the brute force, only a tree's last discovery meets, and the
    # find's meeting is the brute-force one of the tree whose last
    # discovery met, against the other tree as it stood then. Links
    # beside each H3-held edge match the brute force too, and some of
    # them go around the held edge. Each tree's zone ends as a plain BFS
    # of every vertex within two G3 edges of all its vertices (out of the
    # out-tree, into the in-tree), its last key's too. Each G3 ball, out of
    # and into each vertex, is a plain BFS ball of its radius, each vertex
    # once, nearer vertices first
    prof = desk_profile(n, d)
    eng = RoutingEngine(gen_random_regular_graph(n, d, seed=11), prof)
    cmds = gen_workload("churn", n, {"ops": 200, "live_target": prof.r // 2}, 5, prof.endpoint_cap, prof.r)
    assert run_trace(eng, cmds).failures == []
    g3, h3m = eng.g3, eng.h3.member
    for balls, adj, ends in ((eng.out_balls, g3.out_adj, g3.heads), (eng.in_balls, g3.in_adj, g3.tails)):
        assert list(balls) == list(range(1, MEETING_RADIUS // 2 + 1))
        for r, ball in balls.items():
            for v in range(n):
                inner = _within(adj, ends, (v,), r - 1)
                assert len(set(ball[v])) == len(ball[v]) and set(ball[v]) == _within(adj, ends, (v,), r)
                assert set(ball[v][: len(inner)]) == inner
    assert len(eng.h3)
    # the zones `_grow_trees` hands to each tree's meeting test
    zones, build = [], eng._meets

    def watched_build(out, own, other, zone, other_zone, met):
        zones.append((out, own, zone))
        return build(out, own, other, zone, other_zone, met)

    eng._meets = watched_build
    # per tree: its link, the BFS direction from the other tree towards a
    # discovery, and the direction of the discovery's own row
    sides = {
        True: (eng.link_out, g3.in_adj, g3.tails, g3.out_adj, g3.heads),
        False: (eng.link_in, g3.out_adj, g3.heads, g3.in_adj, g3.tails),
    }
    tested = Counter()
    rng = random.Random(6)
    for _ in range(100):
        a, b = rng.sample(range(n), 2)
        if eng.ledger.violation(a, b):
            continue
        probe = probe_trees(eng, a, b)
        par_a, par_b = probe["out"][1], probe["in"][1]
        assert [(out, own) for out, own, _ in zones] == [(True, par_a), (False, par_b)]
        for out, own, zone in zones:
            assert zone == _zone(eng, out, own)
        zones.clear()
        met = []
        for out, (edges, own), (other_edges, other), lag in (
            (True, probe["out"], probe["in"], 0),
            (False, probe["in"], probe["out"], 1),
        ):
            link, adj, ends, row_adj, row_ends = sides[out]
            order = list(own)
            at, other_at = {e: i for i, e in enumerate(edges)}, {e: i for i, e in enumerate(other_edges)}
            start = 0 if out else 1
            for k, w in enumerate(order[start:], start):
                # w was discovered by the tree's (i+1)-th pick; by then the
                # other tree had made i (in-tree: i + 1) picks
                made = at[own[w][1]] + lag if k else 0
                keys = {x: None for x, up in other.items() if up is None or other_at[up[1]] < made}
                mine = dict.fromkeys(order[: k + 1])
                passed = not _within(adj, ends, keys, 2).isdisjoint(_within(row_adj, row_ends, (w,), 2))
                assert passed == (w in _within(adj, ends, keys, MEETING_RADIUS))
                ref = None if w in keys else _reference_link(g3, h3m, out, (w,), keys, mine, MEETING_RADIUS)
                if passed and w not in keys:
                    assert link((w,), keys, mine, MEETING_RADIUS) == ref
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
    # beside each held edge e from w: targets one to MEETING_RADIUS G3
    # edges on through e, with a few more vertices in w's own tree
    free = bytearray(g3.m)
    around = 0
    for e in eng.h3.members():
        for out, (link, _, _, adj, ends) in sides.items():
            w, x = (g3.tails[e], g3.heads[e]) if out else (g3.heads[e], g3.tails[e])
            ring = {x}
            for _ in range(MEETING_RADIUS):
                keys = dict.fromkeys(ring - {w})
                own = dict.fromkeys([w, *rng.sample([v for v in range(n) if v not in keys], 5)])
                ref = _reference_link(g3, h3m, out, (w,), keys, own, MEETING_RADIUS)
                assert link((w,), keys, own, MEETING_RADIUS) == ref
                around += ref != _reference_link(g3, free, out, (w,), keys, own, MEETING_RADIUS)
                ring = {ends[f] for v in ring for f in adj[v]}
    assert around


def _unpruned_link(h3m, adj, ends, sources, keys, own, hops):
    """The G3 path search without its key-row test: every free vertex
    neither seen nor in `own` joins the next layer while hops are left."""
    parent = dict.fromkeys(sources)
    layer = sources
    for left in reversed(range(hops)):
        next_layer = []
        for u in layer:
            for e in adj[u]:
                w = ends[e]
                if w in keys:
                    if not h3m[e]:
                        parent[w] = u, e
                        return RoutingEngine._tree_path(parent, w)
                elif left and not (h3m[e] or w in parent or w in own):
                    parent[w] = u, e
                    next_layer.append(w)
        layer = next_layer
    return None


@pytest.mark.parametrize("paper", [False, True], ids=["desk", "paper-only"])
def test_pruned_link_returns_what_the_unpruned_search_returns(paper):
    # after a churn, with H3 holding live middle segments: from one source
    # and from several (some at a held edge), with own-tree vertices, each
    # link returns what the search without the key-row test returns, for
    # every hop budget up to depth_cap; on a paper-only engine too, whose
    # outermost balls are replaced on the instance but whose links keep
    # the balls they were bound to
    n = 300
    prof = desk_profile(n, 31)
    eng = RoutingEngine(gen_random_regular_graph(n, 31, seed=11), prof)
    if paper:
        _paper_only(eng)
    cmds = gen_workload("churn", n, {"ops": 300, "live_target": prof.r // 2}, 5, prof.endpoint_cap, prof.r)
    assert run_trace(eng, cmds).failures == []
    g3, h3m = eng.g3, eng.h3.member
    held = eng.h3.members()
    assert held
    sides = ((eng.link_out, g3.out_adj, g3.heads, g3.tails), (eng.link_in, g3.in_adj, g3.tails, g3.heads))
    rng = random.Random(8)
    lengths = Counter()
    for trial in range(40):
        keys = dict.fromkeys(rng.sample(range(n), rng.choice((1, 2, 6))))
        for link, adj, ends, starts in sides:
            at_held = starts[rng.choice(held)]
            mine = [v for v in [at_held, *rng.sample(range(n), 30)] if v not in keys]
            for count in (1, 8):
                sources = mine[:count]
                own = dict.fromkeys(mine[: count + rng.choice((0, 5, 20))])
                for hops in range(1, prof.depth_cap + 1):
                    seg = link(sources, keys, own, hops)
                    assert seg == _unpruned_link(h3m, adj, ends, sources, keys, own, hops)
                    lengths[None if seg is None else len(seg)] += 1
    assert lengths[None] and len(lengths) > 4, lengths


def test_roots_joined_by_a_free_g3_path_are_served_by_it_alone():
    # a churn trace at n=150 (d=30, graph seed 3, churn seed 11, 400 ops)
    # on which, before roots were tested, 52 of 202 finds had a free G3
    # path of at most three edges from a to b, and 48 of them were served
    # a longer path. Now each find whose roots are so joined, by the brute
    # force just before it, is served that path alone: empty tree
    # segments, no oracle add. Every other find grows a tree segment.
    # Every verify is clean
    n, d = 150, 30
    prof = desk_profile(n, d)
    eng = RoutingEngine(gen_random_regular_graph(n, d, seed=3), prof)
    cmds = gen_workload("churn", n, {"ops": 400, "live_target": prof.r // 2}, 11, prof.endpoint_cap, prof.r)
    g3, find, joined = eng.g3, eng.find_path, []

    def watched(a, b):
        ref = _reference_link(g3, eng.h3.member, True, (a,), {b: None}, {a: None}, MEETING_RADIUS)
        calls = eng.oracle_call_counts()
        rec = find(a, b)
        if ref is None:
            assert rec.seg_a or rec.seg_b
        else:
            assert (rec.seg_a, rec.seg_mid, rec.seg_b) == ((), tuple(ref), ())
            assert eng.oracle_call_counts() == calls
            joined.append(rec)
        return rec

    eng.find_path = watched
    report = run_trace(eng, cmds, verify_every=1)
    assert report.failures == [] and report.verify_findings == 0
    assert len(joined) >= 50, len(joined)  # 53


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


def test_engine_from_a_file_holds_one_object_per_id(tmp_path):
    # parse_graph interns the vertex ids and every graph takes its edge ids
    # from one table, so each graph and row a build derives copies the same
    # int object for equal ids, the vertex at the head of each G3 ball too
    save_graph(tmp_path / "g.txt", gen_random_regular_graph(600, 31, seed=11))
    eng = RoutingEngine(load_graph(tmp_path / "g.txt"), desk_profile(600, 31))
    graphs = [eng.g1, eng.g2, eng.g3]
    rows = [eng.out_oracle._pick_reach, eng.in_oracle._pick_reach, *eng.out_balls.values(), *eng.in_balls.values()]
    vertices = chain(*(chain(g.tails, g.heads) for g in graphs), *(chain.from_iterable(r) for r in rows))
    edges = chain.from_iterable(chain.from_iterable(chain(g.out_adj, g.in_adj)) for g in graphs)
    for ids, count in ((vertices, 600), (edges, max(g.m for g in graphs))):
        first = {}
        assert all(first.setdefault(x, x) is x for x in ids) and len(first) == count


def test_a_build_leaves_no_tracked_rows_and_no_host_rows(monkeypatch):
    # rows are tuples of ints, which the cyclic GC stops tracking; the
    # split reads the oriented host's end lists only, so its rows are never
    # built, nor are G2's, whose reversal the in-oracle runs on builds its
    # own; once built, the engine refers to the host no more
    g = gen_random_regular_graph(2400, 31, seed=11)
    hosts, orient = [], preprocess.eulerian_orient
    monkeypatch.setattr(preprocess, "eulerian_orient", lambda *args: hosts.append(orient(*args)) or hosts[-1])
    gc.collect()
    tracked = len(gc.get_objects())
    eng = RoutingEngine(g, desk_profile(2400, 31))
    gc.collect()
    assert len(gc.get_objects()) - tracked < 1000
    [host] = hosts
    hosts.clear()
    assert sys.getrefcount(host) == 2  # `host` and the call's argument; a Digraph takes no weakref
    for unread in (host, eng.g2):  # a read would build the rows there
        assert "out_adj" not in vars(unread) and "in_adj" not in vars(unread)
    rows = chain(g.inc, *(chain(sub.out_adj, sub.in_adj) for sub in (eng.g1, eng.in_oracle.host, eng.g3)))
    assert not any(map(gc.is_tracked, rows))
    assert len(host.out_adj) == len(host.in_adj) == 2400 and host.regularity() == 15


SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")

# The fresh engine it is given, running the paper's mechanism alone: trees
# meet only at a shared vertex, picks prefer only heads in the other tree,
# and trees that meet nothing take the breadth-first connector.
ABLATE = runpy.run_path(os.path.join(SCRIPTS, "ablate.py"), run_name="ablate")
_paper_only = ABLATE["paper_only"]


def _check_picks(orc, rows, picks):
    """Wrap `orc.grow_tree` on the instance so that each pick is checked
    against `first_pick` over the reach rows `rows`, with the tree's
    `prefer` set as it stands at the pick, and counted in `picks`."""
    grow = orc.grow_tree

    def checked(parent, edges, vertex_cap, meets, prefer):
        return checked_picks(orc, grow(parent, edges, vertex_cap, meets, prefer), parent, edges, prefer, rows, picks)

    orc.grow_tree = checked


@pytest.mark.parametrize("n,ops", [(150, 400), (600, 1000)])
def test_paper_mechanism_alone_serves_churn(n, ops):
    # the paper's own mechanism, kept under test: with one-vertex reach rows
    # and outermost balls, set on the instance, trees meet only at a
    # shared vertex and no meeting link runs; trees that meet nothing grow
    # to full size and take the breadth-first connector, the same G3 search
    # run from the whole out-tree with the hop budget, and fit within it.
    # Every pick of both oracles follows the rule spelled out over
    # one-vertex reach rows, and every edge either oracle adds is such a pick
    prof = desk_profile(n, 30)
    eng = _paper_only(RoutingEngine(gen_random_regular_graph(n, 30, seed=11), prof))
    calls, picks = [], []
    for name in ("link_out", "link_in"):
        _count_calls(eng, name, calls, lambda sources, keys, own, hops: hops)
    for orc in (eng.out_oracle, eng.in_oracle):
        _check_picks(orc, one_vertex_rows(n), picks)
    cmds = gen_workload("churn", n, {"ops": ops, "live_target": prof.r // 2}, 5, prof.endpoint_cap, prof.r)
    report = run_trace(eng, cmds, verify_every=1)
    assert report.failures == [] and report.requests_served == ops
    assert (report.verifies_run, report.verify_findings) == (ops, 0)
    assert max(report.connector_length_histogram) <= prof.depth_cap
    assert MEETING_RADIUS < prof.depth_cap
    assert set(calls) == {("link_out", prof.depth_cap)}
    assert len(picks) == eng.out_oracle.add_calls + eng.in_oracle.add_calls > 0


def test_ablate_script_reports_the_paper_mechanism_against_head():
    # scripts/ablate.py's small case: both mechanisms serve the same trace,
    # only the paper's runs connector searches and only the router as built
    # meets through G3 links, with fewer oracle adds per find
    prof, rows = ABLATE["run_case"]("small")
    paper, head = rows["paper"], rows["head"]
    assert paper["served"] == head["served"] > 0 and paper["failures"] == head["failures"] == 0
    assert paper["connector_searches"] > 0 == head["connector_searches"]
    assert head["link_searches"] > 0 == paper["link_searches"]
    assert paper["adds_per_find"] > head["adds_per_find"]
    assert max(paper["max_len_over_log2n"], head["max_len_over_log2n"]) * math.log2(prof.n) <= prof.depth_cap


def test_frontier_script_fills_to_the_first_failure():
    # scripts/frontier.py's fill at n=150, d=30, seed 1, r = n: every
    # live path fits the hop budget, and the fill ends at an expansion
    # failure, far past the desk volume cap r = 6 and short of n
    row = runpy.run_path(os.path.join(SCRIPTS, "frontier.py"), run_name="frontier")["fill"](150, 30, 1)
    prof = desk_profile(150, 30)
    assert prof.r < row["live"] < 150
    assert row["max_len"] <= prof.path_len_cap and row["adds_per_find"] > 0
    assert row["first_failure"].startswith("rebalance(")


@pytest.mark.parametrize("n,d", [(150, 30), (150, 31), (300, 30), (300, 31)])
def test_paper_connector_matches_the_brute_force(n, d, probe_trees):
    # on the paper's mechanism alone, each served find's connector is the
    # brute-force shortest free G3 path of at most depth_cap edges from the
    # out-tree to the in-tree, ties to the sorted out-tree vertex and then
    # adjacency order, over the trees a probe grows and H3 as the find
    # found it; trees that met at a shared vertex need none
    prof = desk_profile(n, d)
    eng = _paper_only(RoutingEngine(gen_random_regular_graph(n, d, seed=11), prof))
    g3, h3m, find = eng.g3, eng.h3.member, eng.find_path
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
    # Every find's roots are joined by a free G3 path of one or two edges,
    # so it grows no tree, and the oracles are used only by the same trace
    # on the paper's mechanism alone
    n, d = 1024, 402
    prof = derive_profile(n, d, Fraction(9, 10), Fraction(1, 2000))
    assert not prof.relaxed and (prof.r, prof.bfs_vertex_cap) == (7, 185)
    assert (prof.oracle.out_cap, prof.oracle.in_cap) == (10, 4)
    g = gen_random_regular_graph(n, d, seed=1)
    eng = RoutingEngine(g, prof)
    # the G3 balls of radius two hold each vertex once, not 1 + deg + deg^2 entries
    assert all(len(ball) <= n for ball in chain(eng.out_balls[2], eng.in_balls[2]))
    cmds = gen_workload("churn", n, {"ops": 200, "live_target": prof.r - 1}, 1, prof.endpoint_cap, prof.r)
    paper = _paper_only(RoutingEngine(g, prof))
    for engine in (eng, paper):
        report = run_trace(engine, cmds, verify_every=1)
        assert report.failures == [] and report.requests_served == 200
        assert (report.verifies_run, report.verify_findings) == (200, 0)
    assert min(paper.out_oracle.add_calls, paper.in_oracle.add_calls) > 0


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
    """Wrap oracle.rollback to collect the tags of each log it undoes."""
    rollback = oracle.rollback

    def watched():
        ops.extend(op for op, *_ in undo_entries(oracle))
        return rollback()

    return watched


def test_oracle_counters_count_every_tree_edge(probe_trees):
    # the undo logs count each edge a find put in H once, kept or rolled
    # back, so a find's add_calls deltas are its trees' sizes: met at a
    # shared vertex or through a G3 path of one to four edges, unmet and
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
    # edges than the default r * depth_cap; verify must still pass. With
    # r = n the fill stops once |H1| passes that bound, not at r: here at
    # 105 live paths (|H1| = 66); pushed much further, the random fill
    # reaches the load frontier, past which finds fail
    n = r = 150
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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_true_hover_at_340_live_paths_serves_every_find(seed):
    # a true hover: with r = T + 1 the churn generator finds only below its
    # live target T = 340, so the live count holds at T. At n=1200, d=30,
    # trees whose vertices picked two edges each failed 516, 606 and 530
    # of these finds; trees whose vertices pick up to their out-cap serve
    # every one, with a clean verify every 100 ops
    n, d, target = 1200, 30, 340
    prof = replace(desk_profile(n, d), r=target + 1)
    eng = RoutingEngine(gen_random_regular_graph(n, d, seed=seed), prof)
    cmds = gen_workload("churn", n, {"ops": 3000, "live_target": target}, seed, prof.endpoint_cap, prof.r)
    report = run_trace(eng, cmds, verify_every=100)
    assert report.failures == [] and report.requests_served == 3000
    assert (report.verifies_run, report.verify_findings) == (30, 0)
    assert len(eng.ledger.paths) == target


def test_true_hover_past_the_frontier_rolls_every_failure_back():
    # a true hover past the frontier at n=600, d=30 (graph and trace seed
    # 1): r = T + 1 with T = 320 over 2,000 churn ops, with the desk oracle
    # thresholds written out (saturation at 2 in-edges, buffering at
    # lt = d' - out_cap saturated out-heads), so a retune of the desk
    # profile cannot take this run off the buffering path. Finds fail with
    # no lever forcing them: 226 ExpansionViolations here (none at T = 280,
    # 99 at T = 300), once the oracles have buffered. Each failed find
    # leaves the state snapshot as it found it, and a verify after every
    # request is clean
    n, d, target = 600, 30, 320
    desk = desk_profile(n, d)
    thresholds = {"sat_threshold": Fraction(2), "low_threshold": Fraction(desk.d_prime - desk.oracle.out_cap)}
    prof = replace(desk, r=target + 1, oracle=replace(desk.oracle, **thresholds))
    eng = RoutingEngine(gen_random_regular_graph(n, d, seed=1), prof)
    cmds = gen_workload("churn", n, {"ops": 2000, "live_target": target}, 1, prof.endpoint_cap, prof.r)
    find, unchanged = eng.find_path, []

    def watched(a, b):
        before = state_snapshot(eng)
        try:
            return find(a, b)
        except ExpansionViolation:
            unchanged.append(state_snapshot(eng) == before)
            raise

    eng.find_path = watched
    report = run_trace(eng, cmds, verify_every=1)
    assert (report.verifies_run, report.verify_findings) == (2000, 0)
    violations = sum(kind == "expansion-violation" for _, kind, _ in report.failures)
    assert violations == len(unchanged) >= 100 and all(unchanged), violations
    assert min(eng.out_oracle.low_additions, eng.in_oracle.low_additions) > 0


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
    # pair of trees is within four free G3 edges, and no find reaches the
    # search
    g = gen_random_regular_graph(150, 30, seed=21)
    eng = RoutingEngine(g, depth_capped(desk_profile(150, 30), 2))
    coin = random.Random(1)
    held = [e for e in range(eng.g3.m) if coin.random() < 0.5]
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
