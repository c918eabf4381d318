import copy
import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from conftest import (
    checked_picks, drive, dump, first_pick, never, one_vertex_rows, one_vertex_tree, oriented_host, set_reach,
    tree_by_single_adds, undo_entries,
)
from expander_routing.errors import CallerError, ExpansionViolation
from expander_routing.graph import Digraph
from expander_routing.oracle import EdgeOracle
from expander_routing.profiles import OracleProfile, canonical_oracle_profile, derive_profile
from test_audit_differential import loaded_oracle, reference_audit


def small_profile(d, **kw):
    base = dict(
        out_cap=d // 2,
        in_cap=max(1, d // 5),
        sat_threshold=Fraction(max(1, d // 10)),
        low_threshold=Fraction(d, 4),
    )
    base.update(kw)
    return OracleProfile(**base)


def scratch_state(orc):
    """Recompute (sat set, low set, F in/out) straight from memberships."""
    host = orc.host
    n = host.n
    in_f = [0] * n
    out_f = [0] * n
    for e in range(host.m):
        if orc.state[e]:
            out_f[host.tails[e]] += 1
            in_f[host.heads[e]] += 1
    prof = orc.profile
    sat = {v for v in range(n) if in_f[v] >= prof.sat_threshold}
    low = set()
    for v in range(n):
        hits = sum(1 for e in host.out_adj[v] if host.heads[e] in sat)
        if hits >= prof.low_threshold:
            low.add(v)
    return sat, low, in_f, out_f


def test_fresh_oracle_is_empty():
    host = oriented_host(30, 10, seed=1)
    orc = EdgeOracle(host, canonical_oracle_profile(10))
    assert len(orc.h) == 0 and len(orc.b) == 0
    assert not any(orc.sat) and not any(orc.low)
    assert orc.audit(orc.h.members()).ok


def test_nine_regular_host_rejected_when_strict():
    # a strict profile refuses oracle hosts of degree d' < 10
    strict = derive_profile(1024, 400, "1/100", "1/2000")
    with pytest.raises(CallerError, match="d_prime"):
        dataclasses.replace(strict, d_prime=9, oracle=canonical_oracle_profile(9))
    # relaxed profiles may waive the minimum-degree hypothesis
    assert dataclasses.replace(strict, d_prime=9, relaxed=True).d_prime == 9
    host = oriented_host(30, 9, seed=1)
    orc = EdgeOracle(host, canonical_oracle_profile(9))
    assert orc.audit(orc.h.members()).ok


def test_host_regularity_must_match_profile():
    # thresholds are set by a regular host's degree; an irregular host has none
    host = Digraph(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(CallerError, match="not regular"):
        EdgeOracle(host, small_profile(2))


@pytest.mark.parametrize(
    "field, value",
    [("sat_threshold", Fraction(0)), ("low_threshold", Fraction(-1, 2)), ("out_cap", -1), ("in_cap", -1)],
)
def test_thresholds_below_one_edge_refused(field, value):
    # audit counts on an untouched vertex breaking no rule: with a threshold
    # at or below 0 it would be due for Sat or Low, and with a negative cap over it
    host = oriented_host(30, 10, seed=1)
    with pytest.raises(CallerError, match="oracle thresholds must be positive and caps at least 0"):
        EdgeOracle(host, small_profile(10, **{field: value}))


def test_first_add_returns_first_out_edge():
    # first in pick order: v's host row rotated by v mod out-degree
    host = oriented_host(30, 10, seed=2)
    orc = EdgeOracle(host, canonical_oracle_profile(10))
    e = orc.add_edge(0)
    assert e == host.out_adj[0][0]
    assert orc.h.in_deg[host.heads[e]] == 1
    for v in (7, 13, 29):
        orc = EdgeOracle(host, canonical_oracle_profile(10))
        assert orc.add_edge(v) == host.out_adj[v][v % 10]
    # a row that starts with a self-loop: the loop discovers no vertex, and
    # the add is still one pick, though v has out-cap to spare
    loops = Digraph(3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)])
    orc = EdgeOracle(loops, small_profile(2, out_cap=2, sat_threshold=Fraction(3), low_threshold=Fraction(3)))
    assert orc.add_edge(0) == 0
    assert len(orc.h) == orc.add_calls == 1 and orc.audit(orc.h.members()).ok


def test_out_cap_precondition():
    host = oriented_host(30, 10, seed=3)
    prof = small_profile(
        10, out_cap=5, in_cap=2, sat_threshold=Fraction(2), low_threshold=Fraction(9)
    )
    orc = EdgeOracle(host, prof)
    for _ in range(5):
        orc.add_edge(4)
    with pytest.raises(CallerError):
        orc.add_edge(4)


def test_add_remove_round_trip_restores_empty():
    host = oriented_host(30, 10, seed=5)
    orc = EdgeOracle(host, canonical_oracle_profile(10))
    e = orc.add_edge(7)
    orc.remove_edge(e)
    assert len(orc.h) == 0 and len(orc.b) == 0
    assert not any(orc.sat) and not any(orc.low)
    assert orc.audit(orc.h.members()).ok


def test_remove_unknown_edge():
    host = oriented_host(30, 10, seed=6)
    orc = EdgeOracle(host, canonical_oracle_profile(10))
    with pytest.raises(CallerError):
        orc.remove_edge(3)


def test_grow_tree_needs_an_open_log():
    host = oriented_host(30, 10, seed=6)
    orc = EdgeOracle(host, canonical_oracle_profile(10))
    # the check runs at the first resume of the generator
    tree = orc.grow_tree({0: None}, [], 4, never, frozenset())
    with pytest.raises(CallerError):
        next(tree)
    assert len(orc.h) == 0 and orc.add_calls == 0


def _counters(orc):
    return orc.add_calls, orc.remove_calls, orc.walk_searches, orc.low_additions


def test_release_checks_the_whole_batch_first():
    host = oriented_host(30, 10, seed=7)
    orc = EdgeOracle(host, small_profile(10, low_threshold=Fraction(9)))
    active = [orc.add_edge(v) for v in range(6)]
    assert any(orc.sat)
    inactive = next(e for e in range(host.m) if orc.state[e] != 1)
    before = (dump(orc), list(orc.sat_out), _counters(orc))
    for batch in (
        active[:3] + [inactive] + active[3:],
        active[:3] + [active[1]],
        active + [host.m],
        [-1] + active,
    ):
        with pytest.raises(CallerError):
            orc.release(batch)
        assert (dump(orc), list(orc.sat_out), _counters(orc)) == before
    orc.release(active)
    assert len(orc.h) == 0 and orc.remove_calls == len(active)
    assert orc.audit(orc.h.members()).ok


def test_removal_is_refused_while_a_log_is_open():
    # the log holds additions only; a request hands edges back after it closes
    host = oriented_host(30, 10, seed=7)
    orc = EdgeOracle(host, small_profile(10, low_threshold=Fraction(9)))
    held = [orc.add_edge(v) for v in range(4)]
    with orc.request_log():
        [e] = one_vertex_tree(orc, 5)
        before = (dump(orc), list(orc.sat_out), _counters(orc))
        for remove, arg in ((orc.remove_edge, e), (orc.release, [e]), (orc.release, held)):
            with pytest.raises(CallerError, match="log is open"):
                remove(arg)
            assert (dump(orc), list(orc.sat_out), _counters(orc)) == before
    assert orc._undo is None and orc.state[e] == 1
    assert orc.audit(orc.h.members()).ok
    orc.release(held + [e])
    assert len(orc.h) == 0 and orc.audit(orc.h.members()).ok


def test_nested_request_log_is_refused():
    # a nested open would empty the outer log and close it on its way out,
    # so the outer rollback could not undo the outer request's adds
    host = oriented_host(30, 10, seed=7)
    orc = EdgeOracle(host, small_profile(10, low_threshold=Fraction(9)))
    empty = (dump(orc), list(orc.sat_out))
    with pytest.raises(RuntimeError, match="outer"):
        with orc.request_log():
            one_vertex_tree(orc, 3)
            before = (dump(orc), list(orc.sat_out), _counters(orc), list(orc._undo))
            with pytest.raises(CallerError, match="already open"):
                orc.request_log()
            assert (dump(orc), list(orc.sat_out), _counters(orc), list(orc._undo)) == before
            one_vertex_tree(orc, 5)
            raise RuntimeError("outer request fails")
    assert orc._undo is None and (dump(orc), list(orc.sat_out)) == empty
    assert orc.add_calls == 2 and orc.audit(orc.h.members()).ok


def test_add_edge_inside_an_open_log_is_refused():
    # add_edge is a request of its own, so it opens a log: inside an open
    # one it is refused like any nested open, and changes nothing
    host = oriented_host(30, 10, seed=7)
    orc = EdgeOracle(host, small_profile(10, low_threshold=Fraction(9)))
    held = orc.add_edge(2)
    with orc.request_log():
        one_vertex_tree(orc, 3)
        before = (dump(orc), list(orc.sat_out), _counters(orc), list(orc._undo))
        for v in (3, 4):
            with pytest.raises(CallerError, match="already open"):
                orc.add_edge(v)
            assert (dump(orc), list(orc.sat_out), _counters(orc), list(orc._undo)) == before
    assert orc.add_calls == 2 and len(orc.h) == 2 and orc.state[held] == 1
    assert orc.audit(orc.h.members()).ok


# --- alternating walks -------------------------------------------------------


def host_5():
    return Digraph(
        5,
        [
            (0, 1), (0, 4), (1, 2), (1, 0), (2, 1),
            (2, 3), (3, 0), (3, 4), (4, 3), (4, 2),
        ],
    )


def enumerate_walks(orc, x, limit=6):
    """Every alternating walk from x with distinct edges, by brute force."""
    host = orc.host
    found = []

    def extend(tail, edges, verts):
        for e in host.out_adj[tail]:
            if orc.state[e] or e in edges:
                continue
            w = host.heads[e]
            walk_edges = edges + [(e, True)]
            found.append((walk_edges, verts + [w]))
            if len(walk_edges) < limit:
                for eb in host.in_adj[w]:
                    if orc.state[eb] != 2 or eb in {ed for ed, _ in walk_edges}:
                        continue
                    extend(host.tails[eb], walk_edges + [(eb, False)], verts + [w, host.tails[eb]])

    def unique_edges(walk):
        ids = [e for e, _ in walk[0]]
        return len(ids) == len(set(ids))

    extend(x, [], [x])
    return [w for w in found if unique_edges(w)]


def test_walk_single_forward_edge(walk_vertices):
    host = host_5()
    prof = small_profile(2, out_cap=2, in_cap=1, sat_threshold=Fraction(1))
    orc = EdgeOracle(host, prof)
    walk = orc.find_alternating_walk(0)
    assert walk is not None
    edges, y = walk
    assert edges == [(0, True)]
    assert walk_vertices(orc, 0, edges) == [0, 1]
    assert y == 1


def test_walk_three_edges_through_buffer(walk_vertices):
    host = host_5()
    prof = small_profile(2, out_cap=2, in_cap=1, sat_threshold=Fraction(1))
    orc = EdgeOracle(host, prof)
    orc.h.add(7)   # (3,4): head 4 carries an active in-edge
    orc.b.add(4)   # (2,1): buffered edge into head 1
    walk = orc.find_alternating_walk(0)
    assert walk is not None
    edges, y = walk
    verts = walk_vertices(orc, 0, edges)
    assert verts == [0, 1, 2, 3]
    assert y == 3
    assert edges == [(0, True), (4, False), (5, True)]
    # cross-check against exhaustive enumeration: no 1-edge walk reaches a
    # free head, and the returned walk is among the enumerated 3-edge ones
    walks = enumerate_walks(orc, 0)
    qualifying = [
        (we, vs) for we, vs in walks if orc.h.in_deg[vs[-1]] + orc.b.in_deg[vs[-1]] < prof.in_cap
    ]
    assert min(len(we) for we, _ in qualifying) == 3
    assert (edges, verts) in qualifying


def test_walk_toggle_degree_deltas(watch_walks):
    host = oriented_host(80, 12, seed=21)
    prof = OracleProfile(
        out_cap=3, in_cap=2, sat_threshold=Fraction(2), low_threshold=Fraction(5)
    )
    orc = EdgeOracle(host, prof)
    records = watch_walks(orc)
    rng = random.Random(3)
    active = []
    for _ in range(3000):
        if len(active) < 150 or rng.random() < 0.5:
            pool = [v for v in range(80) if orc.h.out_deg[v] < prof.out_cap]
            if not pool:
                continue
            v = pool[rng.randrange(len(pool))]
            try:
                active.append(orc.add_edge(v))
            except ExpansionViolation:
                pass
        elif active:
            i = rng.randrange(len(active))
            active[i], active[-1] = active[-1], active[i]
            orc.remove_edge(active.pop())
    assert records, "expected at least one rebalancing event"
    for rec in records:
        x, y = rec["x"], rec["y"]
        for v in set(rec["vertices"]):
            out_before, in_before = rec["before"][v]
            out_after, in_after = rec["after"][v]
            assert out_after == out_before + (1 if v == x else 0)
            assert in_after == in_before + (1 if v == y else 0)


# --- invariants under churn ---------------------------------------------------


def test_scratch_recompute_matches_under_churn():
    host = oriented_host(100, 20, seed=12)
    prof = OracleProfile(
        out_cap=4, in_cap=4, sat_threshold=Fraction(2), low_threshold=Fraction(10)
    )
    orc = EdgeOracle(host, prof)
    rng = random.Random(17)
    active = []
    for step in range(1500):
        if len(active) < 90 and (len(active) < 40 or rng.random() < 0.55):
            pool = [v for v in range(100) if orc.h.out_deg[v] < prof.out_cap]
            v = pool[rng.randrange(len(pool))]
            e = orc.add_edge(v)
            assert orc.h.in_deg[host.heads[e]] - 1 < prof.in_cap
            active.append(e)
        elif active:
            i = rng.randrange(len(active))
            active[i], active[-1] = active[-1], active[i]
            orc.remove_edge(active.pop())
        if step % 10 == 0:
            sat, low, in_f, out_f = scratch_state(orc)
            assert sat == {v for v in range(100) if orc.sat[v]}
            assert low == {v for v in range(100) if orc.low[v]}
            assert orc.audit(orc.h.members()).ok


def test_failed_add_rolls_back_bit_exactly():
    # canonical thresholds on a small dense host ignite buffering storms,
    # which is exactly the walk-failure path we want to observe
    host = oriented_host(40, 10, seed=33)
    prof = canonical_oracle_profile(10)
    orc = EdgeOracle(host, prof)
    search, results = orc.find_alternating_walk, []

    def counted_search(x):
        results.append(search(x))
        return results[-1]

    orc.find_alternating_walk = counted_search
    rng = random.Random(2)
    saw_failure = False
    for _ in range(4000):
        pool = [v for v in range(40) if orc.h.out_deg[v] < prof.out_cap]
        if not pool:
            break
        v = pool[rng.randrange(len(pool))]
        before = dump(orc)
        h_members = orc.h.members()
        try:
            orc.add_edge(v)
        except ExpansionViolation:
            saw_failure = True
            assert dump(orc) == before
            assert orc.h.members() == h_members
            assert orc.audit(orc.h.members()).ok
            # the failing search counts too
            assert results[-1] is None and orc.walk_searches == len(results)
            break
    assert saw_failure, "expected the dense regime to force a walk failure"


@pytest.mark.parametrize(
    "low_threshold, message, added",
    [
        # no vertex can join Low, so the pick itself fails: nothing entered H
        (Fraction(11), "all free out-edges saturated", 0),
        # the pick saturates its head and the rebalance after it fails
        (Fraction(10, 4), "no alternating walk", 1),
    ],
)
def test_failed_add_counts_the_edges_it_put_in_h(low_threshold, message, added):
    # every head saturates at its first in-edge; add_calls counts each
    # edge that entered H once, kept or rolled back
    host = oriented_host(30, 10, seed=1)
    prof = small_profile(10, sat_threshold=Fraction(1), low_threshold=low_threshold)
    orc = EdgeOracle(host, prof)
    for v in list(range(30)) * 3:
        calls = orc.add_calls
        try:
            orc.add_edge(v)
        except CallerError:
            continue
        except ExpansionViolation as exc:
            assert message in str(exc)
            break
    else:
        pytest.fail("no add failed")
    assert orc.add_calls - calls == added
    assert orc.add_calls == len(orc.h) + added
    # inside an open log, the same picks as one-vertex trees (one at its
    # cap asks for nothing): the failure rolls the whole log back, and
    # counts every edge that entered H, the kept ones too
    one = EdgeOracle(host, prof)
    with pytest.raises(ExpansionViolation, match=message):
        with one.request_log():
            for v in list(range(30)) * 3:
                one_vertex_tree(one, v)
    assert len(one.h) == 0 and dump(one) == dump(EdgeOracle(host, prof))
    assert one.add_calls == orc.add_calls


def test_buffered_vertex_served_from_stock():
    host = oriented_host(100, 20, seed=12)
    prof = OracleProfile(
        out_cap=4, in_cap=4, sat_threshold=Fraction(2), low_threshold=Fraction(10)
    )
    orc = EdgeOracle(host, prof)
    rng = random.Random(17)
    active = []
    served_from_stock = False
    for _ in range(1500):
        lows = [x for x in range(100) if orc.low[x] and orc.h.out_deg[x] < prof.out_cap]
        if lows:
            x = lows[0]
            stock_before = [e for e in host.out_adj[x] if orc.state[e] == 2]
            e = orc.add_edge(x)
            assert e == stock_before[0]
            assert orc.state[e] == 1
            assert orc.audit(orc.h.members()).ok
            served_from_stock = True
            break
        if len(active) < 90 and (len(active) < 30 or rng.random() < 0.55):
            pool = [v for v in range(100) if orc.h.out_deg[v] < prof.out_cap]
            v = pool[rng.randrange(len(pool))]
            active.append(orc.add_edge(v))
        elif active:
            i = rng.randrange(len(active))
            active[i], active[-1] = active[-1], active[i]
            orc.remove_edge(active.pop())
    assert served_from_stock, "seeded run never promoted a vertex"


def test_h_and_b_refuse_each_others_edges():
    # H and B share one state list, so an edge held by one is refused by the other
    orc = loaded_oracle()
    h_edge, b_edge = orc.h.members()[0], orc.b.members()[0]

    def snapshot():
        subsets = [(list(s.out_deg), list(s.in_deg), len(s)) for s in (orc.h, orc.b)]
        return list(orc.state), subsets, list(orc.sat_out), _counters(orc)

    before = snapshot()
    for sub, e in ((orc.b, h_edge), (orc.h, b_edge)):
        with pytest.raises(CallerError, match="already in a subset"):
            sub.add(e)
        assert snapshot() == before
    for sub, e in ((orc.h, b_edge), (orc.b, h_edge)):
        with pytest.raises(CallerError, match="not in subset"):
            sub.remove(e)
        assert snapshot() == before
    assert orc.state[h_edge] == 1 and orc.state[b_edge] == 2
    assert orc.audit(orc.h.members()).ok


def test_audit_holds_around_every_request_and_walk():
    host = oriented_host(60, 12, seed=19)
    prof = OracleProfile(
        out_cap=3, in_cap=2, sat_threshold=Fraction(2), low_threshold=Fraction(5)
    )
    orc = EdgeOracle(host, prof)
    search, add_edge, remove_edge = orc.find_alternating_walk, orc.add_edge, orc.remove_edge
    searches = []

    def audited_search(x):
        # mid-request: Low vertices may still be below their stock, which
        # only the reference audit's non-quiescent mode allows
        findings, _ = reference_audit(orc, quiescent=False)
        assert not findings, findings
        searches.append(x)
        return search(x)

    def audited(request):
        def call(arg):
            try:
                return request(arg)
            finally:
                report = orc.audit(orc.h.members())
                assert report.ok, report
        return call

    orc.find_alternating_walk = audited_search
    orc.add_edge = audited(add_edge)
    orc.remove_edge = audited(remove_edge)
    rng = random.Random(23)
    active = []
    for _ in range(400):
        if len(active) < 90 or rng.random() < 0.5:
            pool = [v for v in range(60) if orc.h.out_deg[v] < prof.out_cap]
            if not pool:
                continue
            v = pool[rng.randrange(len(pool))]
            try:
                active.append(orc.add_edge(v))
            except ExpansionViolation:
                pass
        elif active:
            i = rng.randrange(len(active))
            active[i], active[-1] = active[-1], active[i]
            orc.remove_edge(active.pop())
    assert searches, "expected walk searches to audit before"
    assert orc.audit(orc.h.members()).ok


def test_audit_flags_corrupted_counter():
    host = oriented_host(30, 10, seed=13)
    orc = EdgeOracle(host, canonical_oracle_profile(10))
    orc.add_edge(0)
    orc.h.out_deg[0] += 1
    rep = orc.audit(orc.h.members())
    assert not rep.ok
    assert any("H out-degree counters" in f for f in rep.findings)
    orc.h.out_deg[0] -= 1
    assert orc.audit(orc.h.members()).ok


def test_audit_flags_planted_sat_member():
    host = oriented_host(30, 10, seed=14)
    orc = EdgeOracle(host, canonical_oracle_profile(10))
    orc.sat[5] = True
    rep = orc.audit(orc.h.members())
    assert any("Sat mismatch at 5" in f for f in rep.findings)


def test_dump_is_stable():
    host = oriented_host(30, 10, seed=15)
    orc = EdgeOracle(host, canonical_oracle_profile(10))
    e1 = orc.add_edge(0)
    e2 = orc.add_edge(1)
    expected = "H: %d %d\nB:\nSat: %d %d\nLow:\n" % (
        *sorted((e1, e2)),
        *sorted((host.heads[e1], host.heads[e2])),
    )
    assert dump(orc) == expected
    assert dump(orc) == expected


MACHINE_HOST = oriented_host(40, 6, seed=41)
MACHINE_VERTICES = st.integers(0, 39)


class Forced(Exception):
    """Raised inside a request log to make it roll back."""


def _grown(orc, root, vertex_cap, meets=never, steps=None, prefer=frozenset()):
    """(edges, parent, log) of a tree grown by `grow_tree` in a fresh log,
    with pick preference `prefer`, resumed `steps` times (to its end when
    None) and then dropped. It checks that `meets` was asked about every
    discovery once, in discovery order, each the last key of the tree by
    then."""
    edges, parent, asked = [], {root: None}, []

    def watched(w):
        asked.append((w, next(reversed(parent))))
        return meets(w)

    with orc.request_log():
        drive(orc.grow_tree(parent, edges, vertex_cap, watched, prefer), steps)
        assert asked == [(w, w) for w in list(parent)[1:]]
        return edges, parent, undo_entries(orc)


def _after_seeded_adds(rows=None):
    """A 60-vertex oracle with reach rows `rows` after 40 seeded adds: it
    holds Low vertices (B-stock picks) and saturated heads, and has
    rebalanced. An add prefers nothing, so its state is the same for any rows."""
    host = oriented_host(60, 8, seed=12)
    caps = dict(out_cap=3, in_cap=3, sat_threshold=Fraction(2), low_threshold=Fraction(3))
    base = EdgeOracle(host, small_profile(8, **caps), rows)
    rng = random.Random(4)
    for _ in range(40):
        try:
            base.add_edge(rng.randrange(60))
        except (CallerError, ExpansionViolation):
            pass
    return base


def test_each_pick_follows_the_rule_spelled_out():
    # on an oracle with Sat and Low vertices, a one-vertex tree at every
    # vertex, under random preference sets, takes the edge `first_pick`
    # names, or fails when it names none; picks of every kind occur, with
    # the default one-vertex reach rows and with rows that hold each head
    # and three random vertices, as the router's radius-1 G3 balls hold a
    # vertex and its three G3 ends
    rng = random.Random(5)
    ball_like = [(v, *rng.sample(range(60), 3)) for v in range(60)]
    for rows in (None, ball_like):
        base = _after_seeded_adds(rows)
        kinds = set()
        for u in range(60):
            if base.h.out_deg[u] >= base.profile.out_cap:
                continue
            for prefer in (frozenset(), frozenset(rng.sample(range(60), 6)), frozenset(rng.sample(range(60), 20))):
                orc = copy.deepcopy(base)
                want, kind = first_pick(orc, u, prefer, rows or one_vertex_rows(60))
                with orc.request_log():
                    if want is None:
                        with pytest.raises(ExpansionViolation):
                            one_vertex_tree(orc, u, prefer)
                        continue
                    assert one_vertex_tree(orc, u, prefer) == [want]
                kinds.add(kind)
        assert kinds == {"stock", "first", "preferred", "passed over"}, (rows is None, kinds)


def test_stopped_tree_is_a_prefix_of_the_unstopped_tree():
    # after 40 seeded adds the tree meets Low vertices (B-stock picks),
    # saturates heads and rebalances, so every kind of log entry occurs
    base = _after_seeded_adds()
    root = next(v for v in range(60) if base.h.out_deg[v] == 0)
    edges, parent, full_log = _grown(copy.deepcopy(base), root, 40)
    assert {op for op, *_ in full_log} == {"h+", "b+", "b-", "s+", "l+"}
    verts = list(parent)
    assert len(verts) > 20
    for k, w in enumerate(verts):
        # a tree that meets w and everything discovered after it must end
        # at w, its first vertex in discovery order (the root is never
        # discovered); a tree dropped after k resumes has made k picks
        cases = [((), k)]
        if k:
            cases.append((set(verts[k:]), None))
        for meet, steps in cases:
            stopped, single = copy.deepcopy(base), copy.deepcopy(base)
            got_edges, got_parent, log = _grown(stopped, root, 40, meet.__contains__, steps)
            if meet:
                kept = edges.index(parent[w][1]) + 1
                assert (got_edges, got_parent) == (edges[:kept], dict(zip(verts[: k + 1], parent.values())))
            else:
                kept = len(got_edges)
                assert got_edges == edges[:k]
                assert list(got_parent.items()) == list(parent.items())[: len(got_parent)]
            assert log == full_log[: len(log)]
            with single.request_log():
                assert tree_by_single_adds(single, {root: None}, 40, meet.__contains__, steps) == (
                    got_edges, got_parent
                )
                assert undo_entries(single) == log
            assert stopped.add_calls - base.add_calls == kept
            assert (dump(stopped), stopped.sat_out, _counters(stopped)) == (
                dump(single), single.sat_out, _counters(single)
            )


def test_grown_tree_holds_at_most_out_cap_times_vertex_cap_edges():
    # at most vertex_cap dequeued vertices pick, each up to its out-cap,
    # so trees need no edge cap of their own
    host = oriented_host(60, 20, seed=12)
    for out_cap in (1, 2, 4, 10):
        prof = small_profile(20, out_cap=out_cap, in_cap=4, sat_threshold=Fraction(4), low_threshold=Fraction(21))
        for root in range(0, 60, 7):
            for vertex_cap in (1, 2, 5, 12, 40):
                edges, _, _ = _grown(EdgeOracle(host, prof), root, vertex_cap)
                assert len(edges) <= out_cap * vertex_cap
                if vertex_cap == 1:
                    # the root alone picks, out_cap times: the bound is met
                    assert len(edges) == out_cap


class MachineOracle(EdgeOracle):
    """An oracle that checks each pick against `first_pick` over the reach
    rows `rows` (one-vertex rows if None), lists it in `picks`, and tallies
    the H additions its rollbacks undo; a subclass, so a deep copy keeps
    checking its own picks and rolling back itself."""

    undone = 0
    rows = None

    def __init__(self, host, profile):
        super().__init__(host, profile)
        self.picks = []

    def grow_tree(self, parent, edges, vertex_cap, meets, prefer):
        tree = super().grow_tree(parent, edges, vertex_cap, meets, prefer)
        return checked_picks(self, tree, parent, edges, prefer, self.rows or one_vertex_rows(self.host.n), self.picks)

    def rollback(self):
        self.undone += sum(undo == self.h.remove for undo, *_ in self._undo)
        super().rollback()


class OracleMachine(RuleBasedStateMachine):
    """Adds, removes and rolled-back requests on one small oracle. Every
    step leaves a clean audit; every raised add, and every request log
    that ends in an exception, leaves the state as it was. The tight caps
    make adds fail, vertices buffer and removals demote them again."""

    CAPS = dict(out_cap=3, in_cap=2, sat_threshold=Fraction(2), low_threshold=Fraction(3))

    def __init__(self):
        super().__init__()
        self.orc = MachineOracle(MACHINE_HOST, small_profile(6, **self.CAPS))

    def _state(self):
        return dump(self.orc), list(self.orc.sat_out)

    @rule(vs=st.lists(MACHINE_VERTICES, min_size=1, max_size=8))
    def add_edges(self, vs):
        for v in vs:
            before = self._state()
            calls, undone = self.orc.add_calls, self.orc.undone
            try:
                self.orc.add_edge(v)
            except CallerError:
                assert (self._state(), self.orc.add_calls) == (before, calls)
            except ExpansionViolation:
                # it counts the one edge its pick put in H, or none if the pick failed
                assert self._state() == before
                assert self.orc.add_calls - calls == self.orc.undone - undone <= 1
            else:
                assert self.orc.add_calls == calls + 1
            assert self.orc.audit(self.orc.h.members()).ok

    @precondition(lambda self: len(self.orc.h))
    @rule(data=st.data())
    def remove_edge(self, data):
        self.orc.remove_edge(data.draw(st.sampled_from(self.orc.h.members())))

    @rule(w=MACHINE_VERTICES)
    def release_head(self, w):
        # can unsaturate w and so demote buffered in-neighbours (a cascade)
        for e in MACHINE_HOST.in_adj[w]:
            if self.orc.state[e] == 1:
                self.orc.remove_edge(e)

    @rule(vs=st.lists(MACHINE_VERTICES, min_size=1, max_size=4))
    def rolled_back_request(self, vs):
        before = self._state()
        with pytest.raises((Forced, CallerError, ExpansionViolation)):
            with self.orc.request_log():
                for v in vs:
                    one_vertex_tree(self.orc, v)
                raise Forced
        assert self._state() == before

    @rule(
        root=MACHINE_VERTICES,
        vertex_cap=st.integers(1, 12),
        meet=st.sets(MACHINE_VERTICES, max_size=6),
        steps=st.none() | st.integers(0, 24),
        prefer=st.frozensets(MACHINE_VERTICES, max_size=12),
        rows=st.none() | st.lists(st.lists(MACHINE_VERTICES, max_size=4).map(tuple), min_size=40, max_size=40),
        data=st.data(),
    )
    def grow_and_hand_back(self, root, vertex_cap, meet, steps, prefer, rows, data):
        # a find's tree: grown inside a log with pick preference `prefer`
        # and reach rows `rows` (one-vertex rows if None), resumed `steps`
        # times (to its end when None) and dropped, then all but a kept
        # subset released after the log closes; the same tree grown one
        # one-vertex tree per edge on a copy must match it edge for edge,
        # and each pick of both must be the one `first_pick` names over
        # `rows`. The first discovered vertex in the meeting set `meet` ends it
        set_reach(self.orc, rows)
        self.orc.rows = rows
        ref = copy.deepcopy(self.orc)
        before, checked = self._state(), len(self.orc.picks)
        args = vertex_cap, meet.__contains__, steps
        try:
            edges, parent, _ = _grown(self.orc, root, *args, prefer)
            assert self.orc.picks[checked:] == edges
        except ExpansionViolation:
            assert self._state() == before
            with pytest.raises(ExpansionViolation):
                with ref.request_log():
                    tree_by_single_adds(ref, {root: None}, *args, lambda k: prefer)
            assert _counters(ref) == _counters(self.orc)
            return
        met = [v for v in parent if v != root and v in meet]
        assert met in ([], [next(reversed(parent))])
        assert len(edges) <= self.CAPS["out_cap"] * vertex_cap
        with ref.request_log():
            assert tree_by_single_adds(ref, {root: None}, *args, lambda k: prefer) == (edges, parent)
        assert (dump(ref), list(ref.sat_out), _counters(ref)) == (*self._state(), _counters(self.orc))
        kept = data.draw(st.sets(st.sampled_from(edges))) if edges else set()
        self.orc.release([e for e in edges if e not in kept])
        report = self.orc.audit(self.orc.h.members())
        assert report.ok, str(report)

    @invariant()
    def audit_clean(self):
        report = self.orc.audit(self.orc.h.members())
        assert report.ok, str(report)

    @invariant()
    def every_add_counted_once(self):
        # each edge that entered H is still there, was removed or was undone
        orc = self.orc
        assert orc.add_calls == len(orc.h) + orc.remove_calls + orc.undone


class HeldSaturationMachine(OracleMachine):
    """The same steps where one in-edge saturates a head: walks end at
    saturated heads, so a head can stay saturated on B edges alone after
    its H edges are removed."""

    CAPS = dict(out_cap=3, in_cap=3, sat_threshold=Fraction(1), low_threshold=Fraction(3))


TestOracleMachine = OracleMachine.TestCase
TestHeldSaturationMachine = HeldSaturationMachine.TestCase
TestOracleMachine.settings = TestHeldSaturationMachine.settings = settings(
    derandomize=True, deadline=None, max_examples=40, stateful_step_count=100
)
