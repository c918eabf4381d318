"""Differential tests: the oracle audit and the engine verify against loop references.

`reference_audit` and `reference_verify` are the straightforward
implementations that scan every edge and every vertex in Python. The
shipped `RoutingEngine.verify` checks H1, H2 and H3 against the stored
segments by count, range and membership in C, and `EdgeOracle.audit`
scans B's member array. While nothing is found, the audit recomputes
Sat at the heads of the live edges only and runs its per-vertex rules
only when a C-level test over the edge ends (out_F or in_F over its cap,
B stock off Low) fires, and verify skips its four vertex rules, which
never fire alone on the reference; once something is found, both look
at every vertex. On every planted corruption, alone or combined, and on
drawn engine states, both must report the same findings in the same
order. Two corruptions break one cap each and nothing else, so that
each of the audit's tests is the only way to its finding.
"""

import dataclasses
import inspect
import random
import sys
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import oriented_host
from expander_routing.errors import CallerError, ExpansionViolation
from expander_routing.expanders import gen_random_regular_graph
from expander_routing.graph import positions
from expander_routing.harness import gen_workload
from expander_routing.oracle import EdgeOracle
from expander_routing.profiles import OracleProfile, desk_profile
from expander_routing.router import PathRecord, RoutingEngine

# --- references: one Python pass over all m edges / all n vertices per rule ---


def reference_members(sub):
    return [e for e, tag in enumerate(sub.member) if tag == sub.tag]


def reference_recount(sub):
    out_deg = [0] * sub.owner.n
    in_deg = [0] * sub.owner.n
    size = 0
    for e, tag in enumerate(sub.member):
        if tag == sub.tag:
            out_deg[sub.owner.tails[e]] += 1
            in_deg[sub.owner.heads[e]] += 1
            size += 1
    return out_deg, in_deg, size


def reference_audit(orc, quiescent=True):
    """Returns (findings, low_count). `quiescent=False` skips the rules
    that hold only between requests (Sat and Low recomputed, a buffered
    vertex's stock at the cap), for audits in the middle of a request."""
    findings = []
    host = orc.host
    n = host.n
    prof = orc.profile
    for name, sub in (("H", orc.h), ("B", orc.b)):
        out_deg, in_deg, size = reference_recount(sub)
        if out_deg != list(sub.out_deg):
            findings.append("%s out-degree counters disagree with recount" % name)
        if in_deg != list(sub.in_deg):
            findings.append("%s in-degree counters disagree with recount" % name)
        if size != len(sub):
            findings.append("%s size %d != recounted %d" % (name, len(sub), size))
    in_f = [orc.h.in_deg[v] + orc.b.in_deg[v] for v in range(n)]
    out_f = [orc.h.out_deg[v] + orc.b.out_deg[v] for v in range(n)]
    sat_expected = [in_f[v] >= prof.sat_threshold for v in range(n)]
    sat_out_expected = [0] * n
    for e in range(host.m):
        if sat_expected[host.heads[e]]:
            sat_out_expected[host.tails[e]] += 1
    low_expected = [sat_out_expected[v] >= prof.low_threshold for v in range(n)]
    if quiescent:
        for v in range(n):
            if orc.sat[v] != sat_expected[v]:
                findings.append(
                    "Sat mismatch at %d: maintained=%s recomputed=%s (in_F=%d)"
                    % (v, bool(orc.sat[v]), sat_expected[v], in_f[v])
                )
        for v in range(n):
            if orc.low[v] != low_expected[v]:
                findings.append(
                    "Low mismatch at %d: maintained=%s recomputed=%s (sat_out=%d)"
                    % (v, bool(orc.low[v]), low_expected[v], sat_out_expected[v])
                )
        for v in range(n):
            if orc.low[v] and out_f[v] != prof.out_cap:
                findings.append(
                    "buffered vertex %d has out_F=%d, expected the cap %d"
                    % (v, out_f[v], prof.out_cap)
                )
    sat_out_maintained = [0] * n
    for e in range(host.m):
        if orc.sat[host.heads[e]]:
            sat_out_maintained[host.tails[e]] += 1
    if sat_out_maintained != list(orc.sat_out):
        bad = next(v for v in range(n) if sat_out_maintained[v] != orc.sat_out[v])
        findings.append(
            "sat_out counter at %d: maintained=%d recomputed=%d"
            % (bad, orc.sat_out[bad], sat_out_maintained[bad])
        )
    for v in range(n):
        if orc.sat[v] and in_f[v] < prof.sat_threshold:
            findings.append("saturated vertex %d has in_F=%d below threshold" % (v, in_f[v]))
        if orc.low[v] and orc.sat_out[v] < prof.low_threshold:
            findings.append("buffered vertex %d has sat_out=%d below threshold" % (v, orc.sat_out[v]))
        if not orc.low[v] and orc.b.out_deg[v] != 0:
            findings.append("vertex %d holds buffer stock without being buffered" % v)
        if out_f[v] > prof.out_cap:
            findings.append("out_F(%d)=%d exceeds cap %d" % (v, out_f[v], prof.out_cap))
        if in_f[v] > prof.in_cap:
            findings.append("in_F(%d)=%d exceeds cap %d" % (v, in_f[v], prof.in_cap))
    return findings, sum(orc.low)


def reference_walk(eng, rec):
    """The problem that stops rec's walk from a, or None: a start outside the
    graph, an id outside its subgraph (negative ones too), a segment that
    breaks, a walk that misses b."""
    v = rec.a
    if v not in range(eng.n):
        return "start %d is not a vertex" % v
    for seg, g, label in ((rec.seg_a, eng.g1, "first"), (rec.seg_mid, eng.g3, "middle"),
                          (rec.seg_b, eng.g2, "last")):
        for e in seg:
            if e not in range(g.m):
                return "%s segment holds edge %d outside its subgraph" % (label, e)
            if g.tails[e] != v:
                return "%s segment breaks at edge %d" % (label, e)
            v = g.heads[e]
    return None if v == rec.b else "walk ends at %d, not at b=%d" % (v, rec.b)


def reference_verify(eng):
    findings = []
    prof = eng.profile
    recs = list(eng.ledger.paths.values())
    for name, seg, oracle in (("H1", "seg_a", eng.out_oracle), ("H2", "seg_b", eng.in_oracle)):
        union = []
        for rec in recs:
            union.extend(getattr(rec, seg))
        if len(union) != len(set(union)):
            findings.append("%s: an edge appears in two stored paths" % name)
        elif sorted(union) != reference_members(oracle.h):
            findings.append("%s differs from the union of stored segments" % name)
    union3 = []
    for rec in recs:
        union3.extend(rec.seg_mid)
    if len(union3) != len(set(union3)):
        findings.append("H3: an edge appears in two stored paths")
    elif sorted(union3) != reference_members(eng.h3):
        findings.append("H3 differs from the union of stored middle segments")
    host_ids = []
    for rec in recs:
        # an id outside its subgraph has no host edge; the walk reports it
        for seg, to_host in ((rec.seg_a, eng.g1_host), (rec.seg_mid, eng.g3_host),
                             (rec.seg_b, eng.g2_host)):
            host_ids.extend(to_host[e] for e in seg if e in range(len(to_host)))
    if len(host_ids) != len(set(host_ids)):
        findings.append("paths are not pairwise edge-disjoint over the host")
    for rec in recs:
        problem = reference_walk(eng, rec)
        if problem:
            findings.append("path %d: %s" % (rec.id, problem))
        if len(rec.seg_a) > prof.depth_cap:
            findings.append("path %d: first segment length %d over cap" % (rec.id, len(rec.seg_a)))
        if len(rec.seg_mid) > prof.depth_cap:
            findings.append("path %d: middle segment length %d over cap" % (rec.id, len(rec.seg_mid)))
        if len(rec.seg_b) > prof.depth_cap:
            findings.append("path %d: last segment length %d over cap" % (rec.id, len(rec.seg_b)))
        if rec.length > prof.path_len_cap:
            findings.append("path %d: length %d over cap %d" % (rec.id, rec.length, prof.path_len_cap))
    count = len(recs)
    if count > prof.r:
        findings.append("live path count %d exceeds the volume cap r=%d" % (count, prof.r))
    for name, size in (("H1", len(eng.out_oracle.h)), ("H2", len(eng.in_oracle.h)), ("H3", len(eng.h3))):
        if size > count * prof.depth_cap:
            findings.append("%s size %d exceeds %d paths x depth budget" % (name, size, count))
    for v in range(eng.n):
        if eng.out_oracle.h.out_deg[v] > eng.out_oracle.h.in_deg[v] + eng.ledger.ps[v]:
            findings.append("H1 out/in imbalance at vertex %d" % v)
        if eng.in_oracle.h.out_deg[v] > eng.in_oracle.h.in_deg[v] + eng.ledger.pe[v]:
            findings.append("H2 out/in imbalance at vertex %d" % v)
        if eng.out_oracle.h.in_deg[v] > prof.oracle.in_cap:
            findings.append("H1 in-degree %d over cap at vertex %d" % (eng.out_oracle.h.in_deg[v], v))
        if eng.in_oracle.h.in_deg[v] > prof.oracle.in_cap:
            findings.append("H2 in-degree %d over cap at vertex %d" % (eng.in_oracle.h.in_deg[v], v))
    # the ends the stored paths list, against the ends each counter spells out
    for name, end, counter in (("start", "a", eng.ledger.ps), ("end", "b", eng.ledger.pe)):
        spelled = [v for v in range(eng.n) for _ in range(counter[v])]
        if sorted(getattr(rec, end) for rec in recs) != spelled:
            findings.append("%s counters disagree with the ledger" % name)
    for name, oracle in (("out-oracle", eng.out_oracle), ("in-oracle", eng.in_oracle)):
        oracle_findings, low_count = reference_audit(oracle)
        findings.extend("%s: %s" % (name, f) for f in oracle_findings)
        if not prof.relaxed and low_count * 12 >= prof.beta * eng.n:
            findings.append(
                "%s: |Low|=%d is not below beta*n/12=%s" % (name, low_count, prof.beta * eng.n / 12)
            )
    return findings


# --- loaded structures ----------------------------------------------------------


def loaded_oracle(after=lambda orc: None):
    """An oracle after 100 seeded requests: H 89, B 17, Sat 17 and Low 5
    members; `after(oracle)` is called after each request."""
    host = oriented_host(100, 20, seed=19)
    prof = OracleProfile(
        out_cap=5, in_cap=4, sat_threshold=Fraction(2), low_threshold=Fraction(6)
    )
    orc = EdgeOracle(host, prof)
    rng = random.Random(23)
    active = []
    for _ in range(100):
        if len(active) < 140 or rng.random() < 0.5:
            pool = [v for v in range(100) if orc.h.out_deg[v] < prof.out_cap]
            try:
                active.append(orc.add_edge(pool[rng.randrange(len(pool))]))
            except ExpansionViolation:
                pass
        else:
            i = rng.randrange(len(active))
            active[i], active[-1] = active[-1], active[i]
            orc.remove_edge(active.pop())
        after(orc)
    assert orc.audit(orc.h.members()).ok
    assert orc.b.members() and any(orc.low) and any(orc.sat)
    return orc


def churned_engine(n, graph_seed, churn_seed, ops, after=lambda eng: None):
    """A desk engine after a seeded churn of `ops` requests at r/2 live paths,
    calling `after(engine)` after each request.
    d=52 gives oracle hosts of degree d' = 10, the least a strict profile allows."""
    prof = desk_profile(n, 52)
    eng = RoutingEngine(gen_random_regular_graph(n, 52, seed=graph_seed), prof)
    commands = gen_workload("churn", n, {"ops": ops, "live_target": prof.r // 2}, churn_seed,
                            prof.endpoint_cap, prof.r)
    for cmd in commands:
        try:
            if cmd.kind == "find":
                eng.find_path(cmd.a, cmd.b)
            else:
                eng.remove_path(eng.ledger.resolve(cmd.ref))
        except (CallerError, ExpansionViolation):
            pass
        after(eng)
    return eng


def loaded_engine():
    eng = churned_engine(600, 21, 5, 300)
    # at d=52 nearly every find meets within four G3 edges of its roots, so
    # a churn keeps almost no in-tree edge: seeded pairs are served, each
    # path without a last segment handed back, until one holds one, so the
    # corruptions of seg_b and H2 apply
    rng = random.Random(1)
    while not any(rec.seg_b for rec in eng.ledger.paths.values()):
        a, b = rng.sample(range(eng.n), 2)
        if not eng.ledger.violation(a, b) and not (rec := eng.find_path(a, b)).seg_b:
            eng.remove_path(rec.id)
    assert eng.verify().ok and eng.ledger.paths
    # no B stock, as in every desk engine: the audits check B's counters as all 0
    assert not (eng.out_oracle.b.members() or eng.in_oracle.b.members())
    return eng


# --- planted corruptions of one oracle ----------------------------------------------


def free_edge(orc, edges=None):
    """First of `edges` (default: every host edge) in neither H nor B."""
    if edges is None:
        edges = range(orc.host.m)
    return next(e for e in edges if orc.state[e] == 0)


def first(flags, want=True):
    return next(v for v, x in enumerate(flags) if x == want)


def in_f(orc, w):
    return orc.h.in_deg[w] + orc.b.in_deg[w]


def out_f(orc, v):
    return orc.h.out_deg[v] + orc.b.out_deg[v]


def bump_h_out_deg(orc):
    orc.h.out_deg[orc.host.tails[orc.h.members()[3]]] += 1


def drop_b_in_deg(orc):
    orc.b.in_deg[orc.host.heads[orc.b.members()[0]]] -= 1


def bump_low_vertex_out_deg(orc):
    orc.h.out_deg[first(orc.low)] -= 1


def h_bit_without_counters(orc):
    orc.state[free_edge(orc)] = 1


def b_bit_without_counters(orc):
    orc.state[free_edge(orc, orc.host.out_adj[first(orc.low, False)])] = 2


def h_edge_rewritten_to_b(orc):
    # H and B share one state list, so an edge cannot be in both; the
    # nearest corruption moves an H edge to B without its counters
    orc.state[orc.h.members()[0]] = 2


def len_off_by_one(orc):
    orc.b._size += 1


def plant_sat(orc):
    orc.sat[first(orc.sat, False)] = True


def drop_sat(orc):
    orc.sat[first(orc.sat)] = False


def plant_low(orc):
    orc.low[first(orc.low, False)] = True


def drop_low(orc):
    orc.low[first(orc.low)] = False


def sat_out_off_by_one(orc):
    orc.sat_out[57] += 1


def stock_on_unbuffered_vertex(orc):
    orc.b.add(free_edge(orc, orc.host.out_adj[first(orc.low, False)]))


def out_f_over_cap(orc):
    v = first(orc.low, False)
    while orc.h.out_deg[v] + orc.b.out_deg[v] <= orc.profile.out_cap:
        orc.h.add(free_edge(orc, orc.host.out_adj[v]))


def in_f_over_cap(orc):
    w = first(orc.sat, False)
    while orc.h.in_deg[w] + orc.b.in_deg[w] <= orc.profile.in_cap:
        orc.h.add(free_edge(orc, orc.host.in_adj[w]))


# The next two break one cap alone: counters, Sat, sat_out and Low stay
# consistent, so only the audit's C-level cap test over the edge ends sends
# it into its per-vertex rules.


def out_f_alone_over_cap(orc):
    """H edges out of a vertex not in Low, each to a head that can take it
    with its Sat flag right (in_F stays below the threshold, or the head is
    in Sat and stays within in_cap), until its out_F passes out_cap."""
    host, prof = orc.host, orc.profile
    room = [(prof.in_cap if orc.sat[w] else ceil(prof.sat_threshold) - 1) - in_f(orc, w) for w in range(host.n)]
    for v in range(host.n):
        need = prof.out_cap + 1 - out_f(orc, v)
        left = room[:]
        picks = []
        for e in host.out_adj[v]:
            if orc.state[e] == 0 and left[host.heads[e]] > 0:
                left[host.heads[e]] -= 1
                picks.append(e)
        if not orc.low[v] and len(picks) >= need:
            for e in picks[:need]:
                orc.h.add(e)
            return v
    raise AssertionError("no vertex can pass out_cap alone")


def in_f_alone_over_cap(orc):
    """H edges into a Sat vertex (it stays in Sat), each from a tail not in
    Low that stays within out_cap, until its in_F passes in_cap."""
    host, prof = orc.host, orc.profile
    room = [0 if orc.low[u] else prof.out_cap - out_f(orc, u) for u in range(host.n)]
    for w in positions(orc.sat):
        need = prof.in_cap + 1 - in_f(orc, w)
        left = room[:]
        picks = []
        for e in host.in_adj[w]:
            if orc.state[e] == 0 and left[host.tails[e]] > 0:
                left[host.tails[e]] -= 1
                picks.append(e)
        if len(picks) >= need:
            for e in picks[:need]:
                orc.h.add(e)
            return w
    raise AssertionError("no Sat vertex can pass in_cap alone")


CAP_ALONE_CORRUPTIONS = [out_f_alone_over_cap, in_f_alone_over_cap]


# The next three leave every counter equal to its recount, sat_out too, so
# the audit looks only at the H and B endpoints plus the Sat and Low ids;
# each plants or makes due a flag at a vertex no H or B edge touches.


def touched(orc, v):
    """Whether v is in Sat or Low or an H or B edge ends there."""
    h, b = orc.h, orc.b
    return bool(orc.sat[v] or orc.low[v] or h.out_deg[v] or h.in_deg[v] or b.out_deg[v] or b.in_deg[v])


def untouched_vertex(orc):
    """First vertex not `touched` whose sat_out is below the Low threshold."""
    return next(
        v for v in range(orc.host.n)
        if not touched(orc, v) and orc.sat_out[v] < orc.profile.low_threshold
    )


def sat_at_untouched_vertex(orc):
    w = untouched_vertex(orc)
    orc.sat[w] = 1
    for e in orc.host.in_adj[w]:
        orc.sat_out[orc.host.tails[e]] += 1
    return w


def low_at_untouched_vertex(orc):
    v = untouched_vertex(orc)
    orc.low[v] = 1
    return v


def low_due_at_untouched_vertex(orc):
    """Saturate heads of an untouched vertex u with H edges from other tails,
    counters kept, until u's recomputed Low flag is due; u stays untouched."""
    host, prof = orc.host, orc.profile
    u = untouched_vertex(orc)
    for w in dict.fromkeys(host.heads[e] for e in host.out_adj[u]):
        while w != u and in_f(orc, w) < prof.sat_threshold:
            orc.h.add(free_edge(orc, [e for e in host.in_adj[w] if host.tails[e] != u]))
        if sum(in_f(orc, host.heads[e]) >= prof.sat_threshold for e in host.out_adj[u]) >= prof.low_threshold:
            return u
    raise AssertionError("vertex %d never came due for Low" % u)


def in_deg_plus_minus_at_untouched_vertices(orc):
    # +1 where no H or B edge ends, -1 at the head of an H edge (a byte
    # counter cannot go below 0): the in-degrees still sum to |H|
    v = next(v for v in range(orc.host.n) if not touched(orc, v))
    orc.h.in_deg[v] += 1
    orc.h.in_deg[orc.host.heads[orc.h.members()[0]]] -= 1


UNTOUCHED_CORRUPTIONS = [sat_at_untouched_vertex, low_at_untouched_vertex, low_due_at_untouched_vertex]


ORACLE_CORRUPTIONS = [
    bump_h_out_deg,
    drop_b_in_deg,
    bump_low_vertex_out_deg,
    h_bit_without_counters,
    b_bit_without_counters,
    h_edge_rewritten_to_b,
    len_off_by_one,
    plant_sat,
    drop_sat,
    plant_low,
    drop_low,
    sat_out_off_by_one,
    stock_on_unbuffered_vertex,
    out_f_over_cap,
    in_f_over_cap,
    in_deg_plus_minus_at_untouched_vertices,
    *UNTOUCHED_CORRUPTIONS,
    *CAP_ALONE_CORRUPTIONS,
]

ORACLE_COMBINATIONS = [
    (plant_sat, drop_low),
    (h_bit_without_counters, sat_out_off_by_one, out_f_over_cap),
    (drop_sat, stock_on_unbuffered_vertex, in_f_over_cap),
    (h_edge_rewritten_to_b, plant_low, len_off_by_one),
]


def assert_audit_matches_reference(orc):
    rep = orc.audit(orc.h.members())
    findings, _ = reference_audit(orc)
    assert rep.findings == findings
    return findings


def test_audit_matches_reference_when_clean():
    assert assert_audit_matches_reference(loaded_oracle()) == []


@pytest.mark.parametrize("corrupt", ORACLE_CORRUPTIONS, ids=lambda f: f.__name__)
def test_audit_matches_reference_on_each_corruption(corrupt):
    orc = loaded_oracle()
    corrupt(orc)
    assert reference_audit(orc)[0], "the corruption should be visible"
    assert_audit_matches_reference(orc)


@pytest.mark.parametrize(
    "corruptions", ORACLE_COMBINATIONS, ids=lambda fs: "+".join(f.__name__ for f in fs)
)
def test_audit_matches_reference_on_combined_corruptions(corruptions):
    orc = loaded_oracle()
    for corrupt in corruptions:
        corrupt(orc)
    assert len(reference_audit(orc)[0]) >= len(corruptions)
    assert_audit_matches_reference(orc)


@pytest.mark.parametrize("corrupt", UNTOUCHED_CORRUPTIONS, ids=lambda f: f.__name__)
def test_audit_sees_flags_where_no_edge_ends(corrupt):
    orc = loaded_oracle()
    v = corrupt(orc)
    for sub in (orc.h, orc.b):
        assert sub.recount(sub.members()) == (sub.out_deg, sub.in_deg, len(sub))
    findings = assert_audit_matches_reference(orc)
    assert not any("counter" in f for f in findings)
    assert any(" at %d: " % v in f for f in findings)


@pytest.mark.parametrize("corrupt", CAP_ALONE_CORRUPTIONS, ids=lambda f: f.__name__)
def test_audit_sees_a_cap_broken_alone(corrupt):
    orc = loaded_oracle()
    v = corrupt(orc)
    findings = assert_audit_matches_reference(orc)
    side = "out" if corrupt is out_f_alone_over_cap else "in"
    assert len(findings) == 1 and findings[0].startswith("%s_F(%d)=" % (side, v))


def audit_counting_rule_loop(orc):
    """`orc.audit` of H's members, and the line events, counted with
    `sys.settrace`, of the header of its per-vertex rule loop: 0 unless the
    audit entered that loop."""
    lines, start = inspect.getsourcelines(EdgeOracle.audit)
    loop = start + next(i for i, line in enumerate(lines) if line.strip() == "for v in vertices:")
    entries = []

    def in_audit(frame, event, arg):
        if event == "line" and frame.f_lineno == loop:
            entries.append(loop)
        return in_audit

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: in_audit if frame.f_code is EdgeOracle.audit.__code__ else None)
    try:
        rep = orc.audit(orc.h.members())
    finally:
        sys.settrace(previous)
    return rep, len(entries)


def test_clean_audits_never_enter_the_vertex_rules():
    # after every request of a churn both clean audits answer from their
    # C-level tests alone; a cap or stock rule broken alone sends the audit
    # into its per-vertex rule loop, which names the vertex
    audits, stocked = [], []

    def audit(orc):
        audits.append(audit_counting_rule_loop(orc))
        stocked.append(len(orc.b))

    churned_engine(300, 1, 7, 200, lambda eng: (audit(eng.out_oracle), audit(eng.in_oracle)))
    loaded_oracle(audit)  # desk engines hold no B stock; this churn does
    assert len(audits) == 500 and max(stocked) > 0
    assert all(rep.ok and entries == 0 for rep, entries in audits)
    for corrupt in (*CAP_ALONE_CORRUPTIONS, stock_on_unbuffered_vertex):
        orc = loaded_oracle()
        corrupt(orc)
        rep, entries = audit_counting_rule_loop(orc)
        assert not rep.ok and entries > 0


def test_h_edge_rewritten_to_b_fails_both_recounts():
    orc = loaded_oracle()
    h_size, b_size = len(orc.h), len(orc.b)
    h_edge_rewritten_to_b(orc)
    findings = assert_audit_matches_reference(orc)
    for name, size in (("H", h_size), ("B", b_size)):
        assert "%s out-degree counters disagree with recount" % name in findings
        assert "%s in-degree counters disagree with recount" % name in findings
    assert "H size %d != recounted %d" % (h_size, h_size - 1) in findings
    assert "B size %d != recounted %d" % (b_size, b_size + 1) in findings


# --- planted corruptions of the engine --------------------------------------------------


def h1_imbalance(eng):
    eng.out_oracle.h.out_deg[next(iter(eng.ledger.paths.values())).a] += 2


def h2_imbalance(eng):
    # out - in rises by 3 at the vertex: in-degree lowered as far as a byte
    # counter goes (to 0 at most), out-degree raised by the rest
    rec = next(r for r in reversed(list(eng.ledger.paths.values())) if r.seg_b)
    h, v = eng.in_oracle.h, eng.in_oracle.host.heads[rec.seg_b[0]]
    lowered = min(3, h.in_deg[v])
    h.in_deg[v] -= lowered
    h.out_deg[v] += 3 - lowered


def h1_in_degree_over_cap(eng):
    eng.out_oracle.h.in_deg[7] = eng.profile.oracle.in_cap + 1


def ps_off_by_one(eng):
    eng.ledger.ps[next(iter(eng.ledger.paths.values())).a] -= 1


def pe_off_by_one(eng):
    eng.ledger.pe[3] += 1


def ps_raised_at_untouched_vertex(eng):
    # the audits' vertices hold no v like this one: only the ps check sends
    # verify's H rules over every vertex
    v = next(v for v in range(eng.n) if not (touched(eng.out_oracle, v) or touched(eng.in_oracle, v)))
    eng.ledger.ps[v] += 1


def out_oracle_sat_planted(eng):
    plant_sat(eng.out_oracle)


def in_oracle_h_bit_without_counters(eng):
    h_bit_without_counters(eng.in_oracle)


def h3_edge_dropped(eng):
    rec = next(r for r in eng.ledger.paths.values() if r.seg_mid)
    eng.h3.member[rec.seg_mid[0]] = 0


def h3_over_hop_budget(eng):
    # free G3 edges planted in H3 until |H3| passes |P| x depth_cap: still
    # far below 300|P|/beta, the looser bound the hop budget replaced
    budget = len(eng.ledger.paths) * eng.profile.depth_cap
    free = (e for e in range(eng.g3.m) if not eng.h3.member[e])
    while len(eng.h3) <= budget:
        eng.h3.add(next(free))


def r_below_live_count(eng):
    eng.profile = dataclasses.replace(eng.profile, r=len(eng.ledger.paths) - 1)


def low_claim_broken_under_strict_profile(eng):
    # a strict profile promises |Low| < beta*n/12, here 5 at beta 1/10
    eng.profile = dataclasses.replace(eng.profile, relaxed=False)
    for _ in range(5):
        plant_low(eng.out_oracle)


# Each of the next five defeats a cheaper check than verify's: H1, H2 and H3
# match their stored segments in count but not in range (an id past the end,
# or a negative one that aliases a member), in membership (a free edge), or
# only as a union (swapped segments); ps keeps its sum but not its values.


def stored_again(eng, rec, **fields):
    """Replace rec in the ledger with a copy whose named fields are `fields`."""
    eng.ledger.paths[rec.id] = dataclasses.replace(rec, **fields)


def first_with(eng, seg):
    """The first live path whose segment `seg` is not empty."""
    return next(r for r in eng.ledger.paths.values() if getattr(r, seg))


def seg_a_id_out_of_range(eng):
    # no G1 edge has this id: its host id and its walk step cannot be read
    rec = first_with(eng, "seg_a")
    stored_again(eng, rec, seg_a=(*rec.seg_a, 10**6))


def seg_b_id_aliased_by_negative_index(eng):
    # e - m indexes edge e: H2's count and member tag agree, only the range does not
    rec = first_with(eng, "seg_b")
    stored_again(eng, rec, seg_b=(rec.seg_b[0] - eng.g2.m, *rec.seg_b[1:]))


def seg_mid_lists_a_free_edge(eng):
    # as many ids as H3 members, but one is free and the member it replaced
    # is listed by no path
    rec = first_with(eng, "seg_mid")
    free = next(e for e in range(eng.g3.m) if not eng.h3.member[e])
    stored_again(eng, rec, seg_mid=(free, *rec.seg_mid[1:]))


def tree_segments_swapped(eng):
    # the union of first segments is still H1, but neither walk leaves its a
    rec = first_with(eng, "seg_a")
    other = next(r for r in eng.ledger.paths.values() if r.seg_a and r.a != rec.a)
    stored_again(eng, rec, seg_a=other.seg_a)
    stored_again(eng, other, seg_a=rec.seg_a)


# The next three store an endpoint outside the graph. They stay out of
# ENGINE_CORRUPTIONS, whose counter corruptions index ps or H at the first
# path's start.


def start_past_the_last_vertex(eng):
    # no vertex n: ps has no byte to count this start in
    stored_again(eng, first_with(eng, "seg_a"), a=eng.n)


def at_a_negative_vertex(eng, end, counter):
    """Store -1 as the first path's `end`, and move its count in `counter`
    to vertex n - 1, where an index of -1 would count it."""
    rec = first_with(eng, "seg_a")
    counter[getattr(rec, end)] -= 1
    counter[-1] += 1
    stored_again(eng, rec, **{end: -1})


def start_at_a_negative_vertex(eng):
    at_a_negative_vertex(eng, "a", eng.ledger.ps)


def end_at_a_negative_vertex(eng):
    # the walk ends at the old b, which is not -1
    at_a_negative_vertex(eng, "b", eng.ledger.pe)


# The next two copy one stored edge into a second live path's segment: the
# union repeats an id, and so does the host-id map, which verify reads only
# once a union check has found something.


def edge_in_two_paths(eng, seg):
    """Append the first stored id of segment `seg` to that segment of
    another live path."""
    rec = first_with(eng, seg)
    other = next(r for r in eng.ledger.paths.values() if r.id != rec.id)
    stored_again(eng, other, **{seg: (*getattr(other, seg), getattr(rec, seg)[0])})


def seg_a_edge_in_two_paths(eng):
    edge_in_two_paths(eng, "seg_a")


def seg_mid_edge_in_two_paths(eng):
    edge_in_two_paths(eng, "seg_mid")


def ps_plus_minus_at_untouched_vertices(eng):
    # +1 where no path starts and no H edge ends, -1 where a path starts (a
    # byte counter cannot go below 0): ps still sums to |P|. The -1 skips the
    # first path's start, which ps_off_by_one lowers
    ps, first_a = eng.ledger.ps, next(iter(eng.ledger.paths.values())).a
    v = next(v for v in range(eng.n)
             if not (ps[v] or touched(eng.out_oracle, v) or touched(eng.in_oracle, v)))
    ps[v] += 1
    ps[next(w for w in range(eng.n) if ps[w] and w not in (v, first_a))] -= 1


def b_out_counter_set_while_b_empty(eng):
    # with no B ids the audit's recount is all 0, and a counter set off 0
    # must disagree with it
    eng.out_oracle.b.out_deg[next(iter(eng.ledger.paths.values())).a] += 1


def b_in_counter_set_while_b_empty(eng):
    eng.in_oracle.b.in_deg[3] += 1


ENGINE_CORRUPTIONS = [
    h1_imbalance,
    h2_imbalance,
    h1_in_degree_over_cap,
    ps_off_by_one,
    pe_off_by_one,
    ps_raised_at_untouched_vertex,
    out_oracle_sat_planted,
    in_oracle_h_bit_without_counters,
    h3_edge_dropped,
    h3_over_hop_budget,
    r_below_live_count,
    low_claim_broken_under_strict_profile,
    seg_a_id_out_of_range,
    seg_b_id_aliased_by_negative_index,
    seg_mid_lists_a_free_edge,
    tree_segments_swapped,
    seg_a_edge_in_two_paths,
    seg_mid_edge_in_two_paths,
    ps_plus_minus_at_untouched_vertices,
    b_out_counter_set_while_b_empty,
    b_in_counter_set_while_b_empty,
]

ENGINE_COMBINATIONS = [
    (h1_imbalance, pe_off_by_one),
    (h2_imbalance, h1_in_degree_over_cap, out_oracle_sat_planted),
    (ps_off_by_one, in_oracle_h_bit_without_counters, h3_edge_dropped),
]


@pytest.fixture(scope="module")
def engine_state():
    return loaded_engine()


def test_verify_matches_reference_when_clean(engine_state):
    assert engine_state.verify().findings == reference_verify(engine_state) == []


@pytest.mark.parametrize(
    "corruptions",
    [(c,) for c in ENGINE_CORRUPTIONS] + ENGINE_COMBINATIONS,
    ids=lambda fs: "+".join(f.__name__ for f in fs),
)
def test_verify_matches_reference_on_corruptions(corruptions):
    eng = loaded_engine()
    for corrupt in corruptions:
        corrupt(eng)
    findings = reference_verify(eng)
    assert len(findings) >= len(corruptions)
    assert eng.verify().findings == findings
    if low_claim_broken_under_strict_profile in corruptions:
        assert "out-oracle: |Low|=5 is not below beta*n/12=5" in findings
    if h3_over_hop_budget in corruptions:
        count, size = len(eng.ledger.paths), len(eng.h3)
        assert size * eng.profile.beta < 300 * count
        assert "H3 size %d exceeds %d paths x depth budget" % (size, count) in findings
    for corrupt, side in ((b_out_counter_set_while_b_empty, "out"), (b_in_counter_set_while_b_empty, "in")):
        if corrupt in corruptions:  # the out-oracle's out-degree, the in-oracle's in-degree
            assert "%s-oracle: B %s-degree counters disagree with recount" % (side, side) in findings
    if r_below_live_count in corruptions:
        count = len(eng.ledger.paths)
        assert "live path count %d exceeds the volume cap r=%d" % (count, count - 1) in findings
    for corrupt, name in ((seg_a_edge_in_two_paths, "H1"), (seg_mid_edge_in_two_paths, "H3")):
        if corrupt in corruptions:
            assert "%s: an edge appears in two stored paths" % name in findings
            assert "paths are not pairwise edge-disjoint over the host" in findings


def test_more_live_paths_at_one_end_than_a_byte_counts_is_a_finding():
    # 300 stored paths out of vertex 0, to distinct ends with pe kept right:
    # ps[0] cannot hold 300, so verify's byte recount passes 255 and must
    # report the start counters, not raise ValueError
    eng = RoutingEngine(gen_random_regular_graph(600, 30, seed=3), desk_profile(600, 30))
    ledger = eng.ledger
    for b in range(1, 301):
        ledger.paths[b] = PathRecord(b, 0, b, (), (), ())
        ledger.pe[b] += 1
    ledger.ps[0] = 255
    findings = eng.verify().findings
    assert findings == reference_verify(eng)
    assert "start counters disagree with the ledger" in findings
    assert "end counters disagree with the ledger" not in findings


def heads_walk(eng, rec):
    """rec's vertices spelled out: a, then the head of each edge of its G1,
    G3 and G2 segments in turn."""
    segs = ((rec.seg_a, eng.g1), (rec.seg_mid, eng.g3), (rec.seg_b, eng.g2))
    return [rec.a] + [g.heads[e] for seg, g in segs for e in seg]


def test_path_vertices_is_the_heads_walk_on_a_clean_engine(engine_state):
    recs = list(engine_state.ledger.paths.values())
    assert recs and not any(reference_walk(engine_state, rec) for rec in recs)
    for rec in recs:
        verts = heads_walk(engine_state, rec)
        assert engine_state.path_vertices(rec) == verts and verts[-1] == rec.b


@pytest.mark.parametrize(
    "corrupt", [seg_a_id_out_of_range, seg_b_id_aliased_by_negative_index, tree_segments_swapped],
    ids=["past-end", "negative", "swapped"],
)
def test_an_id_outside_its_subgraph_is_a_finding_not_a_crash(corrupt):
    # verify reports each broken walk, and path_vertices raises on it with
    # the same text, where an id past the end (or a negative one) would
    # otherwise index a head; an unbroken path is still its heads walk
    eng = loaded_engine()
    corrupt(eng)
    findings = reference_verify(eng)
    assert eng.verify().findings == findings
    broken = []
    for rec in eng.ledger.paths.values():
        problem = reference_walk(eng, rec)
        if problem is None:
            assert eng.path_vertices(rec) == heads_walk(eng, rec)
            continue
        broken.append(problem)
        assert "path %d: %s" % (rec.id, problem) in findings
        with pytest.raises(CallerError) as raised:
            eng.path_vertices(rec)
        assert str(raised.value) == "path %d is not a consistent walk: %s" % (rec.id, problem)
    assert len(broken) == (2 if corrupt is tree_segments_swapped else 1)
    if corrupt is not tree_segments_swapped:
        assert "segment holds edge" in broken[0] and "outside its subgraph" in broken[0]


@pytest.mark.parametrize("corrupt,end,problem", [
    (start_past_the_last_vertex, "start", "start 600 is not a vertex"),
    (start_at_a_negative_vertex, "start", "start -1 is not a vertex"),
    (end_at_a_negative_vertex, "end", "not at b=-1"),
], ids=["start-past-end", "start-negative", "end-negative"])
def test_an_endpoint_outside_the_graph_is_a_finding_not_a_crash(corrupt, end, problem):
    # a start of n indexed past verify's byte recount (IndexError), and an
    # end of -1 was counted at vertex n - 1, where the ledger counts it here:
    # the walk names the path, as path_vertices does, and only that end's
    # counters disagree
    eng = loaded_engine()
    corrupt(eng)
    rec = first_with(eng, "seg_a")
    walk = reference_walk(eng, rec)
    findings = reference_verify(eng)
    assert eng.verify().findings == findings
    assert walk.endswith(problem) and "path %d: %s" % (rec.id, walk) in findings
    with pytest.raises(CallerError, match="path %d is not a consistent walk: " % rec.id):
        eng.path_vertices(rec)
    other = "start" if end == "end" else "end"
    assert "%s counters disagree with the ledger" % end in findings
    assert "%s counters disagree with the ledger" % other not in findings


def test_host_ids_are_read_only_once_a_union_check_has_found_something():
    # g1_host, g2_host and g3_host partition the host's edge ids, so exact
    # unions repeat no host id: a clean verify reads none of them, and one
    # whose H1 union repeats an id reads one per stored edge
    eng = loaded_engine()
    reads = []

    class Counted(tuple):
        def __getitem__(self, i):
            reads.append(i)
            return tuple.__getitem__(self, i)

    for name in ("g1_host", "g2_host", "g3_host"):
        setattr(eng, name, Counted(getattr(eng, name)))
    assert eng.verify().ok and reads == []
    seg_a_edge_in_two_paths(eng)
    assert "paths are not pairwise edge-disjoint over the host" in eng.verify().findings
    assert len(reads) == sum(rec.length for rec in eng.ledger.paths.values())


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([120, 300, 600]),
    graph_seed=st.integers(0, 3),
    churn_seed=st.integers(0, 99),
    ops=st.integers(1, 300),
    corruptions=st.lists(st.sampled_from(ENGINE_CORRUPTIONS), unique=True, max_size=4),
)
def test_verify_matches_reference_on_drawn_states(n, graph_seed, churn_seed, ops, corruptions):
    # no corruption, or none of a counter, keeps verify and the audits on the
    # live vertices; a counter corruption sends them over every vertex
    eng = churned_engine(n, graph_seed, churn_seed, ops)
    assume(eng.ledger.paths)
    for corrupt in corruptions:
        try:
            corrupt(eng)
        except StopIteration:  # no stored path or vertex has what it corrupts
            assume(False)
    assert eng.verify().findings == reference_verify(eng)


def vertex_rules_fire_alone(findings):
    """Whether the findings hold verify's vertex-rule findings and nothing else."""
    vertex = ["imbalance at vertex" in f or "over cap at vertex" in f for f in findings]
    return any(vertex) and all(vertex)


@pytest.mark.parametrize(
    "corruptions",
    [(c,) for c in ENGINE_CORRUPTIONS] + ENGINE_COMBINATIONS,
    ids=lambda fs: "+".join(f.__name__ for f in fs),
)
def test_vertex_rules_never_fire_alone(corruptions):
    # verify runs its H1/H2 balance and in-cap rules only once another check
    # has found something; the reference always runs them, and on no planted
    # corruption are they the only rules that fire
    eng = loaded_engine()
    for corrupt in corruptions:
        corrupt(eng)
    assert not vertex_rules_fire_alone(reference_verify(eng))


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([120, 300, 600]),
    graph_seed=st.integers(0, 3),
    churn_seed=st.integers(0, 99),
    ops=st.integers(1, 300),
    corruptions=st.lists(st.sampled_from(ENGINE_CORRUPTIONS), unique=True, max_size=4),
)
def test_vertex_rules_never_fire_alone_on_drawn_states(n, graph_seed, churn_seed, ops, corruptions):
    eng = churned_engine(n, graph_seed, churn_seed, ops)
    assume(eng.ledger.paths)
    for corrupt in corruptions:
        try:
            corrupt(eng)
        except StopIteration:  # no stored path or vertex has what it corrupts
            assume(False)
    assert not vertex_rules_fire_alone(reference_verify(eng))
