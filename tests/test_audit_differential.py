"""Differential tests: the oracle audit and the engine verify against loop references.

`reference_audit` and `reference_verify` are the straightforward
implementations that scan every edge and every vertex in Python. The
shipped `RoutingEngine.verify` checks H1, H2 and H3 against the stored
segments by count, range and membership in C, and `EdgeOracle.audit`
scans B's member array. While nothing is found, the audit looks only at
the live edges and the vertices they touch, plus the Sat and Low ids,
and verify skips its four vertex rules, which never fire alone on the
reference; once something is found, both look at every vertex. On every
planted corruption, alone or combined, and on drawn engine states, both
must report the same findings in the same order.
"""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import oriented_host
from expander_routing.errors import CallerError, ExpansionViolation
from expander_routing.expanders import gen_random_regular_graph
from expander_routing.harness import gen_workload, resolve_ref
from expander_routing.oracle import EdgeOracle
from expander_routing.profiles import OracleProfile, desk_profile
from expander_routing.router import RoutingEngine

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
        if out_deg != sub.out_deg:
            findings.append("%s out-degree counters disagree with recount" % name)
        if in_deg != sub.in_deg:
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
    if sat_out_maintained != orc.sat_out:
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
    """The problem that stops rec's walk from a, or None: an id outside its
    subgraph (negative ones too), a segment that breaks, a walk that misses b."""
    v = rec.a
    split = eng.split
    for seg, g, label in ((rec.seg_a, split.g1, "first"), (rec.seg_mid, split.g3, "middle"),
                          (rec.seg_b, split.g2, "last")):
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
        for seg, to_host in ((rec.seg_a, eng.split.g1_host), (rec.seg_mid, eng.split.g3_host),
                             (rec.seg_b, eng.split.g2_host)):
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
    ps_expected = [0] * eng.n
    pe_expected = [0] * eng.n
    for rec in recs:
        ps_expected[rec.a] += 1
        pe_expected[rec.b] += 1
    if ps_expected != eng.ledger.ps:
        findings.append("start counters disagree with the ledger")
    if pe_expected != eng.ledger.pe:
        findings.append("end counters disagree with the ledger")
    for name, oracle in (("out-oracle", eng.out_oracle), ("in-oracle", eng.in_oracle)):
        oracle_findings, low_count = reference_audit(oracle)
        findings.extend("%s: %s" % (name, f) for f in oracle_findings)
        if not prof.relaxed and low_count * 12 >= prof.beta * eng.n:
            findings.append(
                "%s: |Low|=%d is not below beta*n/12=%s" % (name, low_count, prof.beta * eng.n / 12)
            )
    return findings


# --- loaded structures ----------------------------------------------------------


def loaded_oracle():
    """An oracle after 100 seeded requests: H 89, B 17, Sat 17 and Low 5 members."""
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
    assert orc.audit(orc.h.members()).ok
    assert orc.b.members() and any(orc.low) and any(orc.sat)
    return orc


def churned_engine(n, graph_seed, churn_seed, ops):
    """A desk engine after a seeded churn of `ops` requests at r/2 live paths.
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
                eng.remove_path(resolve_ref(eng, cmd.ref))
        except (CallerError, ExpansionViolation):
            pass
    return eng


def loaded_engine():
    eng = churned_engine(600, 21, 5, 300)
    assert eng.verify().ok and eng.ledger.paths
    return eng


# --- planted corruptions of one oracle ----------------------------------------------


def free_edge(orc, edges=None):
    """First of `edges` (default: every host edge) in neither H nor B."""
    if edges is None:
        edges = range(orc.host.m)
    return next(e for e in edges if orc.state[e] == 0)


def first(flags, want=True):
    return next(v for v, x in enumerate(flags) if x == want)


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

    def in_f(w):
        return orc.h.in_deg[w] + orc.b.in_deg[w]

    for w in dict.fromkeys(host.heads[e] for e in host.out_adj[u]):
        while w != u and in_f(w) < prof.sat_threshold:
            orc.h.add(free_edge(orc, [e for e in host.in_adj[w] if host.tails[e] != u]))
        if sum(in_f(host.heads[e]) >= prof.sat_threshold for e in host.out_adj[u]) >= prof.low_threshold:
            return u
    raise AssertionError("vertex %d never came due for Low" % u)


def in_deg_plus_minus_at_untouched_vertices(orc):
    # +1 and -1 where no H or B edge ends: the in-degrees still sum to |H|
    v, w = [v for v in range(orc.host.n) if not touched(orc, v)][:2]
    orc.h.in_deg[v] += 1
    orc.h.in_deg[w] -= 1


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
    rec = next(r for r in reversed(list(eng.ledger.paths.values())) if r.seg_b)
    eng.in_oracle.h.in_deg[eng.in_oracle.host.heads[rec.seg_b[0]]] -= 3


def h1_in_degree_over_cap(eng):
    eng.out_oracle.h.in_deg[7] = eng.profile.oracle.in_cap + 1


def ps_off_by_one(eng):
    eng.ledger.ps[next(iter(eng.ledger.paths.values())).a] -= 1


def pe_off_by_one(eng):
    eng.ledger.pe[3] += 1


def ps_below_zero_at_untouched_vertex(eng):
    # the audits' vertices hold no v like this one: only the ps check sends
    # verify's H rules over every vertex
    v = next(v for v in range(eng.n) if not (touched(eng.out_oracle, v) or touched(eng.in_oracle, v)))
    eng.ledger.ps[v] -= 1


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
    free = (e for e in range(eng.split.g3.m) if not eng.h3.member[e])
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


def stored_again(eng, rec, **segs):
    """Replace rec in the ledger with a copy whose named segments are `segs`."""
    eng.ledger.paths[rec.id] = dataclasses.replace(rec, **segs)


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
    stored_again(eng, rec, seg_b=(rec.seg_b[0] - eng.split.g2.m, *rec.seg_b[1:]))


def seg_mid_lists_a_free_edge(eng):
    # as many ids as H3 members, but one is free and the member it replaced
    # is listed by no path
    rec = first_with(eng, "seg_mid")
    free = next(e for e in range(eng.split.g3.m) if not eng.h3.member[e])
    stored_again(eng, rec, seg_mid=(free, *rec.seg_mid[1:]))


def tree_segments_swapped(eng):
    # the union of first segments is still H1, but neither walk leaves its a
    rec = first_with(eng, "seg_a")
    other = next(r for r in eng.ledger.paths.values() if r.seg_a and r.a != rec.a)
    stored_again(eng, rec, seg_a=other.seg_a)
    stored_again(eng, other, seg_a=rec.seg_a)


def ps_plus_minus_at_untouched_vertices(eng):
    # +1 and -1 where no path starts and no H edge ends: ps still sums to |P|
    ps = eng.ledger.ps
    v, w = [v for v in range(eng.n)
            if not (ps[v] or touched(eng.out_oracle, v) or touched(eng.in_oracle, v))][:2]
    ps[v] += 1
    ps[w] -= 1


ENGINE_CORRUPTIONS = [
    h1_imbalance,
    h2_imbalance,
    h1_in_degree_over_cap,
    ps_off_by_one,
    pe_off_by_one,
    ps_below_zero_at_untouched_vertex,
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
    ps_plus_minus_at_untouched_vertices,
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
    if r_below_live_count in corruptions:
        count = len(eng.ledger.paths)
        assert "live path count %d exceeds the volume cap r=%d" % (count, count - 1) in findings


def test_an_id_outside_its_subgraph_is_a_finding_not_a_crash():
    eng = RoutingEngine(gen_random_regular_graph(150, 30, seed=3), desk_profile(150, 30))
    rec = eng.find_path(1, 2)
    stored_again(eng, rec, seg_a=(*rec.seg_a, 10**6))
    findings = reference_verify(eng)
    assert eng.verify().findings == findings
    assert "path %d: first segment holds edge %d outside its subgraph" % (rec.id, 10**6) in findings
    with pytest.raises(CallerError, match="outside its subgraph"):
        eng.path_vertices(eng.ledger.paths[rec.id])


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
        except StopIteration:  # no stored path has the segment it corrupts
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
        except StopIteration:  # no stored path has the segment it corrupts
            assume(False)
    assert not vertex_rules_fire_alone(reference_verify(eng))
