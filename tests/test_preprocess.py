import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edge_pairs, oriented_host
from expander_routing import preprocess
from expander_routing.errors import CallerError
from expander_routing.expanders import gen_random_regular_graph
from expander_routing.graph import Digraph, UndirectedGraph, format_graph
from expander_routing.matching import maximum_matching, perfect_matching_edges
from expander_routing.preprocess import (
    eulerian_orient,
    extract_perfect_matching,
    pre_process,
    split_regular,
)
from expander_routing.profiles import derive_profile, desk_profile


def relaxed_profile(n, d):
    return derive_profile(n, d, "1/10", "1/50", relaxed=True)


# --- Eulerian orientation -------------------------------------------------


def test_orient_four_cycle():
    g = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    d = eulerian_orient(g)
    assert d.regularity() == 1
    assert sorted(abs(t - h) % 2 for t, h in edge_pairs(d)) == [1, 1, 1, 1]


def test_orient_k5_balances():
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    d = eulerian_orient(UndirectedGraph(5, edges))
    assert d.regularity() == 2
    assert d.m == 10


def test_orient_rejects_odd_degree():
    with pytest.raises(CallerError):
        eulerian_orient(UndirectedGraph(3, [(0, 1), (1, 2)]))


def test_orient_rejects_disconnected():
    two_triangles = UndirectedGraph(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )
    with pytest.raises(CallerError, match="disconnected"):
        eulerian_orient(two_triangles)
    # the triangle's circuit takes every edge; the isolated vertex 3 is left out
    triangle_and_isolated_vertex = UndirectedGraph(4, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(CallerError, match="disconnected"):
        eulerian_orient(triangle_and_isolated_vertex)


def test_orient_preserves_edge_ids():
    g = gen_random_regular_graph(30, 6, seed=1)
    d = eulerian_orient(g)
    assert d.m == g.m
    for e in range(g.m):
        assert {d.tails[e], d.heads[e]} == {g.us[e], g.vs[e]}
    assert d.regularity() == 3


# --- matchings --------------------------------------------------------------


def test_matching_single_edge():
    g = UndirectedGraph(2, [(0, 1)])
    matched, rest = extract_perfect_matching(g)
    assert matched == [0]
    assert rest.m == 0


def test_matching_k4(k4):
    matched, rest = extract_perfect_matching(k4)
    assert len(matched) == 2
    assert rest.regularity() == 2
    assert rest.m == 4


def test_matching_odd_cycle_is_not_perfect():
    c5 = UndirectedGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    match = maximum_matching(5, [[(i + 1) % 5, (i - 1) % 5] for i in range(5)])
    assert sum(1 for v in range(5) if match[v] != -1) == 4
    with pytest.raises(CallerError):
        perfect_matching_edges(c5)


def test_matching_blossom_structure():
    # triangle with a tail forces contraction before the augmenting path shows
    g = UndirectedGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    matched = perfect_matching_edges(g)
    assert len(matched) == 2
    covered = sorted(v for e in matched for v in (g.us[e], g.vs[e]))
    assert covered == [0, 1, 2, 3]


def test_matching_random_regular():
    g = gen_random_regular_graph(50, 5, seed=7)
    matched, rest = extract_perfect_matching(g)
    assert len(matched) == 25
    covered = sorted(v for e in matched for v in (g.us[e], g.vs[e]))
    assert covered == list(range(50))
    assert rest.regularity() == 4


# --- regular splitting -------------------------------------------------------


def test_split_triangle_identity(triangle):
    ((sub, ids),) = split_regular(triangle, 1, [1])
    assert edge_pairs(sub) == edge_pairs(triangle)
    assert ids == (0, 1, 2)


def test_split_two_hamilton_cycles():
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(i, (i + 2) % 6) for i in range(6)]
    d = Digraph(6, edges)
    assert d.regularity() == 2
    (s1, ids1), (s2, ids2) = split_regular(d, 2, [1, 1])
    assert s1.regularity() == 1
    assert s2.regularity() == 1
    assert sorted(ids1 + ids2) == list(range(12))


def test_split_ten_regular_with_remainder():
    d = oriented_host(40, 10, seed=11)
    (s1, ids1), (s2, ids2), (rest, ids3) = split_regular(d, 10, [1, 1])
    assert s1.regularity() == 1
    assert s2.regularity() == 1
    assert rest.regularity() == 8
    assert sorted(ids1 + ids2 + ids3) == list(range(d.m))


@st.composite
def regular_digraphs_with_parts(draw):
    """A k-regular multidigraph (a union of k permutations, so loops and
    parallel edges occur) and parts summing to at most k."""
    n = draw(st.integers(1, 40))
    perms = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=12))
    parts = []
    room = len(perms)
    while room and draw(st.booleans()):
        parts.append(draw(st.integers(1, room)))
        room -= parts[-1]
    return Digraph(n, [(t, perm[t]) for perm in perms for t in range(n)]), len(perms), parts


def _check_split(d, k, parts, out):
    rest = k - sum(parts)
    assert len(out) == len(parts) + (rest > 0)
    for (sub, ids), p in zip(out, parts + [rest]):
        assert sub.regularity() == p
        assert list(ids) == sorted(ids)
        assert edge_pairs(sub) == [(d.tails[e], d.heads[e]) for e in ids]
    assert sorted(e for _, ids in out for e in ids) == list(range(d.m))


@settings(max_examples=150, deadline=None)
@given(regular_digraphs_with_parts())
def test_split_random_regular_digraphs(case):
    d, k, parts = case
    _check_split(d, k, parts, split_regular(d, k, parts))


def _counting_one_factor(monkeypatch):
    calls = []
    one_factor = preprocess.one_factor

    def counted(*args):
        calls.append(args)
        return one_factor(*args)

    monkeypatch.setattr(preprocess, "one_factor", counted)
    return calls


def test_halving_walks_every_component_of_the_cover(monkeypatch):
    # the disjoint union of two 4-regular digraphs: its tail/head cover is
    # disconnected, and one halving must still cut both components
    a = oriented_host(10, 4, seed=1)
    b = oriented_host(12, 4, seed=2)
    d = Digraph(22, edge_pairs(a) + [(t + 10, h + 10) for t, h in edge_pairs(b)])
    calls = _counting_one_factor(monkeypatch)
    out = split_regular(d, 4, [2])
    _check_split(d, 4, [2], out)
    assert calls == []


def test_preprocess_extracts_three_one_factors(monkeypatch):
    # k=15, d_prime=6: peel (14), halve (7 + 7), one peel per half (6 + 1)
    calls = _counting_one_factor(monkeypatch)
    split = pre_process(gen_random_regular_graph(60, 31, seed=4), desk_profile(60, 31))
    assert len(calls) == 3
    assert split.host.regularity() == 15
    assert (split.g1.regularity(), split.g2.regularity(), split.g3.regularity()) == (6, 6, 3)


def test_split_rejects_oversubscription(triangle):
    with pytest.raises(CallerError):
        split_regular(triangle, 1, [1, 1])


# --- full preprocessing -------------------------------------------------------


def test_preprocess_even_degree():
    g = gen_random_regular_graph(100, 20, seed=2)
    split = pre_process(g, relaxed_profile(100, 20))
    assert split.g1.regularity() == 1
    assert split.g2.regularity() == 1
    assert split.g3.regularity() == 8
    assert split.host.regularity() == 10


def test_preprocess_odd_degree():
    g = gen_random_regular_graph(100, 21, seed=3)
    split = pre_process(g, relaxed_profile(100, 21))
    assert split.host.regularity() == 10
    assert split.g1.regularity() == 1
    assert split.g3.regularity() == 8


def test_preprocess_edge_conservation():
    g = gen_random_regular_graph(60, 20, seed=5)
    split = pre_process(g, relaxed_profile(60, 20))
    ids = sorted(split.g1_host + split.g2_host + split.g3_host)
    assert ids == list(range(split.host.m))


def test_preprocess_rejects_small_degree():
    # below d=20 the canonical d_prime = floor(k/10) is 0: no profile for
    # it exists, so no split of such a graph is tried
    with pytest.raises(CallerError, match="d >= 20"):
        relaxed_profile(20, 8)
    with pytest.raises(CallerError, match=r"^profile field d_prime must be at least 1, got 0$"):
        dataclasses.replace(relaxed_profile(100, 20), n=20, d=8, d_prime=0)


# sha256 of the split route run serves on: pre_process on the desk profile
# at n=600 (graph seed 11), as format_graph of host, g1, g2 and g3 plus the
# three host-id tuples. k=15 and d_prime=6 give one peel, one halving into
# 7 + 7 and one peel per half; d=31 adds the blossom matching. A change
# means the matching, the orientation or the split changed behaviour.
GOLDEN_DESK_SPLIT = {
    30: "ba4f76d1a6f41b92459d031ff5fb2e7369e9aabc1ef9dce6f202a4606c9dea8c",
    31: "ef99189df6f37763e1d0fd9cc8047a73651bb6678428eeead2c36d9a74113fb7",
}


@pytest.mark.parametrize("d", sorted(GOLDEN_DESK_SPLIT))
def test_desk_split_is_pinned(d):
    split = pre_process(gen_random_regular_graph(600, d, seed=11), desk_profile(600, d))
    blob = "".join(format_graph(x) for x in (split.host, split.g1, split.g2, split.g3))
    blob += "".join(" ".join(map(str, ids)) + "\n" for ids in (split.g1_host, split.g2_host, split.g3_host))
    assert hashlib.sha256(blob.encode("ascii")).hexdigest() == GOLDEN_DESK_SPLIT[d]


def test_preprocess_deterministic():
    def run():
        g = gen_random_regular_graph(60, 20, seed=9)
        split = pre_process(g, relaxed_profile(60, 20))
        return "".join(
            format_graph(x) for x in (split.host, split.g1, split.g2, split.g3)
        )

    assert run() == run()
