"""Cross-checks of the matching routines on seeded graphs: cardinality
against networkx, the exact matching against a plain reference search."""

import random
from collections import deque

import networkx as nx
import pytest

from conftest import edge_pairs, oriented_host
from expander_routing.expanders import gen_random_regular_graph
from expander_routing.matching import maximum_matching, one_factor


def _adjacency(n, pairs):
    """Neighbour lists without loops or parallel pairs, in first-seen order."""
    adj = [[] for _ in range(n)]
    seen = set()
    for a, b in pairs:
        key = (min(a, b), max(a, b))
        if a == b or key in seen:
            continue
        seen.add(key)
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _check_matching(n, adj):
    match = maximum_matching(n, adj)
    assert match == _scan_matching(n, adj)
    assert len(match) == n
    for v, u in enumerate(match):
        if u != -1:
            assert match[u] == v
            assert u in adj[v]
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((v, u) for v in range(n) for u in adj[v])
    reference = nx.max_weight_matching(g, maxcardinality=True)
    assert sum(1 for u in match if u != -1) == 2 * len(reference)


def _scan_matching(n, adj):
    """Reference: the same search with fresh arrays per root and a scan
    of all n vertices per blossom contraction. `maximum_matching` must
    pick the same matching, since every later path depends on it."""
    match = [-1] * n
    p = [-1] * n
    base = list(range(n))

    def lca(a, b):
        used = [False] * n
        while True:
            a = base[a]
            used[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if used[b]:
                return b
            b = p[match[b]]

    def mark_path(v, b, child, blossom):
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root):
        nonlocal p, base
        used = [False] * n
        p = [-1] * n
        base = list(range(n))
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # odd cycle found; contract the blossom
                    curbase = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, curbase, to, blossom)
                    mark_path(to, curbase, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        # augmenting path reached a free vertex
                        u = to
                        while u != -1:
                            pv = p[u]
                            w = match[pv]
                            match[pv] = u
                            match[u] = pv
                            u = w
                        return True
                    used[match[to]] = True
                    q.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_path(v)
    return match


def _sparse_graph(n, rng):
    # random edges plus short odd cycles, so the search must contract blossoms
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
    for _ in range(n // 4):
        size = rng.choice((3, 5, 7))
        cycle = rng.sample(range(n), min(size, n))
        pairs.extend(zip(cycle, cycle[1:] + cycle[:1]))
    return pairs


@pytest.mark.parametrize("seed", range(40))
def test_maximum_matching_sparse_graphs(seed):
    rng = random.Random(seed)
    n = rng.randrange(4, 80)
    if seed % 2:
        n |= 1
    _check_matching(n, _adjacency(n, _sparse_graph(n, rng)))


@pytest.mark.parametrize("n, d, seed", [(40, 3, 1), (60, 5, 2), (100, 7, 3), (200, 21, 4), (300, 31, 5)])
def test_maximum_matching_odd_regular_graphs(n, d, seed):
    g = gen_random_regular_graph(n, d, seed=seed)
    match_adj = _adjacency(n, edge_pairs(g))
    _check_matching(n, match_adj)
    assert -1 not in maximum_matching(n, match_adj)


def test_maximum_matching_disjoint_odd_cycles():
    # every odd cycle leaves one vertex free, whatever the search order
    pairs = []
    start = 0
    for size in (3, 5, 7, 9, 11):
        pairs.extend((start + i, start + (i + 1) % size) for i in range(size))
        start += size
    _check_matching(start, _adjacency(start, pairs))


@pytest.mark.parametrize("n, k, seed", [(30, 3, 1), (100, 8, 2), (257, 15, 3)])
def test_one_factor_peels_regular_digraphs(n, k, seed):
    d = oriented_host(n, k, seed=seed)
    live_out = [list(out) for out in d.out_adj]
    for _ in range(k):
        factor = one_factor(d, live_out)
        assert [d.tails[e] for e in factor] == list(range(n))
        assert sorted(d.heads[e] for e in factor) == list(range(n))
        for t, e in enumerate(factor):
            live_out[t].remove(e)
    assert live_out == [[] for _ in range(n)]
