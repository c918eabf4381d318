"""Matching routines used by preprocessing.

`maximum_matching` is Edmonds' augmenting search for general graphs, one
BFS per free root without a free neighbour, with blossoms contracted
through `base` pointers. Each blossom base keeps the list of its members
for the current root, so a contraction costs O(s log s) for the s
vertices it relabels plus the length of the two tree paths it walks, not
a scan of all n vertices; the per-root arrays are allocated once per call
and only the entries a root touched are reset. It is deterministic
because neighbours are scanned in adjacency order and contracted
vertices are enqueued in ascending order.
`one_factor` extracts a spanning 1-regular subdigraph from a regular
digraph, treating tails and heads as the two sides of a bipartite graph
(greedy pass, then BFS augmentation). The split calls it only where an
Euler halving does not fit (an odd degree, or a part too large for a
half): 3 times for k=15, d_prime=6.
"""

from __future__ import annotations

from .errors import CallerError, RoutingError


def maximum_matching(n, adj):
    """Maximum matching of a simple graph given as neighbour lists.

    Returns `match` with match[v] = partner or -1. Neighbour lists must
    not contain self loops; parallel edges should be collapsed first.
    """
    match = [-1] * n
    # per-root state, shared by all roots: q holds every vertex enqueued
    # (= used) in order and linked every vertex whose p was set, so that
    # only these entries need resetting before the next root
    used = [False] * n
    p = [-1] * n
    base = list(range(n))
    q = []
    linked = []

    def lca(a, b):
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = p[match[b]]

    def mark_path(v, b, child, marked):
        while base[v] != b:
            marked.add(base[v])
            marked.add(base[match[v]])
            p[v] = child
            linked.append(v)
            child = match[v]
            v = p[match[v]]

    def find_path(root):
        # members[b] lists the vertices with base b, for bases that
        # absorbed a blossom; every other base is a singleton
        members = {}
        used[root] = True
        q.append(root)
        for v in q:
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # odd cycle found; contract the blossom
                    curbase = lca(v, to)
                    marked = set()
                    mark_path(v, curbase, to, marked)
                    mark_path(to, curbase, v, marked)
                    group = []
                    for b in marked:
                        group.extend(members.pop(b, (b,)))
                    group.sort()
                    for i in group:
                        base[i] = curbase
                        if not used[i]:
                            used[i] = True
                            q.append(i)
                    if curbase not in marked:
                        group.extend(members.get(curbase, (curbase,)))
                    members[curbase] = group
                elif p[to] == -1:
                    p[to] = v
                    linked.append(to)
                    if match[to] == -1:
                        # augmenting path reached a free vertex
                        u = to
                        while u != -1:
                            pv = p[u]
                            w = match[pv]
                            match[pv] = u
                            match[u] = pv
                            u = w
                        return
                    used[match[to]] = True
                    q.append(match[to])

    for v in range(n):
        if match[v] != -1:
            continue
        # the search from v scans adj[v] before any other vertex and
        # augments to the first free neighbour it meets: take it directly
        for to in adj[v]:
            if match[to] == -1:
                match[v], match[to] = to, v
                break
        else:
            find_path(v)
            for i in q:
                used[i] = False
                base[i] = i
            for i in linked:
                p[i] = -1
            q.clear()
            linked.clear()
    return match


def perfect_matching_edges(g):
    """Perfect matching of an UndirectedGraph as a sorted list of edge ids.

    Raises CallerError when none exists, which for a regular input means
    the graph violated the connectivity promise it came with.
    """
    n = g.n
    adj = [[] for _ in range(n)]
    first_edge = {}  # a * n + b (a < b) -> the first edge joining a and b
    for e, (a, b) in enumerate(zip(g.us, g.vs)):
        if a == b:
            continue
        if first_edge.setdefault(a * n + b if a < b else b * n + a, e) == e:
            adj[a].append(b)
            adj[b].append(a)
    match = maximum_matching(n, adj)
    unmatched = [v for v in range(n) if match[v] == -1]
    if unmatched:
        raise CallerError(
            "no perfect matching (vertex %d unmatched); input is not the promised expander"
            % unmatched[0]
        )
    edge_ids = set()
    for v in range(n):
        u = match[v]
        edge_ids.add(first_edge[v * n + u if v < u else u * n + v])
    return sorted(edge_ids)


def one_factor(host, live_out):
    """One live out-edge per tail with pairwise distinct heads.

    `live_out[t]` lists the live out-edges of tail t in adjacency order;
    the live subgraph must be regular with equal positive degree on both
    sides, which guarantees the factor exists. Returns edge ids indexed
    by tail.
    """
    n = host.n
    heads = host.heads
    tails = host.tails
    match_of_head = [-1] * n
    match_of_tail = [-1] * n
    for t in range(n):
        for e in live_out[t]:
            h = heads[e]
            if match_of_head[h] == -1:
                match_of_head[h] = e
                match_of_tail[t] = e
                break
    # per-root BFS state, shared by all roots: parent_edge[h] != -1 marks
    # head h as seen; seen lists those heads so they can be cleared
    parent_edge = [-1] * n
    seen = []
    for t0 in range(n):
        if match_of_tail[t0] != -1:
            continue
        q = [t0]
        found = -1
        for t in q:
            for e in live_out[t]:
                h = heads[e]
                if parent_edge[h] != -1:
                    continue
                parent_edge[h] = e
                seen.append(h)
                if match_of_head[h] == -1:
                    found = h
                    break
                q.append(tails[match_of_head[h]])
            if found != -1:
                break
        if found == -1:
            raise RoutingError("internal: regular bipartite layer has no perfect matching")
        h = found
        while h != -1:
            e = parent_edge[h]
            t = tails[e]
            prev = match_of_tail[t]
            match_of_tail[t] = e
            match_of_head[h] = e
            h = heads[prev] if prev != -1 else -1
        for h in seen:
            parent_edge[h] = -1
        seen.clear()
    return match_of_tail
