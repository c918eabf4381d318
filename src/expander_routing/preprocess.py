"""Turn an undirected regular expander into the oriented, split form the router runs on.

Pipeline: strip a perfect matching when the degree is odd, orient the
remaining (even) graph along an Eulerian circuit so in- and out-degrees
balance, then peel off two d_prime-regular spanning subdigraphs by
repeated one-factor extraction. The leftover edges form the third
subgraph, used only for short connecting segments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CallerError
from .graph import Digraph, UndirectedGraph
from .matching import one_factor, perfect_matching_edges
from .profiles import RouterProfile, derive_profile


def eulerian_orient(g: UndirectedGraph) -> Digraph:
    """Orient every edge along an Eulerian circuit.

    Requires a connected graph with all degrees even; the result has
    in-degree = out-degree = deg(v)/2 everywhere and reuses the
    undirected edge ids. Deterministic: the circuit always extends along
    the first unused incident edge.
    """
    for v in range(g.n):
        if g.degree(v) % 2 != 0:
            raise CallerError("vertex %d has odd degree %d" % (v, g.degree(v)))
    m = g.m
    us, vs, incs = g.us, g.vs, g.inc
    used = [False] * m
    orient = [None] * m
    ptr = [0] * g.n
    if m > 0:
        stack = [us[0]]
        while stack:
            v = stack[-1]
            inc = incs[v]
            i = ptr[v]
            while i < len(inc) and used[inc[i]]:
                i += 1
            ptr[v] = i
            if i == len(inc):
                stack.pop()
                continue
            e = inc[i]
            used[e] = True
            w = us[e]
            if w == v:
                w = vs[e]
            orient[e] = (v, w)
            stack.append(w)
    # one circuit took every edge and no vertex is isolated: the graph is connected
    if not all(used) or (g.n > 1 and not all(incs)):
        raise CallerError("graph is disconnected; cannot orient along one circuit")
    return Digraph(g.n, orient)


def extract_perfect_matching(g: UndirectedGraph):
    """Remove one perfect matching; returns (matching edge ids, remainder)."""
    d = g.regularity()
    if d is None:
        raise CallerError("extract_perfect_matching needs a regular graph")
    if g.n % 2 != 0:
        raise CallerError("odd vertex count admits no perfect matching")
    matched = perfect_matching_edges(g)
    matched_set = set(matched)
    rest = [(g.us[e], g.vs[e]) for e in range(g.m) if e not in matched_set]
    return matched, UndirectedGraph(g.n, rest)


def split_regular(d: Digraph, k, parts):
    """Split a k-regular digraph into regular spanning subdigraphs.

    Extracts sum(parts) one-factors, groups them per `parts`, and returns
    the remaining edges as a final (k - sum)-regular subgraph when any
    remain. Each result is (subdigraph, host edge ids): the subdigraph's
    edge i corresponds to host edge ids[i].
    """
    if d.regularity() != k:
        raise CallerError("digraph is not %d-regular" % k)
    total = sum(parts)
    if any(p < 1 for p in parts):
        raise CallerError("parts must be positive")
    if total > k:
        raise CallerError("parts sum to %d > regularity %d" % (total, k))
    live_out = [list(out) for out in d.out_adj]
    factors = []
    for _ in range(total):
        f = one_factor(d, live_out)
        for t, e in enumerate(f):
            live_out[t].remove(e)
        factors.append(f)
    out = []
    taken = 0
    for p in parts:
        ids = sorted(e for f in factors[taken : taken + p] for e in f)
        taken += p
        out.append(_subdigraph(d, ids))
    if total < k:
        ids = sorted(e for out in live_out for e in out)
        out.append(_subdigraph(d, ids))
    return out


def _subdigraph(d: Digraph, ids):
    sub = Digraph(d.n, [(d.tails[e], d.heads[e]) for e in ids])
    return sub, tuple(ids)


@dataclass(frozen=True)
class SplitResult:
    """Oriented host digraph plus its three-way edge partition.

    g1 and g2 are d_prime-regular (g2 gets reversed before feeding the
    in-oracle), g3 is (k - 2*d_prime)-regular. The *_host tuples map each
    subgraph's edge ids back to host edge ids; together they partition
    the host's edge set.
    """

    host: Digraph
    g1: Digraph
    g2: Digraph
    g3: Digraph
    k: int
    d_prime: int
    g1_host: tuple
    g2_host: tuple
    g3_host: tuple


def pre_process(g: UndirectedGraph, profile: RouterProfile = None) -> SplitResult:
    """Full preprocessing of an undirected regular expander.

    Without a profile, a relaxed one with the canonical d_prime is
    derived just to drive the split. Profiles carrying a desk-scale
    d_prime override are honoured.
    """
    d = g.regularity()
    if d is None:
        raise CallerError("input graph is not regular")
    if profile is None:
        profile = derive_profile(g.n, d, "1/10", "1/50", relaxed=True)
    if profile.n != g.n or profile.d != d:
        raise CallerError(
            "profile is for (n=%d, d=%d), graph has (n=%d, d=%d)"
            % (profile.n, profile.d, g.n, d)
        )
    k = profile.k
    d_prime = profile.d_prime
    if d_prime < 1:
        raise CallerError("d=%d gives d_prime=0; need k >= 10" % d)
    if k - 2 * d_prime < 1:
        raise CallerError("k=%d leaves no edges for the connecting subgraph" % k)
    if d % 2 == 1:
        _, even_part = extract_perfect_matching(g)
        host = eulerian_orient(even_part)
    else:
        host = eulerian_orient(g)
    if host.regularity() != k:
        raise CallerError("internal: orientation produced a non-%d-regular digraph" % k)
    (g1, ids1), (g2, ids2), (g3, ids3) = split_regular(host, k, [d_prime, d_prime])
    return SplitResult(
        host=host,
        g1=g1,
        g2=g2,
        g3=g3,
        k=k,
        d_prime=d_prime,
        g1_host=ids1,
        g2_host=ids2,
        g3_host=ids3,
    )
