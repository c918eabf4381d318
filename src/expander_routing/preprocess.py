"""Turn an undirected regular expander into the oriented, split form the router runs on.

Pipeline: set a perfect matching aside when the degree is odd, orient
the other edges along an Eulerian circuit so in- and out-degrees balance
(the walk skips the matched edges and the host numbers the others by
rank, so no edge-key dict or remainder graph is built), then cut out two
d_prime-regular spanning subdigraphs. The cut halves the live subgraph
along Euler circuits of its tail/head cover while its degree is even and
the wanted degrees fit in a half, and peels one factor otherwise (Gabow
1976; Alon 2003): for k=15, d_prime=6 that is a peel, a halving into
7 + 7, and one peel per half, so 3 one-factor extractions. The leftover
edges form the third subgraph, used only for short connecting segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress

from .errors import CallerError
from .graph import Digraph, UndirectedGraph, rows_by_end
from .matching import one_factor, perfect_matching_edges
from .profiles import RouterProfile


def _walk_circuits(inc, us, vs, starts, used):
    """Walk closed trails from each vertex of `starts` in turn.

    Vertex v has incident edges inc[v]; edge e joins us[e] and vs[e]. The
    walk always leaves along the first unused incident edge, so it is
    deterministic. It marks the bytearray `used` over edge ids, and
    returns it: 1 for an edge walked from us[e] to vs[e], 2 for one walked
    back; an edge set before the walk is skipped and keeps its value, and
    one never reached stays 0. When every degree is even each trail
    closes, so every vertex is left as often as it is entered.
    """
    rows = [iter(row) for row in inc]  # resumable, so each row is scanned once
    for start in starts:
        stack = [start]
        while stack:
            # a trail from the top vertex until it is stuck; each vertex it
            # leaves waits on the stack for its edges still unused
            v = stack.pop()
            while True:
                for e in rows[v]:
                    if not used[e]:
                        break
                else:
                    break
                stack.append(v)
                w = us[e]
                if w == v:
                    used[e] = 1
                    v = vs[e]
                else:
                    used[e] = 2
                    v = w
    return used


def eulerian_orient(g: UndirectedGraph, matched=()) -> Digraph:
    """Orient every edge of g not in `matched` along an Eulerian circuit.

    The unmatched edges must form a connected graph with all degrees
    even; the result has in-degree = out-degree = half the unmatched
    degree everywhere, and its edge i is the i-th unmatched edge (with no
    matching, edge ids are kept). Deterministic: the circuit always
    extends along the first unused incident edge, and the walk skips the
    matched edges, pre-marked in its `used` array.
    """
    us, vs = g.us, g.vs
    used = bytearray(g.m)
    degree = list(map(len, g.inc))
    for e in matched:
        if not used[e]:
            used[e] = 3
            degree[us[e]] -= 1
            if vs[e] != us[e]:  # a loop is in its vertex's row once
                degree[vs[e]] -= 1
    for v, k in enumerate(degree):
        if k % 2 != 0:
            raise CallerError("vertex %d has odd degree %d" % (v, k))
    first = used.find(0)  # one start: the first unmatched edge's end
    _walk_circuits(g.inc, us, vs, us[first : first + 1] if first >= 0 else (), used)
    # one circuit took every edge and no vertex is isolated: the graph is connected
    if not all(used) or (g.n > 1 and not all(degree)):
        raise CallerError("graph is disconnected; cannot orient along one circuit")
    # host edge i is the i-th unmatched edge (keep is 0 on matched ones), from the end it was walked from
    keep = used.translate(bytes.maketrans(b"\x03", b"\x00"))
    tails, heads = ([a if w == 1 else b for a, b, w in zip(compress(x, keep), compress(y, keep), compress(used, keep))]
                    for x, y in ((us, vs), (vs, us)))
    return Digraph.from_ends(g.n, tails, heads)


def split_regular(d: Digraph, k, parts):
    """Split a k-regular digraph into regular spanning subdigraphs.

    Returns one p-regular subdigraph per entry p of `parts`, then the
    remaining edges as a final (k - sum)-regular subgraph when any
    remain. Each result is (subdigraph, host edge ids): the subdigraph's
    edge i corresponds to host edge ids[i]. The cuts are Euler halvings
    where they fit and one-factor peels elsewhere (see `_carve`); for
    k=15 and parts [6, 6] that is 3 one-factors. The regularity check
    and the live rows are read from d's end lists, so d builds no rows.
    """
    if d.regularity() != k:
        raise CallerError("digraph is not %d-regular" % k)
    total = sum(parts)
    if any(p < 1 for p in parts):
        raise CallerError("parts must be positive")
    if total > k:
        raise CallerError("parts sum to %d > regularity %d" % (total, k))
    pieces, rest = _carve(d, rows_by_end(d.n, d.tails), k, parts)
    out = [_subdigraph(d, sorted(ids)) for ids in pieces]
    if total < k:
        out.append(_subdigraph(d, sorted(rest)))
    return out


def _carve(d, live_out, deg, parts):
    """Cut the deg-regular live subgraph into one edge list per part p,
    p-regular, and the rest; sum(parts) <= deg.

    While deg is even and the parts fit in two halves of degree deg/2
    (the longest prefix that fits in one, the others in the other),
    halve and carve each half; otherwise peel one factor into the rest.
    """
    if not parts:
        return [], [e for out in live_out for e in out]
    if sum(parts) == deg:
        # the parts take every edge: the last part is what the others leave
        pieces, rest = _carve(d, live_out, deg, parts[:-1])
        return pieces + [rest], []
    if deg % 2 == 0:
        half = deg // 2
        cut = sum(s <= half for s in accumulate(parts))
        if sum(parts[cut:]) <= half:
            live_a, live_b = _halve(d, live_out)
            a, rest_a = _carve(d, live_a, half, parts[:cut])
            b, rest_b = _carve(d, live_b, half, parts[cut:])
            return a + b, rest_a + rest_b
    factor = one_factor(d, live_out)
    for t, e in enumerate(factor):
        live_out[t].remove(e)
    pieces, rest = _carve(d, live_out, deg - 1, parts)
    return pieces, rest + factor


def _halve(d, live_out):
    """Cut an even-degree regular live subgraph in two regular halves.

    The walk runs over the bipartite cover (tail t, head n + h) of the
    live edges, every component of it: edges walked tail to head form
    one half, edges walked head to tail the other. Each cover vertex is
    left as often as entered, so each half has half the degree.
    """
    n, heads = d.n, d.heads
    live_in = [[] for _ in range(n)]
    for out in live_out:
        for e in out:
            live_in[heads[e]].append(e)
    # one int per cover head, shared by every edge into it
    shifted = list(range(n, 2 * n))
    cover_heads = [shifted[h] for h in heads]
    walked = _walk_circuits(live_out + live_in, d.tails, cover_heads, range(n), bytearray(d.m))
    return (
        [[e for e in out if walked[e] == 1] for out in live_out],
        [[e for e in out if walked[e] == 2] for out in live_out],
    )


def _subdigraph(d: Digraph, ids):
    sub = Digraph.from_ends(d.n, list(map(d.tails.__getitem__, ids)), list(map(d.heads.__getitem__, ids)))
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
    g1_host: tuple
    g2_host: tuple
    g3_host: tuple


def check_profile(g: UndirectedGraph, profile: RouterProfile) -> int:
    """The degree of g, which must be regular with the profile's (n, d)."""
    d = g.regularity()
    if d is None:
        raise CallerError("input graph is not regular")
    if profile.n != g.n or profile.d != d:
        raise CallerError(
            "profile is for (n=%d, d=%d), graph has (n=%d, d=%d)"
            % (profile.n, profile.d, g.n, d)
        )
    return d


def pre_process(g: UndirectedGraph, profile: RouterProfile) -> SplitResult:
    """Full preprocessing of an undirected regular expander, split with the
    `k` and `d_prime` of the profile the router runs on (which checks that
    they leave g3 an edge per vertex)."""
    d = check_profile(g, profile)
    k = profile.k
    # odd d: orient around a perfect matching, which no subgraph keeps
    host = eulerian_orient(g, perfect_matching_edges(g) if d % 2 else ())
    (g1, ids1), (g2, ids2), (g3, ids3) = split_regular(host, k, [profile.d_prime] * 2)
    return SplitResult(
        host=host,
        g1=g1,
        g2=g2,
        g3=g3,
        g1_host=ids1,
        g2_host=ids2,
        g3_host=ids3,
    )
