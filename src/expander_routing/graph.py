"""Immutable multigraph storage and dynamic edge subsets.

Edge identifiers are assigned in construction order and are stable for
the lifetime of a graph; adjacency lists keep that order, which is the
deterministic tie-break source for everything built on top. Graphs are
never mutated after construction: all dynamic state lives in EdgeSubset
overlays keyed by edge id.
"""

from __future__ import annotations

import sys
from operator import itemgetter

from .errors import CallerError, FormatError


class _EndLists:
    """Construction shared by both graph kinds: from (a, b) pairs, or from
    parallel end lists, which the graph keeps; ends are checked in C."""

    __slots__ = ()

    def __init__(self, n, edges):
        edges = list(edges)
        self._build(n, [a for a, _ in edges], [b for _, b in edges])

    @classmethod
    def from_ends(cls, n, a, b):
        """The graph whose edge e has ends a[e] and b[e] (tail and head if directed)."""
        g = cls.__new__(cls)
        g._build(n, a, b)
        return g

    @staticmethod
    def _check(n, a, b):
        if n < 0:
            raise CallerError("vertex count must be non-negative")
        if a and (min(min(a), min(b)) < 0 or max(max(a), max(b)) >= n):
            # an edge-by-edge scan only to name the first bad edge
            x, y = next((x, y) for x, y in zip(a, b) if not (0 <= x < n and 0 <= y < n))
            raise CallerError("edge (%d, %d) out of range for n=%d" % (x, y, n))


class Digraph(_EndLists):
    """Directed multigraph with per-vertex in/out adjacency.

    Parallel edges are first class; each occurrence gets its own edge id.
    """

    __slots__ = ("n", "tails", "heads", "out_adj", "in_adj")

    def _build(self, n, tails, heads):
        self._check(n, tails, heads)
        out_adj = [[] for _ in range(n)]
        in_adj = [[] for _ in range(n)]
        for e, t in enumerate(tails):  # one loop: both lists share each id's int
            out_adj[t].append(e)
            in_adj[heads[e]].append(e)
        self.n, self.tails, self.heads, self.out_adj, self.in_adj = n, tails, heads, out_adj, in_adj

    @property
    def m(self):
        return len(self.tails)

    def regularity(self):
        """Return k if the graph is k-regular in both directions, else None."""
        if self.n == 0:
            return 0
        degrees = {*map(len, self.out_adj), *map(len, self.in_adj)}
        return degrees.pop() if len(degrees) == 1 else None

    def __repr__(self):
        return "Digraph(n=%d, m=%d)" % (self.n, self.m)


def reverse(d: Digraph) -> Digraph:
    """Reverse every edge, keeping edge ids; an involution.

    The result shares d's lists, as no graph is mutated after
    construction: its out-adjacency is d's in-adjacency in the same
    (edge id) order, and tails and heads swap.
    """
    r = Digraph.__new__(Digraph)
    r.n, r.tails, r.heads, r.out_adj, r.in_adj = d.n, d.heads, d.tails, d.in_adj, d.out_adj
    return r


class UndirectedGraph(_EndLists):
    """Undirected multigraph; incidence lists hold edge ids."""

    __slots__ = ("n", "us", "vs", "inc")

    def _build(self, n, us, vs):
        self._check(n, us, vs)
        inc = [[] for _ in range(n)]
        for e, a in enumerate(us):
            inc[a].append(e)
            if vs[e] != a:
                inc[vs[e]].append(e)
        self.n, self.us, self.vs, self.inc = n, us, vs, inc

    @property
    def m(self):
        return len(self.us)

    def other_end(self, e, v):
        u = self.us[e]
        return self.vs[e] if u == v else u

    def degree(self, v):
        return len(self.inc[v])

    def regularity(self):
        if self.n == 0:
            return 0
        degrees = {*map(len, self.inc)}
        return degrees.pop() if len(degrees) == 1 else None

    def __repr__(self):
        return "UndirectedGraph(n=%d, m=%d)" % (self.n, self.m)


def positions(flags, value=1):
    """Ascending indices of `value` in the bytearray `flags`, one C `find` each."""
    found = []
    i = -1
    while (i := flags.find(value, i + 1)) >= 0:
        found.append(i)
    return found


class EdgeSubset:
    """Dynamic subset of a fixed digraph's edges.

    O(1) membership plus per-vertex in/out counters that stay consistent
    with the member set; `recount` rebuilds them from scratch for audits.
    `member` is a bytearray: `member[e]` is the subset's `tag` when e is
    in it and 0 when e is in no subset. Subsets that share one `member`
    array with distinct tags are disjoint by construction: `add` refuses
    an edge any of them holds, and `remove` one that does not carry this
    subset's tag, which catches bookkeeping bugs early instead of
    corrupting counters. With `member=None` the subset keeps its own.
    """

    __slots__ = ("owner", "member", "tag", "out_deg", "in_deg", "_size")

    def __init__(self, owner: Digraph, member=None, tag=1):
        self.owner = owner
        self.member = bytearray(owner.m) if member is None else member
        self.tag = tag
        self.out_deg = [0] * owner.n
        self.in_deg = [0] * owner.n
        self._size = 0

    def add(self, e):
        if self.member[e]:
            raise CallerError("edge %d already in a subset" % e)
        self.member[e] = self.tag
        self.out_deg[self.owner.tails[e]] += 1
        self.in_deg[self.owner.heads[e]] += 1
        self._size += 1

    def remove(self, e):
        if self.member[e] != self.tag:
            raise CallerError("edge %d not in subset" % e)
        self.member[e] = 0
        self.out_deg[self.owner.tails[e]] -= 1
        self.in_deg[self.owner.heads[e]] -= 1
        self._size -= 1

    def __len__(self):
        return self._size

    def members(self):
        """Member edge ids in ascending order: `positions` of the tag."""
        return positions(self.member, self.tag)

    def holds_exactly(self, ids):
        """Whether the members are exactly `ids`, a list that repeats no id:
        as many ids as tags, all in range and tagged, checked in C."""
        member, tag = self.member, self.tag
        if len(ids) < 2:  # itemgetter of fewer than two ids returns no tuple
            return self.members() == sorted(ids)
        return (member.count(tag) == len(ids) and 0 <= min(ids) and max(ids) < len(member)
                and itemgetter(*ids)(member).count(tag) == len(ids))

    def recount(self, ids):
        """Recompute (out_deg, in_deg, size) from the member ids, in any order."""
        tails, heads, n = self.owner.tails, self.owner.heads, self.owner.n
        out_deg, in_deg = [0] * n, [0] * n
        for e in ids:
            out_deg[tails[e]] += 1
            in_deg[heads[e]] += 1
        return out_deg, in_deg, len(ids)


# --- text format -----------------------------------------------------------
#
# line 1: "<n> <m> directed|undirected", then m lines "<tail> <head>", 0-based.


def format_graph(g) -> str:
    if isinstance(g, Digraph):
        kind = "directed"
        pairs = zip(g.tails, g.heads)
    elif isinstance(g, UndirectedGraph):
        kind = "undirected"
        pairs = zip(g.us, g.vs)
    else:
        raise CallerError("unsupported graph type: %r" % type(g))
    lines = ["%d %d %s" % (g.n, g.m, kind)]
    lines.extend("%d %d" % (a, b) for a, b in pairs)
    return "\n".join(lines) + "\n"


def parse_graph(text: str):
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty graph text")
    head = lines[0].split()
    if len(head) != 3 or head[2] not in ("directed", "undirected"):
        raise FormatError("line 1: expected '<n> <m> directed|undirected'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError("line 1: bad vertex/edge count") from None
    for name, count in (("vertex", n), ("edge", m)):
        if count < 0:
            raise FormatError("line 1: %s count must be at least 0, got %d" % (name, count))
    a_ends, b_ends = [], []
    for i, line in enumerate(lines[1 : m + 1], start=2):
        parts = line.split()
        if len(parts) != 2:
            raise FormatError("line %d: expected '<tail> <head>'" % i)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError("line %d: bad endpoint" % i) from None
        if not (0 <= a < n and 0 <= b < n):
            raise FormatError("line %d: edge (%d, %d) out of range for n=%d" % (i, a, b, n))
        a_ends.append(a)
        b_ends.append(b)
    if len(a_ends) != m:
        raise FormatError("expected %d edge lines, found %d" % (m, len(a_ends)))
    for i, line in enumerate(lines[m + 1 :], start=m + 2):
        if line.strip():
            raise FormatError("line %d: more than the %d edge lines the header declares" % (i, m))
    return (Digraph if head[2] == "directed" else UndirectedGraph).from_ends(n, a_ends, b_ends)


def read_ascii(path, kind):
    """The text of an ASCII `kind` file (graph, trace, profile); `-` reads
    standard input. A non-ASCII byte raises FormatError naming its line."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(
            "%s line %d: non-ASCII byte 0x%02x" % (kind, line, data[exc.start])
        ) from None


def load_graph(path):
    return parse_graph(read_ascii(path, "graph"))


def save_graph(path, g):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_graph(g))
