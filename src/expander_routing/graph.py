"""Immutable multigraph storage and dynamic edge subsets.

Edge identifiers are assigned in construction order and are stable for
the lifetime of a graph; adjacency rows keep that order, which is the
deterministic tie-break source for everything built on top. Graphs are
never mutated after construction: all dynamic state lives in EdgeSubset
overlays keyed by edge id. A graph holds its end lists; its adjacency
rows are tuples, each side built on first use, so a graph whose rows
nothing reads (the oriented host the split is cut from) never builds
them, and rows of ints leave the cyclic GC nothing to track.

Edge ids, and the vertex ids `parse_graph` reads, are one table's shared ints (`_ids`), so
every graph a build derives holds the same objects; the table keeps max(n, m) ints over all
graphs made and never shrinks (~5 MB at n=9600, d=31).
"""

from __future__ import annotations

import re
import sys
import threading
from collections import Counter
from functools import cached_property
from operator import itemgetter

from .errors import CallerError, FormatError

_IDS, _GROWING = [], threading.Lock()  # _IDS[i] is i: the one shared int object for id i


def _ids(count):  # the table, grown to hold at least the ids 0..count-1
    with _GROWING:  # two threads growing it at once would append an id twice
        _IDS.extend(range(len(_IDS), count))
    return _IDS


def rows_by_end(n, ends):
    """One list per vertex v of the edge ids e with ends[e] == v, in id order."""
    rows = [[] for _ in range(n)]
    for e, v in zip(_ids(len(ends)), ends):
        rows[v].append(e)
    return rows


def _frozen(rows):
    """`rows` with each row made a tuple in place, so no second copy of them all is held."""
    for v, row in enumerate(rows):
        rows[v] = tuple(row)
    return rows


class _EndLists:
    """Construction shared by both graph kinds: from (a, b) pairs, or from
    parallel end lists, which the graph keeps; ends are checked in C. The
    rows are cached properties: the first read builds them into the
    instance dict, where later reads find them without a call."""

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

    __slots__ = ("n", "tails", "heads", "__dict__")  # the dict holds the rows once read

    def _build(self, n, tails, heads):
        self._check(n, tails, heads)
        self.n, self.tails, self.heads = n, tails, heads

    @cached_property
    def out_adj(self):
        return _frozen(rows_by_end(self.n, self.tails))

    @cached_property
    def in_adj(self):
        return _frozen(rows_by_end(self.n, self.heads))

    @property
    def m(self):
        return len(self.tails)

    def regularity(self):
        """Return k if the graph is k-regular in both directions, else None.
        Counted from the end lists, so it builds no rows."""
        if self.n == 0:
            return 0
        k, rest = divmod(self.m, self.n)
        # each list holds kn ends; if no vertex is at other than k of them, every vertex is at k
        return k if not rest and {*Counter(self.tails).values(), *Counter(self.heads).values()} <= {k} else None

    def __repr__(self):
        return "Digraph(n=%d, m=%d)" % (self.n, self.m)


def reverse(d: Digraph) -> Digraph:
    """Reverse every edge, keeping edge ids; an involution. The result
    shares d's end lists, swapped, as no graph is mutated after
    construction, and builds its own rows on first use."""
    return Digraph.from_ends(d.n, d.heads, d.tails)


class UndirectedGraph(_EndLists):
    """Undirected multigraph; incidence lists hold edge ids."""

    __slots__ = ("n", "us", "vs", "__dict__")  # the dict holds the rows once read

    def _build(self, n, us, vs):
        self._check(n, us, vs)
        self.n, self.us, self.vs = n, us, vs

    @cached_property
    def inc(self):
        us, vs = self.us, self.vs
        inc = [[] for _ in range(self.n)]
        for e, a in zip(_ids(len(us)), us):
            inc[a].append(e)
            if vs[e] != a:
                inc[vs[e]].append(e)
        return _frozen(inc)

    @property
    def m(self):
        return len(self.us)

    def other_end(self, e, v):
        u = self.us[e]
        return self.vs[e] if u == v else u

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


def gather(seq, ids):
    """`seq[i]` for each i of the sequence `ids`, as a tuple made in C."""
    return itemgetter(*ids)(seq) if len(ids) > 1 else tuple(map(seq.__getitem__, ids))


class EdgeSubset:
    """Dynamic subset of a fixed digraph's edges.

    O(1) membership plus per-vertex in/out byte counters (no owner degree may
    pass 255) that stay consistent with the member set; `recount` rebuilds them.
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
        for side, adj in (("out", owner.out_adj), ("in", owner.in_adj)):
            if (top := max(deg := [*map(len, adj)], default=0)) > 255:
                raise CallerError("vertex %d has %s-degree %d, over a byte's 255" % (deg.index(top), side, top))
        self.out_deg = bytearray(owner.n)
        self.in_deg = bytearray(owner.n)
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
        return (member.count(tag) == len(ids) and (not ids or 0 <= min(ids) and max(ids) < len(member))
                and gather(member, ids).count(tag) == len(ids))

    def recount(self, ids):
        """Recompute (out_deg, in_deg, size) from the member ids, in any order."""
        tails, heads, n = self.owner.tails, self.owner.heads, self.owner.n
        out_deg, in_deg = bytearray(n), bytearray(n)
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


# a text exactly as `format_graph` writes it: the header, then "<a> <b>\n" for
# each edge, in plain decimal: no leading zero, at most 18 digits (which int() always takes)
_NUMBER = r"(?!0[0-9])[0-9]{1,18}"
_HEADER = re.compile(r"(%s) (%s) (directed|undirected)\n" % (_NUMBER, _NUMBER))
_EDGE_LINES = re.compile(r"(?:%s %s\n)*" % (_NUMBER, _NUMBER))
_CHUNK = 1 << 13  # characters of edge lines read at once: their token lists are the load's transient


def parse_graph(text: str):
    """The graph in `text`. A text exactly as `format_graph` writes it is
    read in C, a chunk of edge lines at a time; any other goes to the line
    reader, which loads what it can and words every FormatError."""
    header = _HEADER.match(text)
    if header:
        n = int(header[1])
        ends = _canonical_ends(text, header.end(), n, int(header[2]))
        if ends:
            return (Digraph if header[3] == "directed" else UndirectedGraph).from_ends(n, *ends)
    return _parse_lines(text)


def _canonical_ends(text, start, n, m):
    """The end lists of the edge lines text[start:], or None unless there
    are m of them, each as `format_graph` writes it with both ends below n."""
    if text.count("\n", start) != m:
        return None
    a_ends, b_ends = [], []
    while start < len(text):
        stop = text.find("\n", start + _CHUNK) + 1 or len(text)  # a chunk of whole lines
        if not _EDGE_LINES.fullmatch(text, start, stop):
            return None
        ends = list(map(int, text[start:stop].split()))
        top = max(ends)
        if top >= n:
            return None
        ends = gather(_ids(top + 1), ends)  # the shared id objects
        a_ends += ends[::2]
        b_ends += ends[1::2]
        start = stop
    return a_ends, b_ends


def _parse_lines(text):
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty graph text")
    head = lines[0].split()
    if len(head) != 3 or head[2] not in ("directed", "undirected"):
        raise FormatError("line 1: expected '<n> <m> directed|undirected'")
    try:
        n, m = int(plain(head[0])), int(plain(head[1]))
    except ValueError:
        raise FormatError("line 1: bad vertex/edge count") from None
    for name, count in (("vertex", n), ("edge", m)):
        if count < 0:
            raise FormatError("line 1: %s count must be at least 0, got %d" % (name, count))
    if "_" in text or "+" in text:  # the edge lines, tested in C
        i = next(i for i, line in enumerate(lines, 1) if "_" in line or "+" in line)
        raise FormatError("line %d: bad endpoint" % i)
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
    ids = _ids(max(max(a_ends, default=-1), max(b_ends, default=-1)) + 1)  # to the ids the text names, not to n
    a_ends, b_ends = list(map(ids.__getitem__, a_ends)), list(map(ids.__getitem__, b_ends))
    return (Digraph if head[2] == "directed" else UndirectedGraph).from_ends(n, a_ends, b_ends)


def plain(token):
    """`token`; ValueError if it holds '_' or '+', which int() reads and no writer emits."""
    if "_" in token or "+" in token:
        raise ValueError("bad number %r" % token)
    return token


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
