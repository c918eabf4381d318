"""Online out-edge dispenser over a fixed regular digraph.

The structure hands out edges whose heads are lightly loaded and absorbs
removals. It maintains:

  H    the active set (everything ever returned and not yet removed),
  B    buffered edges pre-reserved for vertices that are running out of
       safe choices,
  Sat  heads whose in-degree in F = H u B reached the saturation
       threshold (these are never handed out as new heads),
  Low  vertices most of whose out-neighbourhood saturated; their future
       requests are served from B stock.

Each host edge is in exactly one of three states, kept in one bytearray,
`state`: 0 free, 1 in H, 2 in B. `h` and `b` are EdgeSubsets that share
it as their member array with tags 1 and 2, so H and B are disjoint by
construction and every membership test is one read of `state[e]`. Sat
and Low are bytearrays too, so `audit` pays for the live state, not n.

When a vertex joins Low its buffer is topped up to the out-degree cap by
alternating walks: chains that alternate free host edges (traversed
forward) with buffered edges (traversed against their direction).
Toggling the buffer membership of every walk edge re-routes reservations
so that the walk's start gains one reserved out-edge and only the walk's
final head pays one unit of in-degree.

Edge picks and the forward steps of a walk search scan a vertex's
out-edges in a fixed pick order: host adjacency order rotated by
`v mod out-degree` at vertex v. Host adjacency is sorted by head id, so an
unrotated scan would send every vertex to the same low-id heads first,
which saturates them together and feeds Low and B (the paper allows any
free out-edge whose head is not saturated; the order is only a
tie-break). Every other choice (vertex scans, backward walk steps)
follows host adjacency order or ascending vertex ids, so runs are
deterministic.

Every mutation an add makes goes to an undo log of membership deltas,
one log per request (`request_log`). An exception inside replays the
whole log backwards, which leaves the structure exactly as it was when
the log opened. `add_edge` is a request of its own: it opens its own
log, so it is refused while one is open, and a failed add leaves no
trace and raises ExpansionViolation. The log holds additions only:
`release` (and so `remove_edge`) raises CallerError while a log is
open, so a request hands its unused edges back after its log closes.
The log is also where `add_calls` counts: each edge that entered H
counts once, when the log closes over it or a rollback undoes it.

A router request grows two trees and keeps one branch of each, so the
traffic comes in batches: `grow_tree` is a generator that makes a tree's
picks one dequeued vertex per resume, so two trees can grow in turn,
and ends a tree at the first discovery the caller's `meets` test
accepts (what a meeting is, the oracle does not know); `release` hands
a list of edges back. The pick rule and the removal rule live only
there; `add_edge` and `remove_edge` are their one-edge forms.

There is no test-only mode, audit switch or walk log. Tests watch the
oracle from outside: they wrap methods such as `find_alternating_walk`
on the instance (`_rebalance` calls it through the instance) and run
`audit` in between. Router traffic goes through `grow_tree` and
`release` only, so wrappers of `add_edge` and `remove_edge` count 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from math import ceil
from operator import ne

from .errors import CallerError, ExpansionViolation
from .graph import Digraph, EdgeSubset, positions
from .profiles import OracleProfile


@dataclass
class Findings:
    """What an audit or a verify found; no findings means clean."""

    findings: list

    @property
    def ok(self):
        return not self.findings


class EdgeOracle:
    def __init__(self, host: Digraph, profile: OracleProfile):
        if host.regularity() is None:
            raise CallerError("host is not regular")
        self.host = host
        self.profile = profile
        # state[e]: 0 free, 1 in H, 2 in B (the member array of both subsets)
        self.state = bytearray(host.m)
        self.h = EdgeSubset(host, self.state, 1)
        self.b = EdgeSubset(host, self.state, 2)
        self.sat = bytearray(host.n)
        self.low = bytearray(host.n)
        # sat_out[v] = number of host out-edges of v whose head is saturated
        self.sat_out = [0] * host.n
        # in_tails[w] = the tails of w's in-edges, the sat_out entries w moves;
        # fixed tuples, which the cyclic GC stops tracking
        self._in_tails = [tuple(map(host.tails.__getitem__, in_adj)) for in_adj in host.in_adj]
        # pick_order[v] = v's out-edges in the order picks and walks scan them
        self._pick_order = [
            (*adj[v % len(adj):], *adj[:v % len(adj)]) if adj else ()
            for v, adj in enumerate(host.out_adj)
        ]
        # integer thresholds: an integer x reaches a Fraction t iff x >= ceil(t)
        self._sat_min = ceil(profile.sat_threshold)
        self._low_min = ceil(profile.low_threshold)
        # audit counts on in_F, out_F and sat_out being 0 at an untouched vertex
        if min(self._sat_min, self._low_min) < 1 or min(profile.out_cap, profile.in_cap) < 0:
            raise CallerError("oracle thresholds must be positive and caps at least 0")
        # vertices whose sat_out crossed a threshold and await (de)promotion
        self._low_pending = set()
        self._drop_pending = set()
        self._undo = None
        self._h_opened = 0  # |H| when the open log opened
        self.add_calls = 0
        self.remove_calls = 0
        self.walk_searches = 0
        self.low_additions = 0

    # --- logged mutation primitives -----------------------------------------
    # Adds always run inside a log and removals never do, so the add-side
    # primitives always log and `_sat_remove` never does.

    def _b_add(self, e):
        self.b.add(e)
        self._undo.append(("b+", e))

    def _b_remove(self, e):
        self.b.remove(e)
        self._undo.append(("b-", e))

    def _sat_add(self, w):
        self.sat[w] = 1
        sat_out, low, low_min = self.sat_out, self.low, self._low_min
        for u in self._in_tails[w]:
            sat_out[u] += 1
            if sat_out[u] >= low_min and not low[u]:
                self._low_pending.add(u)
        self._undo.append(("s+", w))

    def _sat_remove(self, w):
        self.sat[w] = 0
        sat_out, low, low_min = self.sat_out, self.low, self._low_min
        for u in self._in_tails[w]:
            sat_out[u] -= 1
            if low[u] and sat_out[u] < low_min:
                self._drop_pending.add(u)

    def request_log(self):
        """Open an undo log for one request, for use as `with
        oracle.request_log():`; an exception in the block rolls back every
        mutation made inside it. `add_calls` counts an edge that entered H
        when it leaves the log: at close if kept (|H| grows only while a
        log is open), in `rollback` if undone. A second open while one is
        open is refused: it would empty the open log."""
        if self._undo is not None:
            raise CallerError("request_log: a log is already open")
        self._undo = []
        self._h_opened = self.h._size
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.rollback()
        self.add_calls += self.h._size - self._h_opened
        self._undo = None

    def rollback(self):
        """Undo every mutation in the open log."""
        log = self._undo
        for op, arg in reversed(log):
            if op == "h+":
                self.h.remove(arg)
                self.add_calls += 1
            elif op == "b+":
                self.b.remove(arg)
            elif op == "b-":
                self.b.add(arg)
            elif op == "s+":
                self._sat_remove(arg)
            else:  # "l+"
                self.low[arg] = 0
        log.clear()
        self._low_pending.clear()
        self._drop_pending.clear()

    # --- requests ------------------------------------------------------------

    def add_edge(self, v):
        """Return a fresh out-edge of v with a lightly loaded head; add it to H.
        A request of its own: it opens a log, so none may be open."""
        prof = self.profile
        if not (0 <= v < self.host.n):
            raise CallerError("vertex %d out of range" % v)
        if self.h.out_deg[v] >= prof.out_cap:
            raise CallerError("add_edge(%d): out-degree cap %d reached" % (v, prof.out_cap))
        edges = []
        with self.request_log():
            for _ in self.grow_tree({v: None}, edges, 1, 1, lambda w: False):
                pass
        return edges[0]

    def grow_tree(self, parent, edges, vertex_cap, fanout, meets):
        """Generator that grows a breadth-first tree of fresh edges out of
        the one key of `parent`, yielding after each dequeued vertex.

        It maps each discovery to its (parent, edge) in `parent` (keys in
        discovery order) and adds edges to the empty list `edges`. While
        at most `vertex_cap` vertices were reached, the next dequeued
        vertex asks for up to `fanout` edges, stopping at its out-degree
        cap, so the tree holds at most `fanout` * `vertex_cap` edges. A Low
        vertex takes its first B-stock edge in pick order, any other its
        first free out-edge in pick order whose head is not in Sat.

        Each discovered vertex w, once it is the last key of `parent`, is
        passed to `meets`; the tree ends at the first w for which it is
        true. Stopped there or dropped early, it is a prefix of the full
        tree, with the same picks and log entries. It needs an open log
        (checked at the first resume), which counts its edges and takes
        them back on ExpansionViolation.
        """
        undo = self._undo
        if undo is None:
            raise CallerError("grow_tree: no open log")
        out_cap = self.profile.out_cap
        h, state = self.h, self.state
        out_deg, in_deg, b_in = h.out_deg, h.in_deg, self.b.in_deg
        sat, low, sat_min = self.sat, self.low, self._sat_min
        heads, pick_order = self.host.heads, self._pick_order
        # the BFS queue: a for loop over a list visits what is appended to it
        order = list(parent)
        picks, log, enqueue, keep = range(fanout), undo.append, order.append, edges.append
        for u in order:
            if len(parent) > vertex_cap:
                break
            for _ in picks:
                if out_deg[u] >= out_cap:
                    break
                if low[u]:
                    # serve from the buffered stock
                    for e in pick_order[u]:
                        if state[e] == 2:
                            break
                    else:
                        raise ExpansionViolation("pick at vertex %d: buffered vertex has no stock" % u)
                    self._b_remove(e)
                    h.add(e)
                    log(("h+", e))
                    w = heads[e]
                else:
                    for e in pick_order[u]:
                        if state[e]:
                            continue
                        w = heads[e]
                        if not sat[w]:
                            break
                    else:
                        raise ExpansionViolation("pick at vertex %d: all free out-edges saturated" % u)
                    state[e] = 1
                    out_deg[u] += 1
                    in_deg[w] += 1
                    h._size += 1
                    log(("h+", e))
                    # w was not in Sat; only a Sat addition can promote anyone to Low
                    if in_deg[w] + b_in[w] >= sat_min:
                        self._sat_add(w)
                        if self._low_pending:
                            self._rebalance()
                keep(e)
                if w not in parent:
                    parent[w] = (u, e)
                    if meets(w):
                        return
                    enqueue(w)
            yield

    def remove_edge(self, e):
        """Remove an active edge; buffered tails keep it as stock."""
        self.release((e,))

    def release(self, edges):
        """Remove active edges in order, each as `remove_edge` would.

        Raises CallerError before any change unless every edge is active
        and none is repeated, and while a request log is open (the log
        holds additions only).
        """
        if self._undo is not None:
            raise CallerError("release: a request log is open")
        h, state = self.h, self.state
        if edges and (
            min(edges) < 0
            or max(edges) >= len(state)
            or any(map(ne, map(state.__getitem__, edges), repeat(1)))
        ):
            bad = next(e for e in edges if not (0 <= e < len(state)) or state[e] != 1)
            raise CallerError("release: edge %d is not active" % bad)
        if len(set(edges)) != len(edges):
            raise CallerError("release: an edge is listed twice")
        self.remove_calls += len(edges)
        out_deg, in_deg, b, b_in = h.out_deg, h.in_deg, self.b, self.b.in_deg
        sat, low, sat_min = self.sat, self.low, self._sat_min
        tails, heads = self.host.tails, self.host.heads
        for e in edges:
            v = tails[e]
            w = heads[e]
            state[e] = 0
            out_deg[v] -= 1
            in_deg[w] -= 1
            h._size -= 1
            if low[v]:
                b.add(e)
            elif sat[w] and in_deg[w] + b_in[w] < sat_min:
                self._sat_remove(w)
                if self._drop_pending:
                    self._cascade()

    # --- rebalancing ---------------------------------------------------------

    def _rebalance(self):
        """Promote every vertex that ran out of safe choices and top up its stock."""
        out_cap = self.profile.out_cap
        h, b, pending = self.h, self.b, self._low_pending
        while pending:
            # pending stays eligible: in an add sat_out only rises, only here sets Low
            x = min(pending)
            pending.remove(x)
            self.low[x] = 1
            self._undo.append(("l+", x))
            self.low_additions += 1
            while h.out_deg[x] + b.out_deg[x] < out_cap:
                found = self.find_alternating_walk(x)
                self.walk_searches += 1
                if found is None:
                    raise ExpansionViolation(
                        "rebalance(%d): no alternating walk to a free head" % x
                    )
                edges, y = found
                for e, forward in edges:
                    if forward:
                        self._b_add(e)
                    else:
                        self._b_remove(e)
                if not self.sat[y] and h.in_deg[y] + b.in_deg[y] >= self._sat_min:
                    self._sat_add(y)

    def find_alternating_walk(self, x):
        """Layered search for a walk from x to a head below the in-cap.

        Forward steps use free host edges (not in H u B) in pick order,
        backward steps use buffered edges against their direction in host
        order. Within a layer, endpoints whose in-degree stays below the
        saturation threshold after the toggle are preferred (any
        qualifying head is valid; picking a non-saturating one stops
        buffering from feeding the saturation it is trying to escape).
        Returns (edges as (id, forward) in walk order, endpoint) or None
        when no such walk exists.
        """
        host = self.host
        pick_order = self._pick_order
        state, h_in, b_in = self.state, self.h.in_deg, self.b.in_deg
        in_cap = self.profile.in_cap
        sat_min = self._sat_min
        head_parent = {}
        tail_parent = {}
        seen_tails = {x}
        tails = [x]
        while tails:
            new_heads = []
            fallback = -1
            for t in tails:
                for e in pick_order[t]:
                    if state[e]:
                        continue
                    w = host.heads[e]
                    if w in head_parent:
                        continue
                    head_parent[w] = (t, e)
                    in_w = h_in[w] + b_in[w]
                    if in_w < in_cap:
                        if in_w + 1 < sat_min:
                            return self._build_walk(x, w, head_parent, tail_parent)
                        if fallback < 0:
                            fallback = w
                    new_heads.append(w)
            if fallback >= 0:
                return self._build_walk(x, fallback, head_parent, tail_parent)
            tails = []
            for hd in new_heads:
                for e in host.in_adj[hd]:
                    if state[e] != 2:
                        continue
                    u = host.tails[e]
                    if u in seen_tails:
                        continue
                    seen_tails.add(u)
                    tail_parent[u] = (hd, e)
                    tails.append(u)
        return None

    @staticmethod
    def _build_walk(x, y, head_parent, tail_parent):
        rev = []
        cur = y
        while True:
            t, e = head_parent[cur]
            rev.append((e, True))
            if t == x:
                break
            hd, eb = tail_parent[t]
            rev.append((eb, False))
            cur = hd
        rev.reverse()
        return rev, y

    # --- cascading cleanup after removals -------------------------------------

    def _cascade(self):
        """Demote buffered vertices whose saturated out-neighbourhood shrank."""
        state, h_in, b_in, pending = self.state, self.h.in_deg, self.b.in_deg, self._drop_pending
        while pending:
            # pending stays eligible: in a removal sat_out only falls, only here clears Low
            x = min(pending)
            pending.remove(x)
            touched = set()
            for e in self.host.out_adj[x]:
                if state[e] == 2:
                    self.b.remove(e)
                    touched.add(self.host.heads[e])
            self.low[x] = 0
            for y in sorted(touched):
                if self.sat[y] and h_in[y] + b_in[y] < self._sat_min:
                    self._sat_remove(y)

    # --- verification ----------------------------------------------------------

    def audit(self, h_ids):
        """Recompute all state from the edge states and report every violation.

        `h_ids` are H's members in any order, as the caller holds them
        (`RoutingEngine.verify`: the union of the stored tree segments once
        it equals H). Counter lists are compared whole with their recounts,
        in C. While nothing is found the counters agree, so in_F and out_F
        are 0 off the ends of H and B edges, and the per-vertex rules loop
        over those ends and the Sat and Low ids, O(|H| + |B| + |Sat| +
        |Low|); else over every vertex. Sat and Low are recomputed sparsely and compared by
        memcmp; a mismatch loops over the ones of both arrays, since a Low
        flag can fall due where no H or B edge ends. H and B cannot overlap:
        an edge has one state. |H| needs no rule of its own: by pigeonhole,
        |H| > n * in_cap puts some in_F over in_cap, which the per-vertex
        rule reports.
        """
        findings = []
        host, n = self.host, self.host.n
        prof = self.profile
        h, b, sat, low, sat_out = self.h, self.b, self.sat, self.low, self.sat_out
        b_ids = b.members()
        for name, sub, ids in (("H", h, h_ids), ("B", b, b_ids)):
            out_deg, in_deg, size = sub.recount(ids)
            for side, ok in (("out", out_deg == sub.out_deg), ("in", in_deg == sub.in_deg)):
                if not ok:
                    findings.append("%s %s-degree counters disagree with recount" % (name, side))
            if size != len(sub):
                findings.append("%s size %d != recounted %d" % (name, len(sub), size))
        sat_ids, low_ids = positions(sat), positions(low)
        vertices = range(n)
        if not findings:
            ends = (map(end.__getitem__, ids) for end in (host.tails, host.heads) for ids in (h_ids, b_ids))
            vertices = sorted(set(sat_ids).union(low_ids, *ends))
        h_in, b_in, h_out, b_out = h.in_deg, b.in_deg, h.out_deg, b.out_deg
        sat_min, low_min = self._sat_min, self._low_min
        sat_expected = bytearray(n)
        for v in vertices:
            if h_in[v] + b_in[v] >= sat_min:
                sat_expected[v] = 1
        sat_out_maintained, low_expected = self._sat_out_from(sat_ids)
        sat_out_expected = sat_out_maintained
        if sat_expected != sat:
            for v in sorted(set(sat_ids).union(positions(sat_expected))):
                if sat[v] != sat_expected[v]:
                    findings.append(
                        "Sat mismatch at %d: maintained=%s recomputed=%s (in_F=%d)"
                        % (v, bool(sat[v]), bool(sat_expected[v]), h_in[v] + b_in[v])
                    )
            sat_out_expected, low_expected = self._sat_out_from(positions(sat_expected))
        if low_expected != low:
            for v in sorted(set(low_ids).union(positions(low_expected))):
                if low[v] != low_expected[v]:
                    findings.append(
                        "Low mismatch at %d: maintained=%s recomputed=%s (sat_out=%d)"
                        % (v, bool(low[v]), bool(low_expected[v]), sat_out_expected[v])
                    )
        out_cap, in_cap = prof.out_cap, prof.in_cap
        for v in low_ids:
            if h_out[v] + b_out[v] != out_cap:
                findings.append(
                    "buffered vertex %d has out_F=%d, expected the cap %d"
                    % (v, h_out[v] + b_out[v], out_cap)
                )
        if sat_out_maintained != sat_out:
            bad = next(compress(range(n), map(ne, sat_out_maintained, sat_out)))
            findings.append(
                "sat_out counter at %d: maintained=%d recomputed=%d"
                % (bad, sat_out[bad], sat_out_maintained[bad])
            )
        for v in vertices:
            in_f, out_f = h_in[v] + b_in[v], h_out[v] + b_out[v]
            if sat[v] and in_f < sat_min:
                findings.append("saturated vertex %d has in_F=%d below threshold" % (v, in_f))
            if low[v] and sat_out[v] < low_min:
                findings.append("buffered vertex %d has sat_out=%d below threshold" % (v, sat_out[v]))
            if not low[v] and b_out[v] != 0:
                findings.append("vertex %d holds buffer stock without being buffered" % v)
            if out_f > out_cap:
                findings.append("out_F(%d)=%d exceeds cap %d" % (v, out_f, out_cap))
            if in_f > in_cap:
                findings.append("in_F(%d)=%d exceeds cap %d" % (v, in_f, in_cap))
        return Findings(findings)

    def _sat_out_from(self, heads):
        """sat_out recounted as if exactly `heads` were saturated, and the
        Low flags (a bytearray) that count implies."""
        sat_out = [0] * self.host.n
        low = bytearray(self.host.n)
        low_min = self._low_min
        for w in heads:
            for u in self._in_tails[w]:
                sat_out[u] += 1
                if sat_out[u] >= low_min:
                    low[u] = 1
        return sat_out, low
