"""Serve interleaved connect/disconnect requests with edge-disjoint paths.

A request for a path from a to b grows two trees with oracle-supplied
edges: one out of a inside the first split subgraph, one out of b inside
the reversed second subgraph (so its arcs point towards b in the
original orientation). They grow in lockstep, and both stop at the first
discovery, in lockstep order, of a vertex of the other tree as it then
stands, or of a vertex joined to it by a free path of one to three edges
of the third subgraph (edges no live path's middle segment holds,
through middle vertices in neither tree). The oracles only hand out
edges; the rule lives here, in one test per tree that `grow_tree` runs
on each discovery, and nothing tests a pair again. It tests the
discovery's fixed two-hop G3 row against the other tree's reach set, the
vertices one G3 edge or less from it, confirms a hit against H3 (few G3
edges, so no state follows H3 per vertex) and keeps the connector it
found: none, or that path. Trees that meet nothing grow to full size,
large enough that G3, minus the middle segments already spoken for,
connects them by a short directed path. One breadth-first search finds
both connectors, `_free_g3_path`: three hops from a discovery, or
`depth_cap` hops from the full out-tree.
The path is assembled from the two tree branches plus the connector,
every unused tree edge is handed back to its oracle, and the path
recorded in the `Ledger`, the one home of the game rules, which the
workload generator and the trace validator replay too. Removal returns
the path's edges the same way.

Failures keep the two-class contract. A request that breaks the game
rules raises CallerError before any mutation. A request whose tree
growth or connector search fails, steps that expansion guarantees,
raises ExpansionViolation: each oracle logs every mutation of the
request in one undo log, and the failure replays both logs backwards, so
the engine is left exactly as the request found it. H3 and the ledger
change only after the last failure point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import attrgetter

from .errors import CallerError, ExpansionViolation
from .graph import EdgeSubset, UndirectedGraph, reverse
from .oracle import EdgeOracle, Findings
from .preprocess import pre_process
from .profiles import RouterProfile


@dataclass(frozen=True)
class PathRecord:
    """One routed path: tree segment, connector segment, reversed tree segment.

    seg_a holds edge ids of the first subgraph (directed a -> a'),
    seg_mid of the third (a' -> b'), seg_b of the second in original
    orientation (b' -> b); seg_b ids equally index the reversed host the
    in-oracle runs on. A ledger that only replays the game rules, as the
    workload generator and the trace validator do, stores empty segments.
    """

    id: int
    a: int
    b: int
    seg_a: tuple
    seg_mid: tuple
    seg_b: tuple

    @property
    def length(self):
        return len(self.seg_a) + len(self.seg_mid) + len(self.seg_b)


class Ledger:
    """The game's rules and the live paths they are checked against.

    `paths` maps id -> PathRecord in creation order; `ps[v]` (`pe[v]`)
    counts the live paths that start (end) at v. Ids count the finds
    added here, so they number served finds only.
    """

    def __init__(self, n, endpoint_cap, r):
        self.n = n
        self.endpoint_cap = endpoint_cap
        self.r = r
        self.paths = {}
        self.ps = [0] * n
        self.pe = [0] * n
        self.next_id = 0

    def violation(self, a, b):
        """The rule find(a, b) breaks now, or None: endpoints in range and
        distinct, each in fewer than endpoint_cap live paths starting (ps)
        or ending (pe) there, fewer than r live paths before this one."""
        if not (0 <= a < self.n and 0 <= b < self.n):
            return "endpoint out of range"
        if a == b:
            return "find_path(%d, %d): endpoints must differ" % (a, b)
        if self.ps[a] >= self.endpoint_cap:
            return "vertex %d already starts %d paths" % (a, self.ps[a])
        if self.pe[b] >= self.endpoint_cap:
            return "vertex %d already ends %d paths" % (b, self.pe[b])
        if len(self.paths) >= self.r:
            return "live path count is at the volume cap r=%d" % self.r
        return None

    def add(self, a, b, seg_a=(), seg_mid=(), seg_b=()):
        """Record a served find under the next id; returns its record."""
        rec = PathRecord(self.next_id, a, b, seg_a, seg_mid, seg_b)
        self.next_id += 1
        self.paths[rec.id] = rec
        self.ps[a] += 1
        self.pe[b] += 1
        return rec

    def remove(self, path_id):
        """Drop a live path; returns its record. CallerError if it is not live."""
        rec = self.paths.pop(path_id, None)
        if rec is None:
            raise CallerError("unknown path id %s" % path_id)
        self.ps[rec.a] -= 1
        self.pe[rec.b] -= 1
        return rec

    def resolve(self, ref):
        """Path id of a remove ref: the id itself, or a negative index
        counting back through the live paths (-1 = most recent)."""
        if ref >= 0:
            return ref
        if len(self.paths) + ref < 0:
            raise CallerError("negative ref %d with only %d live paths" % (ref, len(self.paths)))
        return list(self.paths)[ref]


# the G3 radius of a meeting: a discovery's two-hop row against the other
# tree's one-edge step rows, so the meeting link searches this many hops
MEETING_RADIUS = 3


class RoutingEngine:
    def __init__(self, g: UndirectedGraph, profile: RouterProfile):
        self.profile = profile
        self.split = pre_process(g, profile)
        self.out_oracle = EdgeOracle(self.split.g1, profile.oracle)
        self.in_oracle = EdgeOracle(reverse(self.split.g2), profile.oracle)
        self.h3 = EdgeSubset(self.split.g3)
        self.ledger = Ledger(g.n, profile.endpoint_cap, profile.r)
        # fixed G3 rows, in adjacency order, H3 ignored: g3_out[v] (g3_in[v])
        # holds each end within two G3 edges out of (into) v once, one-edge
        # ends first, and step_out[v] (step_in[v]) holds v and its one-edge ends;
        # `_meets` tests discoveries with them and confirms against H3 with
        # link_out (link_in), the G3 path search `find_path` connects with too
        g1, g2, g3 = self.split.g1, self.split.g2, self.split.g3
        out1 = [tuple(map(g3.heads.__getitem__, row)) for row in g3.out_adj]
        in1 = [tuple(map(g3.tails.__getitem__, row)) for row in g3.in_adj]
        self.g3_out = [tuple(dict.fromkeys(chain(row, *map(out1.__getitem__, row)))) for row in out1]
        self.g3_in = [tuple(dict.fromkeys(chain(row, *map(in1.__getitem__, row)))) for row in in1]
        self.step_out = [(v, *row) for v, row in enumerate(out1)]
        self.step_in = [(v, *row) for v, row in enumerate(in1)]
        # bound to H3's member array, not to self: an engine is no reference cycle
        self.link_out = partial(self._free_g3_path, self.h3.member, g3.out_adj, g3.heads)
        self.link_in = partial(self._free_g3_path, self.h3.member, g3.in_adj, g3.tails)
        # what `_walk` reads of the subgraphs a path's three segments run in
        self._walk_rows = [(g.tails, g.heads, g.m, label)
                           for g, label in ((g1, "first"), (g3, "middle"), (g2, "last"))]

    @property
    def n(self):
        return self.split.host.n

    def oracle_call_counts(self):
        return {
            "out_add": self.out_oracle.add_calls,
            "out_remove": self.out_oracle.remove_calls,
            "in_add": self.in_oracle.add_calls,
            "in_remove": self.in_oracle.remove_calls,
            "walk_searches": self.out_oracle.walk_searches + self.in_oracle.walk_searches,
        }

    # --- requests ---------------------------------------------------------

    def find_path(self, a, b) -> PathRecord:
        broken = self.ledger.violation(a, b)
        if broken:
            raise CallerError(broken)
        with self.out_oracle.request_log(), self.in_oracle.request_log():
            edges_a, par_a, edges_b, par_b, meet = self._grow_trees(a, b)
            depth_cap = self.profile.depth_cap  # a derived property: read it once
            if meet is None:  # the paper's connector: full trees joined by the one G3 search
                seg = self.link_out(sorted(par_a), par_b, par_a, depth_cap)
                if seg is None:
                    raise ExpansionViolation(
                        "no connector of at most %d hops between the two trees in the third subgraph" % depth_cap
                    )
                g3 = self.split.g3
                meet = g3.tails[seg[0]], g3.heads[seg[-1]], seg
            ap, bp, seg_mid = meet
            if len(seg_mid) > depth_cap:
                raise ExpansionViolation("connector length %d exceeds cap %d" % (len(seg_mid), depth_cap))
        seg_a = self._tree_path(par_a, ap)
        seg_b_tree = self._tree_path(par_b, bp)
        for oracle, edges, keep in (
            (self.out_oracle, edges_a, set(seg_a)),
            (self.in_oracle, edges_b, set(seg_b_tree)),
        ):
            oracle.release([e for e in edges if e not in keep])
        for e in seg_mid:
            self.h3.add(e)
        return self.ledger.add(a, b, tuple(seg_a), tuple(seg_mid), tuple(reversed(seg_b_tree)))

    def remove_path(self, path_id):
        rec = self.ledger.remove(path_id)
        self.out_oracle.release(rec.seg_a)
        self.in_oracle.release(rec.seg_b)
        for e in rec.seg_mid:
            self.h3.remove(e)

    # --- tree growth --------------------------------------------------------

    def _grow_trees(self, a, b):
        """Grow the out-tree from a and the in-tree into b in lockstep, one
        dequeued vertex each in turn, and check their vertex and depth budgets.

        The first meeting in lockstep order ends both: a tree ends where its
        `_meets` test accepts a discovery and leaves the other suspended. A
        tree that ends unmet leaves the other to grow alone, and must reach
        `bfs_vertex_cap` vertices. BFS makes a tree's last key its deepest.
        Returns (edges_a, par_a, edges_b, par_b, the meeting's (entry, exit,
        connector edges) or None); the open undo logs count the edges and
        take them back on an ExpansionViolation.
        """
        prof = self.profile
        cap, depth_cap = prof.bfs_vertex_cap, prof.depth_cap  # derived properties: read them once
        edges_a, par_a, edges_b, par_b = [], {a: None}, [], {b: None}
        reach_a, reach_b, met = set(self.step_out[a]), set(self.step_in[b]), []
        meets_a = self._meets(True, par_a, par_b, reach_a, reach_b, met)
        meets_b = self._meets(False, par_b, par_a, reach_b, reach_a, met)
        grow_a = self.out_oracle.grow_tree(par_a, edges_a, cap, prof.fanout, meets_a)
        grow_b = self.in_oracle.grow_tree(par_b, edges_b, cap, prof.fanout, meets_b)
        # zip stops when the first tree ends; unless it met, the other goes on alone
        for _ in zip(grow_a, grow_b):
            pass
        if not met:
            for _ in chain(grow_a, grow_b):
                pass
        meet = met[0] if met else None
        for parent in (par_a, par_b):
            if meet is None and len(parent) < cap:
                raise ExpansionViolation("tree growth stalled at %d of %d vertices" % (len(parent), cap))
            depth = len(self._tree_path(parent, next(reversed(parent))))
            if depth > depth_cap:
                raise ExpansionViolation("tree depth %d exceeds budget %d" % (depth, depth_cap))
        return edges_a, par_a, edges_b, par_b, meet

    def _meets(self, out, own, other, reach, other_reach, met):
        """The `grow_tree` test by which the tree `own` (the out-tree if
        `out`, else the in-tree) meets the tree `other` as it stands.

        `reach` and `other_reach` are the trees' reach sets, the unions of
        their vertices' step rows. A discovery w first widens `reach` by
        its step row, then passes the reach test if it lies in
        `other_reach` or its two-hop row meets it: it is then within three
        G3 edges of (out-tree) or from (in-tree) the other tree, H3
        ignored. It meets if it is a key of `other`, or if `link_out`
        (`link_in`) finds a free G3 path of at most `MEETING_RADIUS` edges
        from w to `other`, avoiding `own`; the test then appends the
        connector, (entry, exit, edges in path order), to the list `met`
        that both trees' tests share.
        """
        g3 = self.split.g3
        step, near, link, ends = (
            (self.step_out, self.g3_out, self.link_out, g3.heads) if out
            else (self.step_in, self.g3_in, self.link_in, g3.tails)
        )
        widen, apart = reach.update, other_reach.isdisjoint

        def meets(w):
            widen(step[w])
            if w in other_reach or not apart(near[w]):
                if w in other:
                    met.append((w, w, []))
                    return True
                if (seg := link((w,), other, own, MEETING_RADIUS)) is not None:
                    met.append((w, ends[seg[-1]], seg) if out else (ends[seg[-1]], w, seg[::-1]))
                    return True
            return False

        return meets

    @staticmethod
    def _free_g3_path(h3m, adj, ends, sources, keys, own, hops):
        """The one G3 path search: the first shortest free G3 path (no edge
        set in `h3m`, H3's member array) of at most `hops` edges from a
        vertex of `sources` to a key of `keys`, as its edges walked along
        `adj` to their `ends` (out-edges to heads, in-edges to tails), or
        None. Breadth-first, one layer per hop, in `sources` order, then
        adjacency order, never through a vertex of `own` or one seen."""
        parent = dict.fromkeys(sources)
        layer = sources
        for left in reversed(range(hops)):  # hops left after this layer
            next_layer = []
            for u in layer:
                for e in adj[u]:
                    w = ends[e]
                    if w in keys:
                        if not h3m[e]:
                            parent[w] = u, e
                            return RoutingEngine._tree_path(parent, w)
                    elif left and not (h3m[e] or w in parent or w in own):
                        parent[w] = u, e
                        next_layer.append(w)
            layer = next_layer
        return None

    @staticmethod
    def _tree_path(parent, target):
        edges = []
        while parent[target] is not None:
            target, e = parent[target]
            edges.append(e)
        return edges[::-1]

    # --- reconstruction and verification ----------------------------------------

    def path_vertices(self, rec: PathRecord):
        """Vertex sequence a .. b of a stored path; raises on corruption."""
        verts, problem = self._walk(rec)
        if problem:
            raise CallerError("path %d is not a consistent walk: %s" % (rec.id, problem))
        return verts

    def _walk(self, rec):
        """The one path walker, of `path_vertices` and `verify`: rec's vertices
        from a along its G1, G3 and G2 segments, and None or what stopped it:
        an id outside its subgraph (negatives too), a break, a missed b."""
        verts = [v := rec.a]
        for seg, (tails, heads, m, label) in zip((rec.seg_a, rec.seg_mid, rec.seg_b), self._walk_rows):
            for e in seg:
                if not 0 <= e < m:
                    return verts, "%s segment holds edge %d outside its subgraph" % (label, e)
                if tails[e] != v:
                    return verts, "%s segment breaks at edge %d" % (label, e)
                verts.append(v := heads[e])
        return verts, None if v == rec.b else "walk ends at %d, not at b=%d" % (v, rec.b)

    def verify(self) -> Findings:
        """From-scratch recount of everything the ledger implies.

        O(stored path length) plus the two oracle audits, whose Python work
        follows the live state, not n. H1, H2 and H3 are checked against the
        union of their stored segments in C (`EdgeSubset.holds_exactly`), and
        one pass walks each stored path. The H1/H2 balance and in-cap rules
        loop over every vertex, and only once another check has found
        something, since on a clean state they cannot fire: every seg_a
        (seg_b) is an intact walk from a (into b), H1 (H2) is their union
        without repeats, and a clean audit's counters equal their recount
        from it, so out - in <= ps (pe) at every vertex, with ps and pe
        right; and a clean audit bounds each H in-degree by in_F <= in_cap.
        """
        findings = []
        prof, ledger = self.profile, self.ledger
        recs = list(ledger.paths.values())

        member_ids = []
        host_ids = []
        for name, seg, sub, what, to_host in (
            ("H1", "seg_a", self.out_oracle.h, "segments", self.split.g1_host),
            ("H2", "seg_b", self.in_oracle.h, "segments", self.split.g2_host),
            ("H3", "seg_mid", self.h3, "middle segments", self.split.g3_host),
        ):
            union = list(chain.from_iterable(map(attrgetter(seg), recs)))
            repeats = len(union) != len(set(union))
            exact = not repeats and sub.holds_exactly(union)
            if repeats:
                findings.append("%s: an edge appears in two stored paths" % name)
            elif not exact:
                findings.append("%s differs from the union of stored %s" % (name, what))
            member_ids.append(union if exact else sub.members())
            # an id outside its subgraph has no host edge; the walk reports it
            in_range = union if exact else filter(range(len(to_host)).__contains__, union)
            host_ids.extend(map(to_host.__getitem__, in_range))
        if len(host_ids) != len(set(host_ids)):
            findings.append("paths are not pairwise edge-disjoint over the host")

        # depth_cap hops is the budget of each segment, tree or connector
        depth_cap, len_cap = prof.depth_cap, prof.path_len_cap
        ps_expected, pe_expected = [0] * self.n, [0] * self.n
        for rec in recs:
            ps_expected[rec.a] += 1
            pe_expected[rec.b] += 1
            verts, problem = self._walk(rec)
            if problem:
                findings.append("path %d: %s" % (rec.id, problem))
            elif len(verts) <= depth_cap + 1:
                continue  # a whole walk of at most depth_cap hops breaks neither cap
            for label, seg in (("first", rec.seg_a), ("middle", rec.seg_mid), ("last", rec.seg_b)):
                if len(seg) > depth_cap:
                    findings.append("path %d: %s segment length %d over cap" % (rec.id, label, len(seg)))
            if rec.length > len_cap:
                findings.append("path %d: length %d over cap %d" % (rec.id, rec.length, len_cap))

        count = len(recs)
        if count > prof.r:
            findings.append("live path count %d exceeds the volume cap r=%d" % (count, prof.r))
        for name, sub in (("H1", self.out_oracle.h), ("H2", self.in_oracle.h), ("H3", self.h3)):
            if len(sub) > count * depth_cap:
                findings.append("%s size %d exceeds %d paths x depth budget" % (name, len(sub), count))

        # positional: perfbench/tracing.py wraps audit as audit(*args)
        audits = [oracle.audit(h_ids) for oracle, h_ids in zip((self.out_oracle, self.in_oracle), member_ids)]
        ps, pe, in_cap = ledger.ps, ledger.pe, prof.oracle.in_cap
        # on a clean state the four rules cannot fire (see the docstring)
        if findings or (ps_expected, pe_expected) != (ps, pe) or not all(a.ok for a in audits):
            (h1_out, h1_in), (h2_out, h2_in) = [(o.h.out_deg, o.h.in_deg) for o in (self.out_oracle, self.in_oracle)]
            for v in range(self.n):
                if h1_out[v] > h1_in[v] + ps[v]:
                    findings.append("H1 out/in imbalance at vertex %d" % v)
                if h2_out[v] > h2_in[v] + pe[v]:
                    findings.append("H2 out/in imbalance at vertex %d" % v)
                if h1_in[v] > in_cap:
                    findings.append("H1 in-degree %d over cap at vertex %d" % (h1_in[v], v))
                if h2_in[v] > in_cap:
                    findings.append("H2 in-degree %d over cap at vertex %d" % (h2_in[v], v))
        if ps_expected != ps:
            findings.append("start counters disagree with the ledger")
        if pe_expected != pe:
            findings.append("end counters disagree with the ledger")

        for name, oracle, audit in zip(("out-oracle", "in-oracle"), (self.out_oracle, self.in_oracle), audits):
            findings.extend("%s: %s" % (name, f) for f in audit.findings)
            # the host edge density that bounds |Low| is promised by strict profiles only
            if not prof.relaxed:
                low, bound = oracle.low.count(1), prof.beta * self.n / 12
                if low >= bound:
                    findings.append("%s: |Low|=%d is not below beta*n/12=%s" % (name, low, bound))
        return Findings(findings)
