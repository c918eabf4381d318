import dataclasses
from collections import deque
from itertools import islice

import pytest

from expander_routing.errors import CallerError, ExpansionViolation
from expander_routing.expanders import gen_random_regular_graph
from expander_routing.graph import Digraph, UndirectedGraph
from expander_routing.preprocess import eulerian_orient
from expander_routing.profiles import RouterProfile, format_profile
from expander_routing.router import Ledger


def edge_pairs(g):
    """A graph's edges as endpoint pairs, in id order."""
    if isinstance(g, Digraph):
        return list(zip(g.tails, g.heads))
    return list(zip(g.us, g.vs))


def oriented_host(n, d, seed):
    """A d-regular digraph built as the router builds its host: the Eulerian
    orientation of a random 2d-regular graph (so 2d < n, and it must be connected)."""
    return eulerian_orient(gen_random_regular_graph(n, 2 * d, seed))


def dump(oracle):
    """Stable text listing of an oracle's four state sets, for golden tests."""
    sets = [
        ("H", oracle.h.members()),
        ("B", oracle.b.members()),
        ("Sat", [v for v in range(oracle.host.n) if oracle.sat[v]]),
        ("Low", [v for v in range(oracle.host.n) if oracle.low[v]]),
    ]
    lines = []
    for name, ids in sets:
        lines.append("%s:%s" % (name, "".join(" %d" % i for i in ids)))
    return "\n".join(lines) + "\n"


def validate_trace(commands, n, endpoint_cap, r):
    """Check every prefix of a trace against the game rules, replayed on a
    `router.Ledger` as the engine keeps it; returns the violations."""
    ledger = Ledger(n, endpoint_cap, r)
    problems = []
    for cmd in commands:
        if cmd.kind == "find":
            broken = ledger.violation(cmd.a, cmd.b)
            if broken:
                problems.append("line %d: %s" % (cmd.line, broken))
            else:
                ledger.add(cmd.a, cmd.b)
        elif cmd.kind == "remove":
            try:
                ledger.remove(ledger.resolve(cmd.ref))
            except CallerError as exc:
                problems.append("line %d: %s" % (cmd.line, exc))
    return problems


@dataclasses.dataclass(frozen=True)
class DepthCappedProfile(RouterProfile):
    """A router profile whose tree depth budget is a field, not ceil(log2 n):
    the lever that forces depth failures. `path_len_cap` follows it."""

    depth_cap: int = 0


def depth_capped(profile, cap):
    """`profile` with a tree depth budget of `cap` hops."""
    fields = {f.name: getattr(profile, f.name) for f in dataclasses.fields(RouterProfile)}
    return DepthCappedProfile(**fields, depth_cap=cap)


def save_profile(path, profile):
    """Write a profile file that `load_profile` reads back."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_profile(profile))


@pytest.fixture
def triangle():
    return Digraph(3, [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def k4():
    return UndirectedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.fixture
def c8():
    return UndirectedGraph(8, [(i, (i + 1) % 8) for i in range(8)])


def never(w):
    """A `meets` test that no discovery passes."""
    return False


def one_vertex_tree(orc, v):
    """The edges of a one-vertex tree grown from v in the open log: the
    picks `add_edge(v)` makes as a request of its own."""
    edges = []
    drive(orc.grow_tree({v: None}, edges, 1, 1, never))
    return edges


def tree_by_single_adds(orc, parent, vertex_cap, fanout, meets=never, steps=None):
    """`EdgeOracle.grow_tree` spelled out with one one-vertex tree per edge,
    inside the caller's request log, over at most `steps` dequeued vertices
    (the resumes before it is dropped). It grows into `parent`, a dict
    holding the root alone, and ends at the first discovered vertex w,
    then the last key of `parent`, for which `meets(w)` is true."""
    edges = []
    q = deque(parent)
    served = 0
    while q and len(parent) <= vertex_cap and served != steps:
        u = q.popleft()
        served += 1
        for _ in range(fanout):
            if orc.h.out_deg[u] >= orc.profile.out_cap:
                break
            [e] = one_vertex_tree(orc, u)
            edges.append(e)
            w = orc.host.heads[e]
            if w not in parent:
                parent[w] = (u, e)
                if meets(w):
                    return edges, parent
                q.append(w)
    return edges, parent


def drive(tree, steps=None):
    """Resume a `grow_tree` generator `steps` times, or to its end when None."""
    for _ in islice(tree, steps):
        pass


def _probe_trees(engine, a, b):
    """Grow the two trees of find(a, b) as the find does, inside undo logs
    that then take them back. Returns {"out": (edges, parent), "in":
    (edges, parent), "meet": the meeting's (entry, exit, connector edges)
    or None}."""
    out, inn = engine.out_oracle, engine.in_oracle
    with out.request_log(), inn.request_log():
        edges_a, par_a, edges_b, par_b, meet = engine._grow_trees(a, b)
        out.rollback()
        inn.rollback()
    return {"out": (edges_a, par_a), "in": (edges_b, par_b), "meet": meet}


def _tree_depths(oracle, root, edges):
    """Hop distance from root of every vertex reached over `edges` alone."""
    adj = {}
    for e in edges:
        adj.setdefault(oracle.host.tails[e], []).append(oracle.host.heads[e])
    dist = {root: 0}
    q = deque([root])
    while q:
        u = q.popleft()
        for w in adj.get(u, ()):
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


@pytest.fixture
def probe_trees():
    return _probe_trees


@pytest.fixture(scope="session")
def tree_depths():
    return _tree_depths


def _walk_vertices(oracle, x, edges):
    """Vertex sequence of an alternating walk from x: after a forward edge
    comes its head, after a backward edge its tail."""
    host = oracle.host
    return [x] + [host.heads[e] if forward else host.tails[e] for e, forward in edges]


@pytest.fixture(scope="session")
def walk_vertices():
    return _walk_vertices


def _watch_walks(oracle):
    """Record each alternating walk the oracle applies, from outside.

    Wraps `find_alternating_walk` and `add_edge` on the instance. A walk's
    vertices get their (out_F, in_F) when the search returns and again at
    the next search or when the add returns, after the toggle. Returns the
    list the records go to: dicts with x, y, vertices, before and after.
    """
    h, b = oracle.h, oracle.b
    search, add_edge = oracle.find_alternating_walk, oracle.add_edge
    records, pending = [], []

    def degrees(verts):
        return {v: (h.out_deg[v] + b.out_deg[v], h.in_deg[v] + b.in_deg[v]) for v in set(verts)}

    def settle():
        for rec in pending:
            rec["after"] = degrees(rec["vertices"])
            records.append(rec)
        pending.clear()

    def watched_search(x):
        settle()
        found = search(x)
        if found is not None:
            edges, y = found
            verts = _walk_vertices(oracle, x, edges)
            pending.append({"x": x, "y": y, "vertices": list(verts), "before": degrees(verts)})
        return found

    def watched_add(v):
        try:
            e = add_edge(v)
        except ExpansionViolation:
            pending.clear()  # rolled back with the add
            raise
        settle()
        return e

    oracle.find_alternating_walk = watched_search
    oracle.add_edge = watched_add
    return records


@pytest.fixture(scope="session")
def watch_walks():
    return _watch_walks
