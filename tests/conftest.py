import dataclasses
from collections import deque
from itertools import islice

import pytest

from expander_routing.errors import CallerError, ExpansionViolation
from expander_routing.expanders import gen_random_regular_graph
from expander_routing.graph import Digraph, UndirectedGraph
from expander_routing.oracle import EdgeOracle
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


def undo_entries(oracle):
    """An oracle's open undo log as (tag, *args) rows, each tagged by the
    change its undo reverses: "h+" (undone by h.remove), "b+" (b.remove),
    "b-" (b.add), "s+" (_sat_remove) or "l+" (low.__setitem__). Rows from
    two deep copies compare equal, as their bound-method undos never do."""
    tags = (
        (oracle.h, "remove", "h+"),
        (oracle.b, "remove", "b+"),
        (oracle.b, "add", "b-"),
        (oracle, "_sat_remove", "s+"),
        (oracle.low, "__setitem__", "l+"),
    )
    rows = []
    for undo, *args in oracle._undo:
        (tag,) = [t for owner, name, t in tags if undo.__self__ is owner and undo.__name__ == name]
        rows.append((tag, *args))
    return rows


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


def one_vertex_tree(orc, v, prefer=frozenset()):
    """The edges of a one-vertex tree at v after one resume in the open
    log: the one pick `add_edge(v)` makes as a request of its own, with
    `prefer` as the pick preference (none once v is at its out-cap)."""
    edges = []
    drive(orc.grow_tree({v: None}, edges, 1, never, prefer), 1)
    return edges


def first_pick(orc, u, prefer, rows):
    """The pick rule spelled out over u's host row rotated by u mod its
    length, with `rows[w]` the reach row of head w: (edge, kind) for a Low
    vertex's first B edge ("stock"), else for the first free out-edge with
    an unsaturated head whose row meets `prefer` ("passed over" when an
    earlier such edge whose head's row misses `prefer` was passed over,
    else "preferred"), else for the first such edge at all ("first");
    edge None when u has none."""
    adj = orc.host.out_adj[u]
    row = adj[u % len(adj):] + adj[:u % len(adj)]
    if orc.low[u]:
        return next((e for e in row if orc.state[e] == 2), None), "stock"
    allowed = [e for e in row if orc.state[e] == 0 and not orc.sat[orc.host.heads[e]]]
    preferred = [e for e in allowed if any(x in prefer for x in rows[orc.host.heads[e]])]
    if preferred:
        return preferred[0], "preferred" if preferred[0] == allowed[0] else "passed over"
    return (allowed or [None])[0], "first"


def checked_picks(orc, tree, parent, edges, prefer, rows, picks):
    """Resume the `grow_tree` generator `tree` of `orc`, which grows into
    `parent` and `edges` with pick preference `prefer`, one pick at a time,
    checking each pick against `first_pick` over the reach rows `rows` and
    appending it to `picks`. A tree vertex picks until its out-cap and H
    out-degrees only rise inside a log, so the picking vertex is the first
    key below its out-cap."""
    out_deg, cap, ended = orc.h.out_deg, orc.profile.out_cap, object()
    while True:
        u = next((v for v in parent if out_deg[v] < cap), None)
        want = None if u is None else first_pick(orc, u, prefer, rows)[0]
        made = len(edges)
        step = next(tree, ended)
        if len(edges) > made:
            assert edges[made:] == [want]
            picks.append(want)
        if step is ended:
            return
        yield


def one_vertex_rows(n):
    """The default reach rows of an n-vertex oracle: each head alone."""
    return [(v,) for v in range(n)]


def set_reach(orc, rows):
    """Give `orc` the reach rows `rows` (one-vertex rows if None) in place,
    as if it had been built with them; its state stays as it is."""
    built = EdgeOracle(orc.host, orc.profile, rows)
    orc._reach, orc._pick_reach = built._reach, built._pick_reach


def no_preference(served):
    """A `tree_by_single_adds` preference that holds no head at any step."""
    return frozenset()


def tree_by_single_adds(orc, parent, vertex_cap, meets=never, steps=None, prefer=no_preference):
    """`EdgeOracle.grow_tree` spelled out with one one-vertex tree per pick,
    inside the caller's request log, over at most `steps` picks (the
    resumes before it is dropped). It grows into `parent`, a dict
    holding the root alone, and ends at the first discovered vertex w,
    then the last key of `parent`, for which `meets(w)` is true. The
    k-th pick (from 0) prefers `prefer(k)`."""
    edges = []
    q = deque(parent)
    while q and len(parent) <= vertex_cap:
        u = q.popleft()
        while orc.h.out_deg[u] < orc.profile.out_cap:
            if len(edges) == steps:
                return edges, parent
            [e] = one_vertex_tree(orc, u, prefer(len(edges)))
            edges.append(e)
            w = orc.host.heads[e]
            if w not in parent:
                parent[w] = (u, e)
                if meets(w):
                    return edges, parent
                q.append(w)
    return edges, parent


def drive(tree, steps=None):
    """Resume a `grow_tree` generator `steps` times (one pick each), or to
    its end when None."""
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
