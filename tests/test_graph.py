import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import edge_pairs, oriented_host
from expander_routing import graph as graph_module
from expander_routing.errors import CallerError, FormatError
from expander_routing.graph import (
    Digraph,
    EdgeSubset,
    UndirectedGraph,
    format_graph,
    gather,
    parse_graph,
    plain,
    reverse,
)


def edge_lists(max_n=12, max_m=40):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=max_m,
            ),
        )
    )


def test_single_edge():
    d = Digraph(2, [(0, 1)])
    assert d.m == 1
    assert d.out_adj[0] == (0,) and d.in_adj[1] == (0,)
    assert (d.tails[0], d.heads[0]) == (0, 1)


def test_triangle_is_one_regular(triangle):
    assert triangle.regularity() == 1


def test_parallel_edges_get_distinct_ids():
    d = Digraph(4, [(0, 1), (0, 1)])
    assert d.m == 2
    assert d.out_adj[0] == (0, 1)


def test_endpoint_out_of_range():
    with pytest.raises(CallerError):
        Digraph(2, [(0, 2)])
    with pytest.raises(CallerError):
        UndirectedGraph(3, [(0, 3)])


@pytest.mark.parametrize("cls", [Digraph, UndirectedGraph])
def test_constructors_refuse_negative_n(cls):
    with pytest.raises(CallerError, match="^vertex count must be non-negative$"):
        cls(-1, [])


@pytest.mark.parametrize("cls", [Digraph, UndirectedGraph])
@pytest.mark.parametrize(
    "edges, bad",
    [
        ([(0, 1), (3, 0), (0, 5)], (3, 0)),
        ([(0, 1), (1, -1), (4, 4)], (1, -1)),
        ([(2, 2), (0, 1), (1, 2), (9, 0)], (9, 0)),
    ],
)
def test_constructors_name_the_first_bad_edge(cls, edges, bad):
    with pytest.raises(CallerError, match=r"^edge \(%d, %d\) out of range for n=3$" % bad):
        cls(3, edges)


def test_reverse_triangle(triangle):
    r = reverse(triangle)
    assert edge_pairs(r) == [(1, 0), (2, 1), (0, 2)]
    assert edge_pairs(reverse(r)) == edge_pairs(triangle)


def test_reverse_swaps_degree_sequences():
    d = oriented_host(20, 3, seed=4)
    r = reverse(d)
    assert r.in_adj == d.out_adj
    assert r.out_adj == d.in_adj


def test_reverse_shares_the_input_lists():
    # the reversal shares d's end lists, and its rows equal those a fresh
    # build of the reversed edges makes; reversing twice restores every edge
    d = oriented_host(20, 3, seed=4)
    r = reverse(d)
    assert r.tails is d.heads and r.heads is d.tails
    fresh = Digraph(d.n, edge_pairs(r))
    assert (fresh.out_adj, fresh.in_adj) == (r.out_adj, r.in_adj)
    assert edge_pairs(reverse(r)) == edge_pairs(d)


@given(edge_lists())
def test_reverse_is_involution(args):
    n, edges = args
    d = Digraph(n, edges)
    assert edge_pairs(reverse(reverse(d))) == edge_pairs(d)


def test_regular_digraph_recounts(triangle):
    d = oriented_host(40, 5, seed=3)
    assert d.regularity() == 5
    for v in range(40):
        assert len(d.out_adj[v]) == 5
        assert len(d.in_adj[v]) == 5


# --- EdgeSubset ---------------------------------------------------------


def test_subset_add_remove_counts(triangle):
    sub = EdgeSubset(triangle)
    sub.add(0)
    sub.add(2)
    assert len(sub) == 2
    assert sub.member[0] and not sub.member[1]
    assert sub.out_deg[0] == 1 and sub.in_deg[0] == 1
    sub.remove(0)
    assert sub.members() == [2]


def test_subset_double_add_raises(triangle):
    sub = EdgeSubset(triangle)
    sub.add(0)
    with pytest.raises(CallerError):
        sub.add(0)
    with pytest.raises(CallerError):
        sub.remove(1)


@pytest.mark.parametrize("ids", [[], [3], [3, 0], [4, 4, 1], range(5)])
def test_gather_reads_each_id_as_a_tuple(ids):
    # itemgetter returns no tuple for fewer than two ids; gather always does
    for seq in ([10, 11, 12, 13, 14], bytearray(b"\x0a\x0b\x0c\x0d\x0e")):
        assert gather(seq, ids) == tuple(10 + i for i in ids)


def test_subset_refuses_a_degree_its_byte_counters_cannot_hold():
    # 256 parallel edges 0 -> 1 give vertex 0 out-degree 256; 256 edges into
    # vertex 0 from distinct tails give it in-degree 256 and no out-degree over 1
    with pytest.raises(CallerError, match=r"^vertex 0 has out-degree 256, over a byte.s 255$"):
        EdgeSubset(Digraph(2, [(0, 1)] * 256))
    with pytest.raises(CallerError, match=r"^vertex 0 has in-degree 256, over a byte.s 255$"):
        EdgeSubset(Digraph(257, [(v, 0) for v in range(1, 257)]))
    # 255 of them fit: every edge added, both counters read 255 and match the recount
    sub = EdgeSubset(Digraph(2, [(0, 1)] * 255))
    for e in range(255):
        sub.add(e)
    assert (sub.out_deg[0], sub.in_deg[1]) == (255, 255)
    assert sub.recount(sub.members()) == (sub.out_deg, sub.in_deg, 255)


@settings(max_examples=60)
@given(st.lists(st.integers(0, 59), min_size=0, max_size=120))
def test_subset_counters_match_recount(ops):
    host = oriented_host(12, 5, seed=8)
    sub = EdgeSubset(host)
    for op in ops:
        if sub.member[op]:
            sub.remove(op)
        else:
            sub.add(op)
    out_deg, in_deg, size = sub.recount(sub.members())
    assert out_deg == sub.out_deg
    assert in_deg == sub.in_deg
    assert size == len(sub)


# --- text format ----------------------------------------------------------


def test_text_round_trip_digraph(triangle):
    text = format_graph(triangle)
    assert text.splitlines()[0] == "3 3 directed"
    again = parse_graph(text)
    assert format_graph(again) == text


def test_text_round_trip_undirected(k4):
    text = format_graph(k4)
    assert text.splitlines()[0] == "4 6 undirected"
    assert format_graph(parse_graph(text)) == text


@given(edge_lists())
def test_text_round_trip_random(args):
    n, edges = args
    d = Digraph(n, edges)
    assert edge_pairs(parse_graph(format_graph(d))) == edge_pairs(d)


@pytest.mark.parametrize(
    "text",
    ["", "3 1 nonsense\n0 1\n", "2 1 directed\n0\n", "2 2 directed\n0 1\n", "2 1 directed\n0 9\n"],
)
def test_text_parse_errors(text):
    with pytest.raises(FormatError):
        parse_graph(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 2 directed\n0 1\n1 2\n2 0\n", "line 4: more than the 2 edge lines"),
        ("3 2 undirected\n0 1\n0 5\n", r"line 3: edge \(0, 5\) out of range for n=3"),
        ("-1 0 undirected\n", "^line 1: vertex count must be at least 0, got -1$"),
        ("3 -1 undirected\n", "^line 1: edge count must be at least 0, got -1$"),
        # int() alone reads '_' and '+': these would load the edges (0, 11) and (2, 3)
        ("12 2 undirected\n0 1_1\n+2 3\n", "^line 2: bad endpoint$"),
        ("12 2 directed\n0 1\n+2 3\n", "^line 3: bad endpoint$"),
        ("1_2 2 undirected\n0 1\n2 3\n", "^line 1: bad vertex/edge count$"),
        ("12 +2 undirected\n0 1\n2 3\n", "^line 1: bad vertex/edge count$"),
    ],
)
def test_text_parse_errors_name_the_line(text, message):
    with pytest.raises(FormatError, match=message):
        parse_graph(text)


def test_text_parse_allows_trailing_blank_lines():
    assert parse_graph("3 2 directed\n0 1\n1 2\n\n  \n").m == 2


def _reference_parse(text):
    """The line reader every graph text went through before canonical texts
    were read in C, copied as it stood: the graph, or FormatError."""
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
    return (Digraph if head[2] == "directed" else UndirectedGraph).from_ends(n, a_ends, b_ends)


def _outcome(parse, text):
    """What `parse` makes of `text`: the graph's kind, n and end lists, or the FormatError's message."""
    try:
        g = parse(text)
    except FormatError as exc:
        return "error", str(exc)
    return type(g).__name__, g.n, *((g.tails, g.heads) if isinstance(g, Digraph) else (g.us, g.vs))


def _edit_token(text, i, edit):
    """`text` with edit(token) in place of its i-th token (counted mod their number), spacing kept."""
    spans = [m.span() for m in re.finditer(r"\S+", text)]
    if not spans:  # edits before this one left no token
        return text
    a, b = spans[i % len(spans)]
    return text[:a] + edit(text[a:b]) + text[b:]


def _edit_line(text, i, edit):
    """`text` with edit(line), a list of lines, in place of its i-th edge line (counted mod their number)."""
    lines = text.split("\n")
    j = min(1 + i % max(1, len(lines) - 2), len(lines) - 1)  # an edge line, else the last
    lines[j:j + 1] = edit(lines[j])
    return "\n".join(lines)


# each edit takes (text, n, i) for a random i; together they cover what the line reader accepts and refuses
PERTURBATIONS = {
    "tab": lambda t, n, i: _edit_line(t, i, lambda line: [line.replace(" ", "\t", 1)]),
    "crlf": lambda t, n, i: t.replace("\n", "\r\n"),
    "one crlf": lambda t, n, i: _edit_line(t, i, lambda line: [line + "\r"]),
    "double space": lambda t, n, i: _edit_line(t, i, lambda line: [line.replace(" ", "  ", 1)]),
    "leading zero": lambda t, n, i: _edit_token(t, i, lambda s: "0" + s),
    "trailing blank lines": lambda t, n, i: t + ("\n", "  \n", "\n\n")[i % 3],
    "missing line": lambda t, n, i: _edit_line(t, i, lambda line: []),
    "three tokens": lambda t, n, i: _edit_line(t, i, lambda line: [line + " 1"]),
    "out of range": lambda t, n, i: _edit_token(t, i + 3, lambda s: str(n + i % 3)),
    "plus": lambda t, n, i: _edit_token(t, i, lambda s: "+" + s),
    "underscore": lambda t, n, i: _edit_token(t, i, lambda s: s[:1] + "_" + s[1:]),
    "non-ascii digit": lambda t, n, i: _edit_token(t, i, lambda s: s + "\u0663"),  # int() reads it as 3
    "non-ascii letter": lambda t, n, i: _edit_line(t, i, lambda line: [line + "\u00e9"]),
    "no final newline": lambda t, n, i: t[:-1],
    "leading space": lambda t, n, i: _edit_line(t, i, lambda line: [" " + line]),
    "long number": lambda t, n, i: _edit_token(t, i, lambda s: "1" * 30),
}


def _graphs(max_n=12, max_m=30):
    """Digraphs and undirected graphs, m=0 among them, with ids above 9 so tokens differ in length."""
    return st.builds(
        lambda kind, n, picks: kind(n, [(a % n, b % n) for a, b in picks] if n else []),
        st.sampled_from([Digraph, UndirectedGraph]),
        st.integers(min_value=0, max_value=max_n),
        st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=max_m),
    )


@given(_graphs())
@example(Digraph(3, []))  # m=0
@example(UndirectedGraph(0, []))
def test_parse_reads_what_format_graph_writes(g):
    text = format_graph(g)
    assert _outcome(parse_graph, text) == _outcome(_reference_parse, text) == _outcome(lambda t: g, text)


@given(_graphs(), st.lists(st.tuples(st.sampled_from(sorted(PERTURBATIONS)), st.integers(0, 999)), min_size=1,
                           max_size=3))
def test_parse_agrees_with_the_line_reader_on_perturbed_texts(g, edits):
    text = format_graph(g)
    for name, i in edits:
        text = PERTURBATIONS[name](text, g.n, i)
    assert _outcome(parse_graph, text) == _outcome(_reference_parse, text)


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
@pytest.mark.parametrize("kind", [Digraph, UndirectedGraph])
@pytest.mark.parametrize("n", [40, 1500])  # one chunk of edge lines, and several
def test_parse_agrees_with_the_line_reader_on_each_perturbation(name, kind, n):
    g = kind(n, [(v, (v * 7 + 3) % n) for v in range(n)] + [(v, v) for v in range(0, n, 9)])
    for i in range(5, 4000, 331):
        text = PERTURBATIONS[name](format_graph(g), g.n, i)
        assert _outcome(parse_graph, text) == _outcome(_reference_parse, text)


@pytest.mark.parametrize("kind", ["directed", "undirected"])
def test_a_canonical_text_does_not_reach_the_line_reader(monkeypatch, kind):
    text = _text_with_ids_above_256(kind)  # two chunks of edge lines
    expected = _outcome(_reference_parse, text)
    monkeypatch.setattr(graph_module, "_parse_lines", None)
    assert _outcome(parse_graph, text) == expected


def _text_with_ids_above_256(kind, n=600):
    edges = [(v, (v * k + 301) % n) for k in (1, 5, 7) for v in range(n)]
    return "%d %d %s\n" % (n, len(edges), kind) + "".join("%d %d\n" % e for e in edges)


@pytest.mark.parametrize("kind", ["directed", "undirected"])
def test_parsed_graph_holds_one_int_object_per_vertex(kind):
    # each end is interned: at most n distinct int objects across the end
    # lists, where int() alone makes one per end above 256
    g = parse_graph(_text_with_ids_above_256(kind))
    ends = g.tails + g.heads if kind == "directed" else g.us + g.vs
    assert len(set(map(id, ends))) <= g.n == 600


def test_graphs_share_each_edge_id_object():
    # every graph takes its edge ids from one table, so equal ids are one object
    d = parse_graph(_text_with_ids_above_256("directed"))
    u = parse_graph(_text_with_ids_above_256("undirected", n=700))
    seen = {}
    ids = [e for rows in (d.out_adj, d.in_adj, u.inc) for row in rows for e in row]
    assert all(seen.setdefault(e, e) is e for e in ids) and len(seen) == 2100
