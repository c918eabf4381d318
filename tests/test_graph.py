import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edge_pairs, oriented_host
from expander_routing.errors import CallerError, FormatError
from expander_routing.graph import (
    Digraph,
    EdgeSubset,
    UndirectedGraph,
    format_graph,
    parse_graph,
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
    assert d.out_adj[0] == [0] and d.in_adj[1] == [0]
    assert (d.tails[0], d.heads[0]) == (0, 1)


def test_triangle_is_one_regular(triangle):
    assert triangle.regularity() == 1


def test_parallel_edges_get_distinct_ids():
    d = Digraph(4, [(0, 1), (0, 1)])
    assert d.m == 2
    assert d.out_adj[0] == [0, 1]


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
    # the reversal shares d's lists, equal to those a fresh build of the
    # reversed edges makes; reversing twice restores every edge
    d = oriented_host(20, 3, seed=4)
    r = reverse(d)
    assert r.out_adj is d.in_adj and r.in_adj is d.out_adj
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
    ],
)
def test_text_parse_errors_name_the_line(text, message):
    with pytest.raises(FormatError, match=message):
        parse_graph(text)


def test_text_parse_allows_trailing_blank_lines():
    assert parse_graph("3 2 directed\n0 1\n1 2\n\n  \n").m == 2
