from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from conftest import edge_pairs, oriented_host
from expander_routing.errors import CallerError
from expander_routing.expanders import (
    check_expansion_exhaustive,
    estimate_second_eigenvalue,
    gen_random_regular_graph,
    is_bipartite,
)
from expander_routing.graph import UndirectedGraph


def dense_lambda_oracle(g):
    """Reference value from a full eigendecomposition.

    Drops one copy of the degree eigenvalue (and of its negative, for
    bipartite graphs) and returns the largest remaining magnitude.
    """
    n = g.n
    a = np.zeros((n, n))
    for u, v in edge_pairs(g):
        a[u, v] += 1.0
        a[v, u] += 1.0
    vals = sorted(np.linalg.eigvalsh(a))
    vals.pop()  # the degree eigenvalue
    colour = [-1] * n
    bipartite = True
    for start in range(n):
        if colour[start] != -1:
            continue
        colour[start] = 0
        q = deque([start])
        while q:
            x = q.popleft()
            for e in g.inc[x]:
                y = g.other_end(e, x)
                if colour[y] == -1:
                    colour[y] = colour[x] ^ 1
                    q.append(y)
                elif colour[y] == colour[x]:
                    bipartite = False
    if bipartite and vals:
        vals.pop(0)  # its mirror image
    return max((abs(v) for v in vals), default=0.0)


# --- generators -----------------------------------------------------------


def test_gen_graph_k4_is_unique():
    g = gen_random_regular_graph(4, 3, seed=42)
    assert sorted(tuple(sorted(e)) for e in edge_pairs(g)) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
    ]


def test_gen_graph_degrees():
    g = gen_random_regular_graph(100, 10, seed=1)
    assert g.regularity() == 10
    pairs = {tuple(sorted(e)) for e in edge_pairs(g)}
    assert len(pairs) == g.m  # simple: no parallels
    assert all(a != b for a, b in edge_pairs(g))


def test_gen_graph_deterministic():
    a = gen_random_regular_graph(60, 7, seed=9)
    b = gen_random_regular_graph(60, 7, seed=9)
    assert edge_pairs(a) == edge_pairs(b)


def test_gen_graph_parity_check():
    with pytest.raises(CallerError):
        gen_random_regular_graph(5, 3, seed=0)


# --- expansion checks --------------------------------------------------------


def test_expansion_k4_holds(k4):
    rep = check_expansion_exhaustive(k4, Fraction(1, 2), 1, 2)
    assert rep.holds
    assert rep.mode == "exhaustive"


def test_expansion_two_triangles_witness():
    g = UndirectedGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    rep = check_expansion_exhaustive(g, Fraction(1, 2), Fraction(3, 10), 3)
    assert not rep.holds
    assert set(rep.witness) in ({0, 1, 2}, {3, 4, 5})
    assert rep.witness_edges == 3


def test_expansion_vacuous_at_size_zero(k4):
    # a check of no subset would pass vacuously; it is refused instead, here
    # on a graph where size 3 finds a witness
    g = gen_random_regular_graph(12, 3, seed=0)
    assert not check_expansion_exhaustive(g, Fraction(1, 2), Fraction(1, 10), 3).holds
    for graph, size in ((k4, 0), (g, 0), (g, -1)):
        with pytest.raises(CallerError, match="max_subset_size must be at least 1"):
            check_expansion_exhaustive(graph, Fraction(1, 2), Fraction(1, 10), size)


@pytest.mark.parametrize("beta, gamma", [(-1, Fraction(1, 10)), (0, 0), (Fraction(1, 2), -1)])
def test_expansion_refuses_nonpositive_beta_and_negative_gamma(beta, gamma):
    # beta <= 0 leaves no small set to test, and with gamma < 0 vertex 0
    # alone, with no edge inside, was reported as a witness
    g = gen_random_regular_graph(12, 3, seed=0)
    with pytest.raises(CallerError, match="got beta=%s, gamma=%s$" % (beta, gamma)):
        check_expansion_exhaustive(g, beta, gamma, 3)


def test_expansion_budget_guard():
    g = gen_random_regular_graph(40, 4, seed=4)
    with pytest.raises(CallerError):
        check_expansion_exhaustive(g, Fraction(1, 2), Fraction(1, 10), 20)


def test_expansion_witness_revalidates():
    for seed in range(6):
        g = gen_random_regular_graph(12, 3, seed=seed)
        rep = check_expansion_exhaustive(g, Fraction(1, 2), Fraction(1, 10), 4)
        if rep.holds:
            continue
        s = set(rep.witness)
        count = sum(1 for a, b in edge_pairs(g) if a in s and b in s)
        assert count == rep.witness_edges
        d = g.regularity()
        if len(s) <= Fraction(1, 2) * 12:
            bound = Fraction(1, 10) * d * len(s)
        else:
            bound = Fraction(d * len(s), 3)
        assert count > bound


def test_expansion_digraph_counts_arcs():
    d = oriented_host(10, 2, seed=5)
    rep = check_expansion_exhaustive(d, Fraction(1, 2), Fraction(1, 100), 2)
    if not rep.holds:
        s = set(rep.witness)
        assert sum(1 for t, h in edge_pairs(d) if t in s and h in s) == rep.witness_edges


# --- spectral estimation ------------------------------------------------------


def test_lambda_k5_exact():
    k5 = UndirectedGraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    rep = estimate_second_eigenvalue(k5, tol=1e-9)
    assert rep.converged
    assert abs(rep.lambda_estimate - 1.0) < 1e-6


def test_lambda_c8_matches_dense_oracle(c8):
    rep = estimate_second_eigenvalue(c8, tol=1e-9)
    oracle = dense_lambda_oracle(c8)
    assert rep.converged
    assert abs(rep.lambda_estimate - oracle) < 1e-6
    assert abs(rep.lambda_estimate - 2 ** 0.5) < 1e-6


@pytest.mark.parametrize("max_iters", [0, -3])
def test_lambda_needs_an_iteration(k4, max_iters):
    # with no iteration the report's residual would stay inf, which is not JSON
    with pytest.raises(CallerError, match="max_iters >= 1, got %d" % max_iters):
        estimate_second_eigenvalue(k4, max_iters=max_iters)


@pytest.mark.parametrize("tol", [float("inf"), 1.0, 0.0, -1.0, float("nan")])
def test_lambda_needs_a_tolerance_in_the_open_unit_interval(k4, tol):
    # tol >= 1 reported convergence after one iteration far from lambda
    # and certified from it; tol <= 0 or nan ran every iteration unmet
    with pytest.raises(CallerError, match="0 < tol < 1"):
        estimate_second_eigenvalue(k4, tol=tol)


def test_lambda_bipartite_deflation():
    k33 = UndirectedGraph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    assert is_bipartite(k33) is not None
    rep = estimate_second_eigenvalue(k33, tol=1e-9)
    assert rep.lambda_estimate < 1e-6


def test_lambda_random_graphs_match_oracle():
    tol = 1e-8
    for n, d, seed in ((40, 4, 0), (60, 6, 1), (80, 8, 2), (100, 5, 3)):
        g = gen_random_regular_graph(n, d, seed=seed)
        rep = estimate_second_eigenvalue(g, tol=tol)
        assert rep.converged, (n, d, seed)
        assert abs(rep.lambda_estimate - dense_lambda_oracle(g)) <= 10 * tol


@pytest.mark.parametrize("n, d", [(3000, 10), (4000, 30)])
def test_lambda_matches_scipy_eigsh(n, d):
    # sizes where the dense oracle's n x n eigendecomposition is too slow
    from scipy.sparse import coo_matrix
    from scipy.sparse.linalg import eigsh

    g = gen_random_regular_graph(n, d, seed=5)
    assert is_bipartite(g) is None  # so only the degree eigenvalue is trivial
    rep = estimate_second_eigenvalue(g)
    assert rep.converged
    a = coo_matrix((np.ones(2 * g.m), (g.us + g.vs, g.vs + g.us)), shape=(n, n)).tocsr()
    top = sorted(eigsh(a, k=3, which="LM", return_eigenvectors=False), key=abs)
    assert abs(top[-1] - d) <= 1e-8
    assert abs(rep.lambda_estimate - abs(top[-2])) <= 1e-7 * d


def test_lambda_certification_bounds():
    g = gen_random_regular_graph(100, 12, seed=11)
    rep = estimate_second_eigenvalue(g)
    lam = rep.lambda_estimate
    d = 12
    if rep.certified_beta is not None:
        assert rep.certified_beta * d + lam <= 2 * (1 / 50) * d + 1e-9
    if rep.certified_gamma is not None:
        assert (1 / 100) * d + lam <= 2 * rep.certified_gamma * d + 1e-9


def test_lambda_needs_regular_graph():
    g = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(CallerError):
        estimate_second_eigenvalue(g)
