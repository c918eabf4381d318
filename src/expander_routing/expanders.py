"""Random regular graphs, expansion checks and a spectral gap estimator.

The only generator is the undirected one: every directed graph the router
runs on is an Eulerian orientation of it (`preprocess.eulerian_orient`).
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, sqrt

from .errors import CallerError, GenerationError
from .graph import Digraph, UndirectedGraph

PAIRING_TRIES = 100          # pairing-model attempts before GenerationError
SUBSET_BUDGET = 500_000      # most subsets check_expansion_exhaustive enumerates


def gen_random_regular_graph(n, d, seed):
    """Simple d-regular graph by stub pairing, deterministic under seed.

    Conflicting stubs (loops, repeated pairs) are re-shuffled among
    themselves until the pairing completes; stuck attempts restart.
    """
    if (n * d) % 2 != 0:
        raise CallerError("n*d must be even")
    if not 0 <= d < n:
        raise CallerError("need 0 <= d < n")
    rng = random.Random(seed)
    for _ in range(PAIRING_TRIES):
        edges = _pairing_attempt(n, d, rng)
        if edges is not None:
            return UndirectedGraph(n, sorted(edges))
    raise GenerationError("pairing model failed %d times for n=%d d=%d" % (PAIRING_TRIES, n, d))


def _pairing_attempt(n, d, rng):
    edges = set()
    stubs = list(range(n)) * d
    while stubs:
        conflicted = defaultdict(int)
        rng.shuffle(stubs)
        it = iter(stubs)
        for s1, s2 in zip(it, it):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                conflicted[s1] += 1
                conflicted[s2] += 1
        if conflicted and not _pairing_can_continue(edges, conflicted):
            return None
        stubs = [v for v, k in conflicted.items() for _ in range(k)]
    return edges


def _pairing_can_continue(edges, conflicted):
    for s1 in conflicted:
        for s2 in conflicted:
            if s1 == s2:
                break
            a, b = (s2, s1) if s2 < s1 else (s1, s2)
            if (a, b) not in edges:
                return True
    return False


# --- expansion checking -------------------------------------------------------


@dataclass(frozen=True)
class ExpansionReport:
    holds: bool
    witness: tuple          # violating subset, empty when holds
    witness_edges: int      # edges inside the witness
    max_subset_checked: int
    mode: str


def _edge_pairs(g):
    """Edge endpoint pairs and the degree entering the density bounds."""
    reg = g.regularity()
    if reg is None:
        raise CallerError("expansion check needs a regular graph")
    if isinstance(g, Digraph):
        return list(zip(g.tails, g.heads)), 2 * reg
    return list(zip(g.us, g.vs)), reg


def check_expansion_exhaustive(g, beta, gamma, max_subset_size):
    """Enumerate subsets and test the two edge-density bounds.

    Small sets (at most beta*n vertices) may span at most gamma*d*|S|
    edges, larger sets up to half the graph at most d*|S|/3. Directions
    are ignored for digraphs (each arc counts once, degree doubles).
    Returns the first violating subset as a witness. A max_subset_size
    below 1 or a beta <= 0 checks no small set, a gamma < 0 no bound: refused.
    """
    if max_subset_size < 1:
        raise CallerError("max_subset_size must be at least 1, got %d" % max_subset_size)
    beta = Fraction(beta)
    gamma = Fraction(gamma)
    if beta <= 0 or gamma < 0:
        raise CallerError("need beta > 0 and gamma >= 0, got beta=%s, gamma=%s" % (beta, gamma))
    pairs, deg = _edge_pairs(g)
    n = g.n
    limit = min(max_subset_size, n // 2)
    total = sum(comb(n, k) for k in range(1, limit + 1))
    if total > SUBSET_BUDGET:
        raise CallerError(
            "subset enumeration needs %d subsets, budget is %d" % (total, SUBSET_BUDGET)
        )
    for k in range(1, limit + 1):
        small = k <= beta * n
        bound = gamma * deg * k if small else Fraction(deg * k, 3)
        for subset in combinations(range(n), k):
            inside = set(subset)
            count = sum(1 for a, b in pairs if a in inside and b in inside)
            if count > bound:
                return ExpansionReport(False, subset, count, limit, "exhaustive")
    return ExpansionReport(True, (), 0, limit, "exhaustive")


# --- spectral estimation ------------------------------------------------------


def is_bipartite(g: UndirectedGraph):
    """Two-colouring by BFS; returns the colour vector or None."""
    colour = [-1] * g.n
    for start in range(g.n):
        if colour[start] != -1:
            continue
        colour[start] = 0
        q = deque([start])
        while q:
            v = q.popleft()
            for e in g.inc[v]:
                w = g.other_end(e, v)
                if w == v:
                    return None
                if colour[w] == -1:
                    colour[w] = colour[v] ^ 1
                    q.append(w)
                elif colour[w] == colour[v]:
                    return None
    return colour


@dataclass(frozen=True)
class SpectralReport:
    lambda_estimate: float
    iterations: int
    residual: float
    converged: bool
    certified_beta: float   # largest beta certified for gamma = 1/50; None if none
    certified_gamma: float  # smallest gamma certified for beta = 1/100; None if none


def estimate_second_eigenvalue(g: UndirectedGraph, max_iters=20000, tol=1e-9):
    """Second eigenvalue magnitude of the adjacency operator of a regular graph.

    Power iteration on the squared operator (squaring removes the sign
    ambiguity of paired +/- eigenvalues) with the all-ones eigenvector
    deflated; for bipartite graphs the alternating vector, carrying the
    trivial eigenvalue -d, is deflated as well. Certification uses the
    set-density consequence of the eigenvalue bound: any (beta, gamma)
    with beta*d + lambda <= 2*gamma*d is certified, reported here for the
    reference points gamma = 1/50 and beta = 1/100.
    """
    import numpy as np  # the package's only numpy user; kept off `import expander_routing`

    if max_iters < 1:
        # with no iteration the residual would stay inf, which is not JSON
        raise CallerError("spectral estimate needs max_iters >= 1, got %d" % max_iters)
    if not 0 < tol < 1:
        # tol >= 1 stops at an iterate far from the eigenvector; tol <= 0 or nan is never met
        raise CallerError("spectral estimate needs 0 < tol < 1, got %r" % tol)
    d = g.regularity()
    if d is None:
        raise CallerError("spectral estimate needs a regular graph")
    n = g.n
    if n < 3:
        raise CallerError("spectral estimate needs at least 3 vertices")
    src = np.fromiter((v for pair in zip(g.us, g.vs) for v in pair), dtype=np.int64, count=2 * g.m)
    dst = np.fromiter((v for pair in zip(g.vs, g.us) for v in pair), dtype=np.int64, count=2 * g.m)

    def matvec(x):
        return np.bincount(src, weights=x[dst], minlength=n)

    basis = [np.full(n, 1.0 / sqrt(n))]
    colour = is_bipartite(g)
    if colour is not None:
        sign = np.array([1.0 if c == 0 else -1.0 for c in colour])
        sign /= np.linalg.norm(sign)
        basis.append(sign)

    def deflate(x):
        for b in basis:
            x = x - (b @ x) * b
        return x

    rng = np.random.default_rng(0x5EED)
    x = deflate(rng.standard_normal(n))
    norm = np.linalg.norm(x)
    if norm == 0:
        raise CallerError("deflation left no residual space")
    x /= norm
    theta = 0.0
    residual = float("inf")
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        y = deflate(matvec(matvec(x)))
        theta = float(x @ y)
        residual = float(np.linalg.norm(y - theta * x))
        if residual <= tol * max(1.0, abs(theta)):
            converged = True
            break
        norm = float(np.linalg.norm(y))
        if norm == 0:
            theta = 0.0
            residual = 0.0
            converged = True
            break
        x = y / norm
    lam = sqrt(max(theta, 0.0))
    certified_beta = None
    certified_gamma = None
    if converged:
        cb = 2.0 / 50.0 - lam / d
        if cb > 0:
            certified_beta = cb
        cg = 1.0 / 200.0 + lam / (2.0 * d)
        if cg < 1.0:
            certified_gamma = cg
    return SpectralReport(
        lambda_estimate=lam,
        iterations=iterations,
        residual=residual,
        converged=converged,
        certified_beta=certified_beta,
        certified_gamma=certified_gamma,
    )
