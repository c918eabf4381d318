import pytest

from expander_routing.graph import Digraph, UndirectedGraph


@pytest.fixture
def triangle():
    return Digraph(3, [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def k4():
    return UndirectedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.fixture
def c8():
    return UndirectedGraph(8, [(i, (i + 1) % 8) for i in range(8)])


def _probe_bfs(engine, side, root):
    """Grow one tree as a find does, inside an undo log that then takes it
    back; returns the tree's vertex set and edges."""
    oracle = engine.out_oracle if side == "out" else engine.in_oracle
    with oracle.request_log():
        edges, parent = engine._oracle_bfs(oracle, root)
        oracle.rollback()
    return {"vertices": set(parent), "edges": edges}


@pytest.fixture
def probe_bfs():
    return _probe_bfs
