import math

import numpy as np
import pytest

import blocksca.graph
from blocksca.errors import NonSymmetricGraph
from blocksca.graph import (
    DiGraph,
    algebraic_connectivity,
    erdos_renyi_symmetric,
    is_strongly_connected,
)


def graph_of(n, edges):
    """The n-agent graph with the given (sender, receiver) edges."""
    adjacency = np.zeros((n, n), dtype=bool)
    for j, i in edges:
        adjacency[j, i] = True
    return DiGraph(adjacency)


def edge_set(g):
    """The (sender, receiver) pairs of a graph, read from its adjacency."""
    return frozenset(zip(*(axis.tolist() for axis in np.nonzero(g.adjacency))))


def complete_graph(n):
    return DiGraph(~np.eye(n, dtype=bool))


def directed_cycle(n):
    return DiGraph(np.roll(np.eye(n, dtype=bool), 1, axis=1))


def test_digraph_rejects_self_edges():
    adjacency = ~np.eye(3, dtype=bool)
    adjacency[1, 1] = True
    with pytest.raises(ValueError, match="agent 1 has a self-edge"):
        DiGraph(adjacency)


@pytest.mark.parametrize("shape", [(0, 0), (3,), (2, 3), (2, 2, 2)],
                         ids=["empty", "vector", "non-square", "three-axes"])
def test_digraph_rejects_a_non_square_or_empty_adjacency(shape):
    with pytest.raises(ValueError, match="non-empty square boolean array"):
        DiGraph(np.zeros(shape, dtype=bool))


@pytest.mark.parametrize("adjacency", [[[0, 1], [1, 0]], [[0.0, 1.0], [1.0, 0.0]],
                                       [["", "1"], ["1", ""]]], ids=["int", "float", "str"])
def test_digraph_rejects_a_non_boolean_adjacency(adjacency):
    with pytest.raises(ValueError, match="non-empty square boolean array"):
        DiGraph(np.array(adjacency))


def test_digraph_keeps_its_own_read_only_copy():
    adjacency = np.roll(np.eye(3, dtype=bool), 1, axis=1)
    g = DiGraph(adjacency)
    adjacency[0, 2] = True
    assert edge_set(g) == {(0, 1), (1, 2), (2, 0)}
    assert g.n_agents == 3
    assert not g.adjacency.flags.writeable and not g.broadcast_weights.flags.writeable


def test_erdos_renyi_p1_is_complete():
    g = erdos_renyi_symmetric(3, 1.0, seed=0)
    assert len(edge_set(g)) == 6
    assert edge_set(g) == edge_set(complete_graph(3))


def test_erdos_renyi_p0_is_empty():
    g = erdos_renyi_symmetric(5, 0.0, seed=123)
    assert edge_set(g) == frozenset()


def test_erdos_renyi_deterministic_per_seed():
    a = erdos_renyi_symmetric(10, 0.5, seed=42)
    b = erdos_renyi_symmetric(10, 0.5, seed=42)
    assert edge_set(a) == edge_set(b)
    c = erdos_renyi_symmetric(10, 0.5, seed=43)
    assert edge_set(c) != edge_set(a)  # overwhelmingly likely; fixed seeds make it stable


def test_erdos_renyi_output_is_symmetric():
    g = erdos_renyi_symmetric(12, 0.4, seed=7)
    assert g.is_symmetric()
    edges = edge_set(g)
    for j, i in edges:
        assert (i, j) in edges


def test_strongly_connected_complete_and_cycle():
    assert is_strongly_connected(complete_graph(3))
    assert is_strongly_connected(directed_cycle(4))


def test_strongly_connected_false_without_edges():
    assert not is_strongly_connected(DiGraph(np.zeros((2, 2), dtype=bool)))


def test_strongly_connected_one_way_chain_false():
    g = graph_of(3, {(0, 1), (1, 2)})
    assert not is_strongly_connected(g)


def test_algebraic_connectivity_complete_matches_closed_form():
    # lambda_2 of the complete graph on n nodes equals n
    for n in (3, 5, 8):
        assert algebraic_connectivity(complete_graph(n)) == pytest.approx(n, abs=1e-6)


def test_algebraic_connectivity_path3():
    # Laplacian [[1,-1,0],[-1,2,-1],[0,-1,1]] has eigenvalues {0, 1, 3}
    g = graph_of(3, {(0, 1), (1, 0), (1, 2), (2, 1)})
    assert algebraic_connectivity(g) == pytest.approx(1.0, abs=1e-6)


def test_algebraic_connectivity_disconnected_is_zero():
    g = graph_of(4, {(0, 1), (1, 0)})
    assert algebraic_connectivity(g) == pytest.approx(0.0, abs=1e-6)


def test_algebraic_connectivity_rejects_asymmetric():
    with pytest.raises(NonSymmetricGraph):
        algebraic_connectivity(directed_cycle(3))


def test_algebraic_connectivity_respects_dense_limit(monkeypatch):
    monkeypatch.setattr(blocksca.graph, "DENSE_LIMIT", 4)
    assert math.isnan(algebraic_connectivity(complete_graph(6)))
    assert algebraic_connectivity(complete_graph(4)) == pytest.approx(4, abs=1e-6)


def test_algebraic_connectivity_sign_matches_connectivity():
    # nonnegative always, strictly positive exactly when connected
    rng = np.random.default_rng(0)
    for seed in rng.integers(0, 10_000, size=12):
        g = erdos_renyi_symmetric(8, 0.3, int(seed))
        lam2 = algebraic_connectivity(g)
        assert lam2 >= 0.0
        assert (lam2 > 1e-9) == is_strongly_connected(g)
