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


def complete_graph(n):
    return DiGraph(n, frozenset((j, i) for j in range(n) for i in range(n) if j != i))


def directed_cycle(n):
    return DiGraph(n, frozenset((j, (j + 1) % n) for j in range(n)))


def test_digraph_rejects_self_edges():
    with pytest.raises(ValueError, match=r"edge \(1,1\)"):
        DiGraph(3, frozenset({(1, 1)}))


def test_digraph_rejects_out_of_range_endpoints():
    with pytest.raises(ValueError, match=r"edge \(0,3\)"):
        DiGraph(3, frozenset({(0, 3)}))
    with pytest.raises(ValueError, match=r"edge \(2,-1\)"):
        DiGraph(3, complete_graph(3).edges | {(2, -1)})


@pytest.mark.parametrize("edges", [{(0, 1.5)}, {(0, "1")}, {(0, 1, 2), (1, 2, 0)}, {(0,), (1,)}])
def test_digraph_rejects_edges_that_are_not_integer_pairs(edges):
    with pytest.raises(ValueError, match="pairs of integer agent indices"):
        DiGraph(3, frozenset(edges))


def test_erdos_renyi_p1_is_complete():
    g = erdos_renyi_symmetric(3, 1.0, seed=0)
    assert len(g.edges) == 6
    assert g.edges == complete_graph(3).edges


def test_erdos_renyi_p0_is_empty():
    g = erdos_renyi_symmetric(5, 0.0, seed=123)
    assert g.edges == frozenset()


def test_erdos_renyi_deterministic_per_seed():
    a = erdos_renyi_symmetric(10, 0.5, seed=42)
    b = erdos_renyi_symmetric(10, 0.5, seed=42)
    assert a.edges == b.edges
    c = erdos_renyi_symmetric(10, 0.5, seed=43)
    assert c.edges != a.edges  # overwhelmingly likely; fixed seeds make it stable


def test_erdos_renyi_output_is_symmetric():
    g = erdos_renyi_symmetric(12, 0.4, seed=7)
    assert g.is_symmetric()
    for j, i in g.edges:
        assert (i, j) in g.edges


def test_strongly_connected_complete_and_cycle():
    assert is_strongly_connected(complete_graph(3))
    assert is_strongly_connected(directed_cycle(4))


def test_strongly_connected_false_without_edges():
    assert not is_strongly_connected(DiGraph(2, frozenset()))


def test_strongly_connected_one_way_chain_false():
    g = DiGraph(3, frozenset({(0, 1), (1, 2)}))
    assert not is_strongly_connected(g)


def test_algebraic_connectivity_complete_matches_closed_form():
    # lambda_2 of the complete graph on n nodes equals n
    for n in (3, 5, 8):
        assert algebraic_connectivity(complete_graph(n)) == pytest.approx(n, abs=1e-6)


def test_algebraic_connectivity_path3():
    # Laplacian [[1,-1,0],[-1,2,-1],[0,-1,1]] has eigenvalues {0, 1, 3}
    g = DiGraph(3, frozenset({(0, 1), (1, 0), (1, 2), (2, 1)}))
    assert algebraic_connectivity(g) == pytest.approx(1.0, abs=1e-6)


def test_algebraic_connectivity_disconnected_is_zero():
    g = DiGraph(4, frozenset({(0, 1), (1, 0)}))
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
