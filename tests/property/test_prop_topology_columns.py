"""A static topology's two integer columns against the set-built graph.

A static topology holds its receivers as ``indptr`` / ``src`` columns
(``array('q')``, CSR by receiver) and derives the per-pid tuples from
them.  ``oracle`` below is the construction the columns replaced: one
adjacency set per process, seeded with the process itself, filled from
an undirected edge list, each sorted into a tuple, with the diameter
read off a BFS from every source.  Every value a consumer can see —
``round_edges``, ``receivers``, ``diameter()`` and the columns of
``receiver_columns`` — must equal it.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.topology import (
    ExplicitTopology,
    GridTopology,
    RandomTopology,
    RingTopology,
    TreeTopology,
    receiver_columns,
    round_edges,
)
from repro.util.rng import make_rng


def oracle(n, undirected_edges):
    """``(receiver tuples, diameter)`` of the set-built graph."""
    adjacency = [{pid} for pid in range(n)]
    for u, v in undirected_edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    rows = tuple(tuple(sorted(adjacency[pid])) for pid in range(n))
    worst = 0
    for source in range(n):
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for v in rows[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        if len(dist) < n:
            return rows, None  # disconnected
        worst = max(worst, max(dist.values()))
    return rows, worst


def ring_edges(n):
    return [(pid, (pid + 1) % n) for pid in range(n)]


def grid_edges(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            pid = r * cols + c
            if c + 1 < cols:
                edges.append((pid, pid + 1))
            if r + 1 < rows:
                edges.append((pid, pid + cols))
    return edges


def tree_edges(n, arity):
    return [((pid - 1) // arity, pid) for pid in range(1, n)]


def random_edges(n, p, seed):
    """The seeded G(n, p) + spanning-tree edge set, drawn as it always was."""
    edges = set()
    rng = make_rng(seed, f"gnp:{n}:{p!r}")
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        attach = order[rng.randrange(i)]
        edges.add((min(order[i], attach), max(order[i], attach)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return sorted(edges)


@st.composite
def topologies(draw):
    """``(topology, the oracle's edge list)`` over every static family."""
    family = draw(st.sampled_from(["ring", "grid", "tree", "random", "explicit"]))
    if family == "ring":
        n = draw(st.integers(2, 40))
        return RingTopology(n), ring_edges(n)
    if family == "grid":
        rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        return GridTopology(rows, cols), grid_edges(rows, cols)
    if family == "tree":
        n, arity = draw(st.integers(1, 30)), draw(st.integers(1, 4))
        return TreeTopology(n, arity), tree_edges(n, arity)
    if family == "random":
        n, seed = draw(st.integers(1, 24)), draw(st.integers(0, 50))
        p = draw(st.sampled_from([0.0, 0.1, 0.3, 1.0]))
        return RandomTopology(n, p=p, seed=seed), random_edges(n, p, seed)
    n = draw(st.integers(1, 12))
    pid = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(pid, pid), max_size=30))
    if edges and draw(st.booleans()):
        edges += edges[: draw(st.integers(1, len(edges)))]  # duplicates
    return ExplicitTopology(n, edges), edges


def _same_as_oracle(topology, edges):
    rows, diameter = oracle(topology.n, edges)
    assert round_edges(topology, 1) == rows
    assert round_edges(topology, 5) is round_edges(topology, 1)  # held, not rebuilt
    assert tuple(tuple(topology.receivers(pid)) for pid in range(topology.n)) == rows
    indptr, src = receiver_columns(topology, 1)
    assert (indptr, src) == (topology.indptr, topology.src)
    assert indptr.typecode == src.typecode == "q"
    assert list(indptr) == [0, *(sum(map(len, rows[: p + 1])) for p in range(topology.n))]
    assert src == array("q", [q for row in rows for q in row])
    if diameter is None:
        with pytest.raises(ValueError, match="disconnected"):
            topology.diameter()
    else:
        assert topology.diameter() == diameter


@settings(max_examples=300, deadline=None)
@given(topologies())
def test_columns_equal_the_set_built_graph(drawn):
    _same_as_oracle(*drawn)


@pytest.mark.parametrize(
    "topology, edges",
    [
        (RingTopology(2), ring_edges(2)),
        (RingTopology(3), ring_edges(3)),
        (GridTopology(1, 1), []),
        (GridTopology(1, 7), grid_edges(1, 7)),
        (GridTopology(7, 1), grid_edges(7, 1)),
        (GridTopology(2, 2), grid_edges(2, 2)),
        (TreeTopology(6, arity=1), tree_edges(6, 1)),
        (ExplicitTopology(4, [(0, 0), (2, 1), (1, 2), (1, 2), (3, 3)]), [(1, 2)]),
    ],
    ids=repr,
)
def test_the_degenerate_shapes(topology, edges):
    _same_as_oracle(topology, edges)


def test_larger_lattices():
    _same_as_oracle(RingTopology(301), ring_edges(301))
    _same_as_oracle(GridTopology(17, 19), grid_edges(17, 19))
