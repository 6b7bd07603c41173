"""Unit tests for :mod:`repro.kernel.topology`.

The contract every engine depends on: ``receivers(pid, round_no)`` is
an ascending sequence that always contains ``pid`` itself (self-
delivery survives leaves and partitions), edges are undirected, and
the ``complete`` flag is the engines' licence to skip edge filtering.
"""

from __future__ import annotations

import pytest

from repro.kernel.topology import (
    ChurnEvent,
    ChurnSchedule,
    CompleteTopology,
    DynamicTopology,
    ExplicitTopology,
    GridTopology,
    RandomTopology,
    RingTopology,
    TreeTopology,
    _StaticTopology,
    normalize_topology,
    round_edges,
)


class TestCompleteTopology:
    def test_everyone_reaches_everyone(self):
        topo = CompleteTopology(4)
        assert topo.complete
        for pid in range(4):
            assert list(topo.receivers(pid, 1)) == [0, 1, 2, 3]
        assert topo.diameter() == 1

    def test_singleton_diameter_is_zero(self):
        assert CompleteTopology(1).diameter() == 0

    def test_pid_bounds_checked(self):
        with pytest.raises(Exception):
            CompleteTopology(3).receivers(3, 1)


class TestRingTopology:
    def test_neighbors_wrap(self):
        topo = RingTopology(5)
        assert tuple(topo.receivers(0, 1)) == (0, 1, 4)
        assert tuple(topo.receivers(2, 1)) == (1, 2, 3)
        assert not topo.complete

    def test_diameter_is_half_n(self):
        assert RingTopology(6).diameter() == 3
        assert RingTopology(7).diameter() == 3
        assert RingTopology(8).diameter() == 4

    @pytest.mark.parametrize("n", range(2, 41))
    def test_closed_form_diameter_equals_the_bfs(self, n):
        ring = RingTopology(n)
        assert ring.diameter() == _StaticTopology.diameter(ring)

    def test_needs_two_processes(self):
        with pytest.raises(Exception):
            RingTopology(1)


class TestTreeTopology:
    def test_heap_shape(self):
        topo = TreeTopology(7, arity=2)
        assert tuple(topo.receivers(0, 1)) == (0, 1, 2)
        assert tuple(topo.receivers(1, 1)) == (0, 1, 3, 4)
        assert tuple(topo.receivers(6, 1)) == (2, 6)

    def test_self_delivery_everywhere(self):
        topo = TreeTopology(9, arity=3)
        for pid in range(9):
            assert pid in tuple(topo.receivers(pid, 1))


class TestRandomTopology:
    def test_connected_and_deterministic(self):
        a = RandomTopology(10, p=0.2, seed=3)
        b = RandomTopology(10, p=0.2, seed=3)
        assert round_edges(a, 1) == round_edges(b, 1)
        assert a.diameter() >= 1  # raises if disconnected

    def test_different_seeds_differ(self):
        graphs = {round_edges(RandomTopology(10, p=0.2, seed=s), 1) for s in range(6)}
        assert len(graphs) > 1

    def test_p_one_is_effectively_complete(self):
        topo = RandomTopology(5, p=1.0, seed=0)
        for pid in range(5):
            assert tuple(topo.receivers(pid, 1)) == (0, 1, 2, 3, 4)


class TestExplicitTopology:
    def test_undirected_and_normalized(self):
        topo = ExplicitTopology(4, edges=[(1, 0), (1, 2), (2, 3)])
        assert tuple(topo.receivers(0, 1)) == (0, 1)
        assert tuple(topo.receivers(1, 1)) == (0, 1, 2)
        assert topo.diameter() == 3

    def test_disconnected_diameter_raises(self):
        topo = ExplicitTopology(4, edges=[(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            topo.diameter()


class TestChurnValidation:
    def test_leave_needs_pids(self):
        with pytest.raises(Exception):
            ChurnEvent(1, "leave")

    def test_unknown_kind_rejected(self):
        with pytest.raises(Exception):
            ChurnEvent(1, "explode", pids=(0,))

    def test_round_numbers_are_one_based(self):
        with pytest.raises(Exception):
            ChurnEvent(0, "leave", pids=(1,))

    def test_partition_groups_must_be_disjoint(self):
        with pytest.raises(Exception):
            ChurnEvent(
                2, "partition", groups=(frozenset({0, 1}), frozenset({1, 2}))
            )


class TestDynamicTopology:
    def test_leave_detaches_to_self_only(self):
        topo = DynamicTopology(
            CompleteTopology(4),
            ChurnSchedule((ChurnEvent(2, "leave", pids=(3,)),)),
        )
        assert tuple(topo.receivers(3, 1)) == (0, 1, 2, 3)
        assert tuple(topo.receivers(3, 2)) == (3,)
        # the others stop reaching it too (edges are undirected)
        assert tuple(topo.receivers(0, 2)) == (0, 1, 2)

    def test_join_reattaches(self):
        topo = DynamicTopology(
            RingTopology(4),
            ChurnSchedule(
                (
                    ChurnEvent(2, "leave", pids=(1,)),
                    ChurnEvent(4, "join", pids=(1,)),
                )
            ),
        )
        assert tuple(topo.receivers(1, 3)) == (1,)
        assert tuple(topo.receivers(1, 4)) == (0, 1, 2)

    def test_partition_blocks_and_heal(self):
        topo = DynamicTopology(
            CompleteTopology(4),
            ChurnSchedule(
                (
                    ChurnEvent(3, "partition", groups=(frozenset({0, 1}),)),
                    ChurnEvent(5, "heal"),
                )
            ),
        )
        # listed block
        assert tuple(topo.receivers(0, 3)) == (0, 1)
        # unlisted pids form the implicit residual group
        assert tuple(topo.receivers(2, 3)) == (2, 3)
        assert tuple(topo.receivers(0, 5)) == (0, 1, 2, 3)

    def test_no_churn_rounds_delegate_to_base(self):
        base = RingTopology(5)
        topo = DynamicTopology(
            base, ChurnSchedule((ChurnEvent(9, "leave", pids=(0,)),))
        )
        for pid in range(5):
            assert tuple(topo.receivers(pid, 4)) == tuple(base.receivers(pid, 4))

    def test_round_edges_snapshot(self):
        topo = DynamicTopology(
            CompleteTopology(3),
            ChurnSchedule((ChurnEvent(2, "leave", pids=(2,)),)),
        )
        assert round_edges(topo, 1) == ((0, 1, 2), (0, 1, 2), (0, 1, 2))
        assert round_edges(topo, 2) == ((0, 1), (0, 1), (2,))


class TestRoundEdges:
    def test_round_edges_of_a_static_graph_are_its_held_tuples(self):
        for topo in (RingTopology(6), GridTopology(2, 3), TreeTopology(7)):
            walked = tuple(tuple(topo.receivers(pid, 3)) for pid in range(topo.n))
            assert round_edges(topo, 3) == walked
            assert round_edges(topo, 3) is round_edges(topo, 1)  # no rebuild

        class Rewired(RingTopology):
            """Overrides the walk, so the held tuples no longer speak for it."""

            def receivers(self, pid, round_no=1):
                return (pid,)

        assert round_edges(Rewired(4), 1) == ((0,), (1,), (2,), (3,))


class TestNormalizeTopology:
    """The one rule every substrate applies before its first round."""

    def test_plain_complete_graph_is_erased(self):
        assert normalize_topology(4, None) is None
        assert normalize_topology(4, CompleteTopology(4)) is None

    def test_sparse_topology_passes_through(self):
        ring = RingTopology(4)
        assert normalize_topology(4, ring) is ring

    def test_churn_wraps_whatever_base_was_given(self):
        churn = ChurnSchedule((ChurnEvent(2, "leave", pids=(1,)),))
        wrapped = normalize_topology(4, None, churn)
        assert isinstance(wrapped, DynamicTopology) and wrapped.base.complete
        ring = RingTopology(4)
        assert normalize_topology(4, ring, churn).base is ring
        # an empty schedule is no churn at all
        assert normalize_topology(4, None, ChurnSchedule()) is None

    def test_sized_topology_must_match_the_run(self):
        with pytest.raises(ValueError, match="topology is sized for n=5, run has n=4"):
            normalize_topology(4, RingTopology(5))
