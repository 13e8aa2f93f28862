"""Unit tests of the sparsity-aware hybrid transport: the pure selector,
the ``transport.select`` metric, and the p2p → broadcast demotion rung."""

from collections import Counter

import numpy as np
import pytest

from repro.errors import GridError
from repro.machine import SUMMIT_LIKE
from repro.mpi import ProcessGrid, VirtualComm
from repro.nets import rmat_network
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    InjectedCommFailure,
)
from repro.summa import (
    DistributedCSC,
    Grid3DModel,
    SummaConfig,
    plan_transport,
    summa_multiply,
)
from repro.trace import Tracer, activate

from helpers import assert_same_csc


# ---------------------------------------------------------------------------
# The pure selector
# ---------------------------------------------------------------------------


class TestPlanTransport:
    def test_p2p_strictly_cheaper_wins(self):
        # A fat slab whose receivers each need a sliver: three tailored
        # messages beat pushing a megabyte down the tree.
        d = plan_transport(SUMMIT_LIKE, 1_000_000, [100, 100, 100], 4)
        assert d.choice == "p2p"
        assert d.p2p_seconds < d.bcast_seconds
        assert d.p2p_bytes == 300
        assert d.bcast_bytes == 1_000_000
        assert d.saved_seconds == pytest.approx(
            d.bcast_seconds - d.p2p_seconds
        )

    def test_broadcast_strictly_cheaper_wins(self):
        # A thin slab every receiver needs in full (and then some): the
        # tree amortizes what per-receiver unicasts repeat.
        d = plan_transport(SUMMIT_LIKE, 1_000, [1_000_000] * 3, 4)
        assert d.choice == "broadcast"
        assert d.bcast_seconds < d.p2p_seconds

    def test_mode_forces_the_choice(self):
        # Forced modes keep the prices but ignore them.
        cheap_p2p = (1_000_000, [100, 100], 4)
        assert plan_transport(SUMMIT_LIKE, *cheap_p2p, mode="broadcast").choice == "broadcast"
        cheap_bcast = (1_000, [1_000_000] * 3, 4)
        assert plan_transport(SUMMIT_LIKE, *cheap_bcast, mode="p2p").choice == "p2p"

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="transport mode"):
            plan_transport(SUMMIT_LIKE, 100, [10], 4, mode="multicast")

    def test_pure_function_of_arguments(self):
        a = plan_transport(SUMMIT_LIKE, 4096, [512, 64, 2048], 4)
        b = plan_transport(SUMMIT_LIKE, 4096, [512, 64, 2048], 4)
        assert a == b


# ---------------------------------------------------------------------------
# Selection counting and the transport.select metric
# ---------------------------------------------------------------------------


def _distributed(q=4, scale=4, seed=7):
    mat = rmat_network(scale, 4, seed=seed).matrix
    grid = ProcessGrid(q)
    return mat, DistributedCSC.from_global(mat, grid), grid


class TestSelectionMetric:
    def test_hybrid_emits_one_metric_per_decision(self):
        mat, dist, grid = _distributed()
        model = Grid3DModel(4, 4, "hybrid")
        comm = VirtualComm(grid.size, SUMMIT_LIKE)
        tr = Tracer()
        with activate(tr):
            res = summa_multiply(dist, dist, comm, SummaConfig(), model=model)
        metrics = [m for m in tr.metrics if m.name == "transport.select"]
        # One decision per (stage, B column-group): q stages x q3 groups.
        assert len(metrics) == 4 * model.q3
        assert len(metrics) == sum(res.transport_selections.values())
        for m in metrics:
            assert m.attrs["choice"] in ("broadcast", "p2p")
            assert m.attrs["demoted"] is False
            assert m.attrs["p2p_seconds"] >= 0
            assert m.attrs["bcast_seconds"] >= 0
            assert 0 <= m.attrs["stage"] < 4
            assert 0 <= m.attrs["group"] < model.q3
        chosen_p2p = sum(1 for m in metrics if m.attrs["choice"] == "p2p")
        assert chosen_p2p == res.transport_selections.get("p2p", 0)

    def test_broadcast_mode_skips_selector_but_still_counts(self):
        mat, dist, grid = _distributed()
        model = Grid3DModel(4, 4, "broadcast")
        comm = VirtualComm(grid.size, SUMMIT_LIKE)
        tr = Tracer()
        with activate(tr):
            res = summa_multiply(dist, dist, comm, SummaConfig(), model=model)
        assert not [m for m in tr.metrics if m.name == "transport.select"]
        assert res.transport_selections == {"broadcast": 4 * model.q3}


# ---------------------------------------------------------------------------
# The demotion rung
# ---------------------------------------------------------------------------


class _StubComm:
    """Call-recording stand-in for VirtualComm whose p2p path fails."""

    def __init__(self, spec=SUMMIT_LIKE, fail_p2p=True):
        self.spec = spec
        self.fail_p2p = fail_p2p
        self.calls = []

    def broadcast(self, ranks, nbytes, account="summa_bcast"):
        self.calls.append(("broadcast", tuple(ranks), account))

    def p2p(self, src, dst, nbytes, account="summa_p2p"):
        self.calls.append(("p2p", src, dst, account))
        if self.fail_p2p:
            raise InjectedCommFailure("injected p2p exhaustion")

    def broadcast_async(self, ranks, nbytes, account="summa_bcast", *,
                        channel, ready_at=0.0, trace_attrs=None):
        self.calls.append(("broadcast_async", tuple(ranks), channel))
        return ("bcast-handle", channel)

    def p2p_chain_async(self, ranks, payloads, account="summa_p2p", *,
                        channel, ready_at=0.0, trace_attrs=None):
        self.calls.append(("p2p_chain_async", tuple(ranks), channel))
        if self.fail_p2p:
            raise InjectedCommFailure("injected p2p exhaustion")
        return ("p2p-handle", channel)


def _stage_inputs(q=4):
    mat, dist, grid = _distributed(q)
    row_counts = [
        np.bincount(dist.block(0, j).indices, minlength=dist.block(0, j).nrows)
        for j in range(q)
    ]
    slab_bytes = [dist.block_storage_bytes(0, j) for j in range(q)]
    return dist, row_counts, slab_bytes


class TestDemotionRung:
    def test_sync_demotes_permanently_and_falls_back(self):
        dist, row_counts, slab_bytes = _stage_inputs()
        model = Grid3DModel(4, 4, "p2p")
        comm = _StubComm()
        model.post_stage(
            comm, 0, 0, model.a_counts(dist, 0), row_counts, slab_bytes
        )
        assert model.transport_demotions == 1
        assert model._effective_transport() == "broadcast"
        # Exactly one p2p attempt (first B group), then broadcast
        # fallback for it and forced broadcast for the second group.
        assert sum(1 for c in comm.calls if c[0] == "p2p") == 1
        b_groups = [c for c in comm.calls
                    if c[0] == "broadcast" and len(c[1]) == model.q3]
        assert len(b_groups) >= model.q3
        # The rung is permanent: the next stage never tries p2p again.
        before = len(comm.calls)
        model.post_stage(
            comm, 1, 0, model.a_counts(dist, 1), row_counts, slab_bytes
        )
        assert all(c[0] != "p2p" for c in comm.calls[before:])
        assert model.transport_demotions == 1
        assert model.transport_selections["broadcast"] >= model.q3

    def test_demotion_emits_trace_instant(self):
        dist, row_counts, slab_bytes = _stage_inputs()
        model = Grid3DModel(4, 4, "p2p")
        tr = Tracer()
        with activate(tr):
            model.post_stage(
                _StubComm(), 0, 0, model.a_counts(dist, 0), row_counts,
                slab_bytes,
            )
        instants = tr.find("fault.transport_demotion")
        assert len(instants) == 1
        assert instants[0].attrs == {"demotions": 1}

    def test_policy_disarm_reraises(self):
        dist, row_counts, slab_bytes = _stage_inputs()
        model = Grid3DModel(4, 4, "p2p", demote_transport=False)
        with pytest.raises(InjectedCommFailure):
            model.post_stage(
                _StubComm(), 0, 0, model.a_counts(dist, 0), row_counts,
                slab_bytes,
            )
        assert model.transport_demotions == 0
        assert model._effective_transport() == "p2p"

    def test_async_path_demotes_and_posts_broadcast(self):
        dist, row_counts, slab_bytes = _stage_inputs()
        model = Grid3DModel(4, 4, "p2p")
        comm = _StubComm()
        a_h, b_h, _, _, uniq = model.post_stage(
            comm, 0, 0, model.a_counts(dist, 0), row_counts, slab_bytes,
            gate=0.0,
        )
        assert model.transport_demotions == 1
        # Every handle resolved to a broadcast post after the demotion.
        posted = [c for c in comm.calls if c[0] == "broadcast_async"]
        assert len(posted) == model.q3 + model.q3  # A rows + B fallbacks
        assert len(uniq) == 2 * model.q3
        assert all(h is not None for h in a_h)
        assert all(h is not None for h in b_h)

    @pytest.mark.parametrize("gate", [None, 0.0])
    def test_demoted_model_posts_like_broadcast_model(self, gate):
        # A resumed run rebuilds its model on the broadcast transport
        # instead of re-arming the rung: from the next stage on, the two
        # post the same transfers, land the same clocks and count the same.
        dist, row_counts, slab_bytes = _stage_inputs()
        demoted = Grid3DModel(4, 4, "p2p")
        demoted.post_stage(
            _StubComm(), 0, 0, demoted.a_counts(dist, 0), row_counts,
            slab_bytes,
        )
        assert demoted.transport_demotions == 1
        fresh = Grid3DModel(4, 4, "broadcast")
        runs = []
        for model in (demoted, fresh):
            comm = VirtualComm(16, SUMMIT_LIKE)
            before = Counter(model.transport_selections)
            posted = model.post_stage(
                comm, 1, 0, model.a_counts(dist, 1), row_counts,
                slab_bytes, gate=gate,
            )
            runs.append((
                posted[0], posted[1], posted[4],
                [(c.cpu.free_at, c.gpu.free_at) for c in comm.clocks],
                comm.link_busy_seconds(),
                Counter(model.transport_selections) - before,
            ))
        assert runs[0] == runs[1]
        assert runs[1][-1] == {"broadcast": fresh.q3}

    def test_injected_exhaustion_demotes_without_changing_numerics(self):
        # End to end through the real communicator: an injector that
        # reports more failures than the retry budget exactly at the
        # first p2p send trips the rung, and the product is still
        # bit-identical to the fault-free run.
        mat, dist, grid = _distributed()

        def run(injector=None, spy=None):
            comm = VirtualComm(grid.size, SUMMIT_LIKE, injector=injector)
            if spy is not None:
                orig = comm.p2p

                def p2p(src, dst, nbytes, account="summa_p2p"):
                    spy(injector)
                    return orig(src, dst, nbytes, account)

                comm.p2p = p2p
            return summa_multiply(
                dist, dist, comm, SummaConfig(),
                model=Grid3DModel(4, 4, "p2p"),
            )

        ref = run()
        assert ref.transport_selections.get("p2p", 0) > 0
        assert ref.transport_demotions == 0

        class Counting(FaultInjector):
            """Benign injector that numbers the comm-site draws."""

            def __init__(self):
                super().__init__(FaultPlan())
                self.draws = 0
                self.fail_at = None

            def collective_failures(self):
                self.draws += 1
                if self.draws == self.fail_at:
                    self.injected["comm"] += 99
                    return 99  # far beyond any retry budget
                return 0

        # Probe run: record which comm-site draw the first p2p consumes.
        probe = Counting()
        p2p_draws = []
        run(probe, spy=lambda inj: p2p_draws.append(inj.draws + 1))
        assert p2p_draws, "p2p transport never engaged"

        killer = Counting()
        killer.fail_at = p2p_draws[0]
        res = run(killer)
        assert res.transport_demotions == 1
        assert res.transport_selections.get("broadcast", 0) > 0
        for key, blk in ref.dist_c.blocks.items():
            assert_same_csc(res.dist_c.blocks[key], blk)


# ---------------------------------------------------------------------------
# Model construction guards
# ---------------------------------------------------------------------------


class TestModelValidation:
    def test_unknown_transport_rejected(self):
        with pytest.raises(GridError, match="transport"):
            Grid3DModel(4, 4, "multicast")

    def test_invalid_layer_count_rejected(self):
        with pytest.raises(GridError, match="3D shape"):
            Grid3DModel(4, 3)

    def test_auto_layers_pick_largest_square_divisor(self):
        assert Grid3DModel(2).layers == 1
        assert Grid3DModel(4).layers == 4

    def test_mismatched_grid_side_rejected_by_engine(self):
        mat, dist, _ = _distributed(q=2)
        comm = VirtualComm(4, SUMMIT_LIKE)
        with pytest.raises(ValueError, match="grid model built for q=4"):
            summa_multiply(
                dist, dist, comm, SummaConfig(), model=Grid3DModel(4, 4)
            )
