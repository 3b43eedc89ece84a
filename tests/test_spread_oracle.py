"""Unit tests for the batched cascade kernels and the spread-oracle layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import registry
from repro.diffusion import batched as batched_mod
from repro.diffusion import oracle as oracle_mod
from repro.diffusion._frontier import expand_slices, gather_csr, gather_edges
from repro.diffusion.batched import (
    batched_cascades,
    simulate_ic_batch,
    simulate_lt_batch,
)
from repro.diffusion.independent_cascade import simulate_ic
from repro.diffusion.linear_threshold import simulate_lt
from repro.diffusion.models import IC, Dynamics, WC
from repro.diffusion.oracle import (
    BatchedMCOracle,
    GainCache,
    SequentialMCOracle,
    SketchOracle,
    SnapshotOracle,
    make_oracle,
)
from repro.diffusion.simulation import DEFAULT_MC_BATCH, monte_carlo_spread
from repro.graph.digraph import DiGraph
from repro.graph.generators import build, powerlaw_configuration


@pytest.fixture
def sure_line():
    """0 -> 1 -> 2 -> 3 with weight 1.0: every cascade activates everything."""
    return DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)], weights=[1.0, 1.0, 1.0])


@pytest.fixture
def dead_line():
    """0 -> 1 -> 2 with weight 0.0: no cascade ever leaves the seeds."""
    return DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[0.0, 0.0])


@pytest.fixture(scope="module")
def small_powerlaw():
    rng = np.random.default_rng(404)
    return WC.weighted(build(powerlaw_configuration(80, 2.3, 4.0, rng)), rng)


class TestFrontierHelpers:
    def test_empty_frontier_fast_path(self, sure_line):
        assert expand_slices(sure_line.out_ptr, np.empty(0, dtype=np.int64)).size == 0
        assert gather_edges(sure_line.out_ptr, []).size == 0

    def test_expand_slices_matches_manual(self, small_powerlaw):
        graph = small_powerlaw
        nodes = np.array([0, 3, 17, 40], dtype=np.int64)
        manual = np.concatenate(
            [
                np.arange(graph.out_ptr[v], graph.out_ptr[v + 1], dtype=np.int64)
                for v in nodes
            ]
        )
        np.testing.assert_array_equal(expand_slices(graph.out_ptr, nodes), manual)

    def test_gather_csr_matches_fancy_index(self, small_powerlaw):
        graph = small_powerlaw
        nodes = np.array([1, 2, 5], dtype=np.int64)
        idx = expand_slices(graph.out_ptr, nodes)
        np.testing.assert_array_equal(
            gather_csr(graph.out_ptr, graph.out_dst, nodes), graph.out_dst[idx]
        )


class TestBatchedKernels:
    def test_ic_sure_edges_activate_everything(self, sure_line, rng):
        active = simulate_ic_batch(sure_line, [0], rng, batch=5)
        assert active.shape == (5, 4)
        assert active.all()

    def test_ic_dead_edges_stay_at_seeds(self, dead_line, rng):
        active = simulate_ic_batch(dead_line, [0], rng, batch=4)
        np.testing.assert_array_equal(active.sum(axis=1), np.ones(4))
        assert active[:, 0].all()

    def test_lt_sure_edges_activate_everything(self, sure_line, rng):
        # In-weight 1.0 >= theta for any theta drawn from [0, 1).
        active = simulate_lt_batch(sure_line, [0], rng, batch=5)
        assert active.all()

    def test_empty_seed_set(self, sure_line, rng):
        for fn in (simulate_ic_batch, simulate_lt_batch):
            assert not fn(sure_line, [], rng, batch=3).any()

    def test_batch_must_be_positive(self, sure_line, rng):
        with pytest.raises(ValueError):
            simulate_ic_batch(sure_line, [0], rng, batch=0)
        with pytest.raises(ValueError):
            batched_cascades(sure_line, [0], Dynamics.LT, rng, 0)

    def test_lt_threshold_shape_validated(self, sure_line, rng):
        with pytest.raises(ValueError):
            simulate_lt_batch(sure_line, [0], rng, batch=2, thresholds=np.zeros(4))

    def test_mc_batch_composes_with_ragged_r(self, small_powerlaw):
        # r not a multiple of batch still yields exactly r samples.
        est, samples = monte_carlo_spread(
            small_powerlaw, [0, 3], Dynamics.IC, r=23,
            rng=np.random.default_rng(8), batch=10, return_samples=True,
        )
        assert samples.shape == (23,)
        assert est.simulations == 23

    def test_mc_batch_must_be_positive(self, small_powerlaw):
        with pytest.raises(ValueError):
            monte_carlo_spread(
                small_powerlaw, [0], Dynamics.IC, r=5,
                rng=np.random.default_rng(1), batch=0,
            )

    def test_single_sample_std_is_finite(self, small_powerlaw):
        est = monte_carlo_spread(
            small_powerlaw, [0], Dynamics.IC, r=1, rng=np.random.default_rng(2)
        )
        assert est.std == 0.0
        assert np.isfinite(est.stderr)


@pytest.fixture(scope="module")
def pinned_graphs():
    """WC and uniform-IC weightings of one 80-node power-law topology."""
    rng = np.random.default_rng(404)
    topo = build(powerlaw_configuration(80, 2.3, 4.0, rng))
    return {
        "wc": WC.weighted(topo, rng),
        "ic": IC.weighted(topo, np.random.default_rng(5)),
    }


class TestSparseKernelExactness:
    """Stream contracts of the sparse multi-cascade kernels."""

    @pytest.mark.parametrize("label", ["wc", "ic"])
    def test_ic_batch_of_one_is_serial_ic(self, pinned_graphs, label):
        graph = pinned_graphs[label]
        batched, serial = np.random.default_rng(11), np.random.default_rng(11)
        for seeds in ([0], [3, 3, 17], list(range(0, 80, 9))):
            for __ in range(10):
                np.testing.assert_array_equal(
                    simulate_ic_batch(graph, seeds, batched, 1)[0],
                    simulate_ic(graph, seeds, serial),
                )
        assert batched.random() == serial.random()

    @pytest.mark.parametrize("batch", [1, 9])
    def test_lt_batch_is_serial_lt_cascades(self, pinned_graphs, batch):
        graph = pinned_graphs["wc"]
        batched, serial = np.random.default_rng(12), np.random.default_rng(12)
        for seeds in ([0], [5, 5, 40], list(range(0, 80, 9))):
            np.testing.assert_array_equal(
                simulate_lt_batch(graph, seeds, batched, batch),
                np.stack([simulate_lt(graph, seeds, serial) for __ in range(batch)]),
            )
        assert batched.random() == serial.random()

    def test_lt_default_scoring_matches_serial_scoring(self, pinned_graphs):
        graph, seeds = pinned_graphs["wc"], [1, 30]
        __, batched = monte_carlo_spread(
            graph, seeds, Dynamics.LT, r=150, rng=np.random.default_rng(4),
            return_samples=True,
        )
        __, serial = monte_carlo_spread(
            graph, seeds, Dynamics.LT, r=150, rng=np.random.default_rng(4),
            batch=1, return_samples=True,
        )
        np.testing.assert_array_equal(batched, serial)

    @pytest.mark.parametrize(
        "dynamics, block_coins",
        [(Dynamics.IC, False), (Dynamics.IC, True), (Dynamics.LT, False)],
    )
    def test_output_does_not_depend_on_slice_size(
        self, pinned_graphs, monkeypatch, dynamics, block_coins
    ):
        graph, seeds = pinned_graphs["wc"], [0, 7, 21, 50]
        runs = []
        for budget in (batched_mod.SLICE_TRIALS, 7, 1):
            monkeypatch.setattr(batched_mod, "SLICE_TRIALS", budget)
            rng = np.random.default_rng(13)
            mask = batched_cascades(graph, seeds, dynamics, rng, 24, block_coins)
            runs.append((mask, rng.random()))
        for mask, after in runs[1:]:
            np.testing.assert_array_equal(mask, runs[0][0])
            assert after == runs[0][1]

    def test_default_batch_is_the_batched_kernel(self, pinned_graphs):
        graph = pinned_graphs["ic"]
        default = monte_carlo_spread(graph, [2, 9], IC, r=100, rng=np.random.default_rng(6))
        explicit = monte_carlo_spread(
            graph, [2, 9], IC, r=100, rng=np.random.default_rng(6),
            batch=DEFAULT_MC_BATCH,
        )
        assert default == explicit

    # BatchedMCOracle keeps its B×E union-block coin stream: σ of three
    # seed sets at three batch sizes, captured before the kernels went
    # sparse, must not move.
    PINNED_ORACLE_SIGMA = {
        ("wc", Dynamics.IC, 1): (2.5, 1.05, 11.7),
        ("wc", Dynamics.IC, 7): (2.525, 1.05, 11.875),
        ("wc", Dynamics.IC, 64): (2.6, 1.05, 9.825),
        ("ic", Dynamics.IC, 1): (2.275, 1.05, 4.35),
        ("ic", Dynamics.IC, 7): (2.325, 1.05, 4.275),
        ("ic", Dynamics.IC, 64): (2.325, 1.05, 4.275),
        ("wc", Dynamics.LT, 1): (3.15, 1.025, 12.6),
        ("wc", Dynamics.LT, 7): (3.15, 1.025, 12.6),
        ("wc", Dynamics.LT, 64): (3.15, 1.025, 12.6),
    }

    @pytest.mark.parametrize("key", sorted(PINNED_ORACLE_SIGMA, key=str))
    def test_batched_oracle_sigma_pinned(self, pinned_graphs, key):
        label, dynamics, batch = key
        oracle = BatchedMCOracle(
            pinned_graphs[label], dynamics, 40, np.random.default_rng(3), batch=batch
        )
        got = tuple(oracle.evaluate(s) for s in ([1, 4], [0], [2, 7, 9]))
        assert got == self.PINNED_ORACLE_SIGMA[key]

    @pytest.mark.parametrize(
        "label, model, seeds, sigma",
        [("wc", WC, [54, 35, 30, 62], 38.95), ("ic", IC, [13, 35, 62, 5], 8.3)],
    )
    def test_celf_batched_oracle_seeds_pinned(
        self, pinned_graphs, label, model, seeds, sigma
    ):
        result = registry.make(
            "CELF", mc_simulations=20, spread_oracle="batched", mc_batch=16
        ).select(pinned_graphs[label], 4, model, rng=np.random.default_rng(9))
        assert result.seeds == seeds
        assert result.extras["estimated_spread"] == sigma


class TestSeedRangeCheck:
    @pytest.mark.parametrize("batch", [None, 1])
    @pytest.mark.parametrize("dynamics", [Dynamics.IC, Dynamics.LT])
    @pytest.mark.parametrize("seeds", [[-4], [0, 4], [-1, 2, 9]])
    def test_out_of_range_seeds_raise(self, sure_line, dynamics, batch, seeds):
        with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
            monte_carlo_spread(
                sure_line, seeds, dynamics, r=3,
                rng=np.random.default_rng(0), batch=batch,
            )

    def test_error_names_the_offending_ids(self, sure_line):
        with pytest.raises(ValueError, match=r"\[-4, 7\]"):
            monte_carlo_spread(sure_line, [7, 0, -4], Dynamics.IC, r=2)

    def test_boundary_ids_accepted(self, sure_line):
        est = monte_carlo_spread(
            sure_line, [0, 3], Dynamics.IC, r=2, rng=np.random.default_rng(0)
        )
        assert est.mean == 4.0


class TestOracleBackends:
    def test_serial_oracle_preserves_rng_stream(self, small_powerlaw):
        oracle = SequentialMCOracle(
            small_powerlaw, Dynamics.IC, 40, np.random.default_rng(3)
        )
        value = oracle.gain(2)
        expected = monte_carlo_spread(
            small_powerlaw, [2], Dynamics.IC, r=40, rng=np.random.default_rng(3),
            batch=1,
        ).mean
        assert value == expected
        assert oracle.evaluations == 1

    def test_batched_oracle_is_repeatable(self, small_powerlaw):
        oracle = BatchedMCOracle(
            small_powerlaw, Dynamics.IC, 40, np.random.default_rng(3), batch=16
        )
        first = oracle.evaluate([1, 4])
        second = oracle.evaluate([4, 1])  # order-insensitive key
        assert first == second
        assert oracle.evaluations == 1  # the repeat was served from cache

    def test_snapshot_commit_matches_evaluate(self, small_powerlaw):
        oracle = SnapshotOracle(
            small_powerlaw, Dynamics.IC, 60, np.random.default_rng(5)
        )
        for v in (0, 7, 13):
            oracle.commit(v)
        # Sum of per-world marginals must equal the world-average sigma of
        # the committed set — the covered-mask blocking is exact.
        assert oracle.committed_sigma == pytest.approx(
            oracle.evaluate([0, 7, 13]), abs=1e-12
        )

    def test_snapshot_exact_on_deterministic_graph(self, sure_line):
        oracle = SnapshotOracle(sure_line, Dynamics.IC, 8, np.random.default_rng(1))
        assert oracle.evaluate([0]) == 4.0
        assert oracle.gain(1) == 3.0
        oracle.commit(0)
        assert oracle.gain(1) == 0.0  # everything already covered

    def test_sketch_bound_dominates_gain_when_exact(self, sure_line):
        # sketch_k > n: every sketch holds all ranks, so the estimate is
        # the exact reach count and the bound dominates any marginal gain.
        oracle = SketchOracle(
            sure_line, Dynamics.IC, 8, np.random.default_rng(1), sketch_k=16
        )
        for v in range(sure_line.n):
            assert oracle.gain_bound(v) >= oracle.gain(v)

    def test_make_oracle_resolution(self, small_powerlaw):
        rng = np.random.default_rng(0)
        assert isinstance(
            make_oracle(None, small_powerlaw, Dynamics.IC, rng, mc_simulations=10),
            SequentialMCOracle,
        )
        assert isinstance(
            make_oracle(
                None, small_powerlaw, Dynamics.IC, rng,
                mc_simulations=10, mc_batch=8,
            ),
            BatchedMCOracle,
        )
        with pytest.raises(ValueError, match="unknown spread oracle"):
            make_oracle("bogus", small_powerlaw, Dynamics.IC, rng, mc_simulations=10)


class TestGainCache:
    def test_deterministic_backend_hits(self, small_powerlaw):
        oracle = BatchedMCOracle(
            small_powerlaw, Dynamics.IC, 20, np.random.default_rng(3), batch=8
        )
        cache = GainCache()
        first = cache.gain(oracle, 5)
        second = cache.gain(oracle, 5)
        assert first == second
        assert (cache.hits, cache.misses) == (1, 1)

    def test_commit_invalidates_by_key(self, small_powerlaw):
        oracle = BatchedMCOracle(
            small_powerlaw, Dynamics.IC, 20, np.random.default_rng(3), batch=8
        )
        cache = GainCache()
        cache.gain(oracle, 5)
        oracle.commit(9, 0.0)
        cache.gain(oracle, 5)  # new committed set -> new key -> miss
        assert (cache.hits, cache.misses) == (0, 2)

    def test_stochastic_backend_bypasses(self, small_powerlaw):
        oracle = SequentialMCOracle(
            small_powerlaw, Dynamics.IC, 20, np.random.default_rng(3)
        )
        cache = GainCache()
        cache.gain(oracle, 5)
        cache.gain(oracle, 5)
        assert (cache.hits, cache.misses) == (0, 2)
        assert oracle.evaluations == 2  # every query re-simulates


class TestAlgorithmsWithOracles:
    @pytest.mark.parametrize("name", ["GREEDY", "CELF", "CELF++"])
    @pytest.mark.parametrize("backend", ["batched", "snapshot", "sketch"])
    def test_backends_produce_valid_selections(self, small_powerlaw, name, backend):
        algo = registry.make(
            name, mc_simulations=20, spread_oracle=backend,
            mc_batch=16, num_worlds=20,
        )
        result = algo.select(small_powerlaw, 4, WC, rng=np.random.default_rng(9))
        assert len(result.seeds) == 4
        assert result.extras["spread_oracle"] == backend
        assert result.extras["sigma_evaluations"] > 0
        assert result.extras["estimated_spread"] > 0

    def test_default_path_reports_serial_backend(self, small_powerlaw):
        result = registry.make("CELF", mc_simulations=5).select(
            small_powerlaw, 2, WC, rng=np.random.default_rng(9)
        )
        assert result.extras["spread_oracle"] == "serial"
        assert result.extras["gain_cache_hits"] == 0

    def test_celfpp_lookahead_becomes_cache_hits(self, small_powerlaw):
        # mg2 is stored under (S u {cur_best}, v); once cur_best is picked,
        # v's next re-lookup is served from the memo.
        result = registry.make(
            "CELF++", mc_simulations=20, spread_oracle="batched", mc_batch=16
        ).select(small_powerlaw, 5, WC, rng=np.random.default_rng(9))
        assert result.extras["gain_cache_hits"] > 0

    def test_sketch_backend_skips_initial_scan(self, small_powerlaw):
        full = registry.make(
            "CELF", mc_simulations=20, spread_oracle="snapshot", num_worlds=20
        ).select(small_powerlaw, 3, WC, rng=np.random.default_rng(9))
        lazy = registry.make(
            "CELF", mc_simulations=20, spread_oracle="sketch", num_worlds=20
        ).select(small_powerlaw, 3, WC, rng=np.random.default_rng(9))
        assert (
            lazy.extras["sigma_evaluations"] < full.extras["sigma_evaluations"]
        )

    def test_invalid_oracle_knobs_rejected(self):
        for kwargs in (
            {"mc_batch": 0},
            {"mc_workers": 0},
            {"num_worlds": 0},
            {"mc_simulations": 0},
        ):
            with pytest.raises(ValueError):
                registry.make("CELF", **kwargs)
