"""Simulation harness: determinism, truth handling, batch-engine agreement."""

import dataclasses
import json
import math

import numpy as np
import pytest

import gatekeep as gk
from gatekeep import mcsim
from gatekeep import procedures as proc
from gatekeep.mcsim import PValueModel, SimConfig, SweepError
from gatekeep.procedures import Kernel

from conftest import (
    all_true_null,
    fold,
    parallel_split_spec,
    random_spec,
    three_layer_step_up_spec,
)


def small_config(spec=None, reps=2000, seed=7, **model_kwargs):
    spec = spec or parallel_split_spec()
    return SimConfig(
        spec=spec,
        truth=all_true_null(spec),
        model=PValueModel(**model_kwargs) if model_kwargs else PValueModel(),
        reps=reps,
        seed=seed,
    )


class TestDeterminism:
    def test_identical_configs_identical_results(self):
        config = small_config()
        assert mcsim.simulate_fwer(config) == mcsim.simulate_fwer(config)

    def test_sweep_duplicate_configs(self):
        config = small_config(reps=500)
        a, b = mcsim.sweep([config, config])
        assert a == b

    def test_sweep_matches_direct_call(self):
        # the sweep's score-matrix cache must not change results
        config = small_config(reps=800)
        assert mcsim.sweep([config])[0] == mcsim.simulate_fwer(config)

    def test_seed_changes_results(self):
        a = mcsim.simulate_fwer(small_config(seed=1))
        b = mcsim.simulate_fwer(small_config(seed=2))
        assert a != b

    def test_scores_depend_only_on_seed_rep_pair(self):
        # prefix property: the first r rows are the same regardless of reps
        long = mcsim.draw_scores(42, 50, 4)
        short = mcsim.draw_scores(42, 20, 4)
        assert np.array_equal(long[:20], short)

    @pytest.mark.parametrize("seed", [0, 42, -3, (1 << 64) + 5])
    @pytest.mark.parametrize(
        "kind, rho", [("independent_uniform", 0.0), ("equicorrelated_normal", 0.35)]
    )
    def test_scores_match_one_philox_per_row(self, seed, kind, rho):
        # the stream contract written out: row r is a fresh Philox keyed by
        # seed << 64 | r (seed taken mod 2**64)
        reps, n = 60, 5
        base = (seed % (1 << 64)) << 64
        expect = np.empty((reps, n))
        for r in range(reps):
            rng = np.random.Generator(np.random.Philox(key=base | r))
            if kind == "equicorrelated_normal":
                vals = rng.standard_normal(n + 1)
                expect[r] = math.sqrt(rho) * vals[0] + math.sqrt(1.0 - rho) * vals[1:]
            else:
                expect[r] = rng.standard_normal(n)
        got = mcsim.draw_scores(seed, reps, n, kind, rho)
        assert got.shape == (reps, n)
        assert np.array_equal(got, expect)


class TestTruthHandling:
    def test_no_true_nulls_gives_exact_zero(self):
        spec = parallel_split_spec()
        config = SimConfig(
            spec=spec,
            truth={label: "false_null" for label in spec.labels()},
            model=PValueModel(),
            reps=400,
            seed=3,
        )
        result = mcsim.simulate_fwer(config)
        assert result.fwer_hat == 0.0
        assert result.se == 0.0

    def test_truth_must_cover_labels(self):
        config = small_config()
        broken = dataclasses.replace(
            config, truth={k: v for k, v in list(config.truth.items())[:-1]}
        )
        with pytest.raises(ValueError, match="truth labels mismatch"):
            mcsim.simulate_fwer(broken)

    def test_truth_values_checked(self):
        config = small_config()
        truth = dict(config.truth)
        truth["H11"] = "maybe"
        with pytest.raises(ValueError, match="true_null/false_null"):
            mcsim.simulate_fwer(dataclasses.replace(config, truth=truth))

    def test_rejection_counts_reported_per_hypothesis(self):
        config = small_config(reps=3000)
        result = mcsim.simulate_fwer(config)
        assert set(result.rejections_per_hypothesis) == set(config.spec.labels())
        assert all(0 <= c <= config.reps for c in result.rejections_per_hypothesis.values())

    def test_bonferroni_marginals_bounded_by_share(self):
        # all-null single Bonferroni family: each hypothesis rejects at most
        # its level share (level/n), up to noise
        spec = gk.make_spec(
            0.05, [[("F1", ["A", "B", "C", "D"], 0.05, proc.bonferroni())]]
        )
        config = SimConfig(spec, all_true_null(spec), PValueModel(), 20_000, 11)
        result = mcsim.simulate_fwer(config)
        share = 0.05 / 4
        se = math.sqrt(share * (1 - share) / config.reps)
        for label, count in result.rejections_per_hypothesis.items():
            assert count / config.reps <= share + 3 * se


class TestModelValidation:
    def test_rho_range(self):
        with pytest.raises(ValueError, match="rho"):
            mcsim.simulate_fwer(
                small_config(kind="equicorrelated_normal", rho=1.0)
            )

    def test_rho_needs_normal_model(self):
        with pytest.raises(ValueError, match="rho only applies"):
            mcsim.simulate_fwer(small_config(kind="independent_uniform", rho=0.2))

    def test_delta_nonnegative(self):
        with pytest.raises(ValueError, match="delta"):
            mcsim.simulate_fwer(small_config(delta=-1.0))

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_delta_finite(self, delta):
        with pytest.raises(ValueError, match="delta"):
            mcsim.simulate_fwer(small_config(delta=delta))

    @pytest.mark.parametrize("bad", [None, "0.5", 0.5j])
    def test_rho_or_delta_that_is_not_a_number(self, bad):
        with pytest.raises(ValueError, match=f"^rho {bad!r} outside \\[0, 1\\)$"):
            mcsim.simulate_fwer(small_config(kind="equicorrelated_normal", rho=bad))
        with pytest.raises(ValueError, match=f"^delta {bad!r} must be finite and nonnegative$"):
            mcsim.simulate_fwer(small_config(delta=bad))

    def test_reps_positive(self):
        with pytest.raises(ValueError, match="reps"):
            mcsim.simulate_fwer(small_config(reps=0))

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_outside_64_bits(self, seed):
        # draw_scores would alias it to seed % 2**64.
        with pytest.raises(ValueError, match="seed"):
            mcsim.simulate_fwer(small_config(seed=seed))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            mcsim.simulate_fwer(small_config(kind="cauchy"))

    def test_equicorrelated_nulls_still_uniform(self):
        # marginal distribution of true-null p-values is Uniform(0, 1)
        scores = mcsim.draw_scores(5, 4000, 3, "equicorrelated_normal", 0.6)
        p = mcsim.ndtr(-scores).ravel()
        # crude KS-style check on quartiles
        for q in (0.25, 0.5, 0.75):
            assert abs((p <= q).mean() - q) < 0.02


class TestNdtr:
    # scipy.special.ndtr values, as float.hex, so that the check runs without scipy.
    PINNED = {
        -40.0: "0x0.0p+0",
        -37.5: "0x1.08eda98086fd0p-1021",
        -12.0: "0x1.272b3136661edp-109",
        -8.5: "0x1.5dbbaccf1a4b4p-57",
        -3.0: "0x1.61de1f985b5d1p-10",
        -1.2: "0x1.d7534b65d1e30p-4",
        -0.9: "0x1.78f483d6e55c6p-3",
        -0.25: "0x1.9aecba9d22528p-2",
        0.0: "0x1.0000000000000p-1",
        0.6: "0x1.73951868dff28p-1",
        1.0: "0x1.aec4bd120d37dp-1",
        2.5: "0x1.fcd21635036c6p-1",
        6.0: "0x1.fffffff786788p-1",
        9.0: "0x1.0000000000000p+0",
    }

    def test_pinned_values(self):
        x = np.array(list(self.PINNED))
        assert [float(v).hex() for v in mcsim.ndtr(x)] == [
            float.fromhex(h).hex() for h in self.PINNED.values()
        ]

    def test_shape_and_specials(self):
        assert mcsim.ndtr(np.zeros((2, 3))).shape == (2, 3)
        assert mcsim.ndtr(0.5).shape == ()
        p = mcsim.ndtr(np.array([-np.inf, np.inf, np.nan, -0.0]))
        assert p[0] == 0.0 and p[1] == 1.0 and np.isnan(p[2]) and p[3] == 0.5

    def test_bit_identical_to_scipy(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(4)
        scores = rng.standard_normal(400_000)
        sqrt2 = math.sqrt(2.0)
        # The port branches on |x|/sqrt(2) at SQRTH, 1 and 8, and at the exp
        # underflow edge sqrt(MAXLOG); take a few ulps on either side of each.
        edges = [math.sqrt(0.5), 1.0, 8.0, math.sqrt(7.09782712893383996843e2)]
        points = []
        for b in edges:
            for v in (b * sqrt2, -b * sqrt2):
                up = down = v
                for _ in range(4):
                    points += [up, down]
                    up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        x = np.concatenate([
            -scores,
            -(scores + 3.0),
            -(rng.standard_normal(200_000) + 2.5),
            rng.uniform(-45.0, 45.0, 400_000),
            points,
            [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324],
        ])
        ours, theirs = mcsim.ndtr(x), special.ndtr(x)
        same = (ours == theirs) | (np.isnan(ours) & np.isnan(theirs))
        assert x.size >= 1_000_000
        assert same.all(), x[~same][:5]


class TestSweep:
    def test_empty(self):
        assert mcsim.sweep([]) == []

    def test_order_preserved(self):
        spec = parallel_split_spec()
        configs = [
            small_config(seed=1, reps=300),
            small_config(seed=2, reps=300),
            small_config(seed=3, reps=300),
        ]
        results = mcsim.sweep(configs)
        assert [r.seed for r in results] == [1, 2, 3]

    def test_failures_isolated(self):
        good = small_config(reps=200)
        bad = dataclasses.replace(good, reps=0)
        with pytest.raises(SweepError) as info:
            mcsim.sweep([good, bad, good])
        err = info.value
        assert [i for i, _ in err.errors] == [1]
        assert sorted(err.results) == [0, 2]
        assert err.results[0] == mcsim.simulate_fwer(good)

    def test_mixed_configs_match_direct_calls(self):
        # shuffled specs, truth masks, deltas, seeds and models in one call:
        # the shared score, p-value and per-family caches change nothing. At
        # delta 0 the shifts do not tell truth masks apart, so every mask
        # shares each family's outcome and only the hit count reads the truth.
        import itertools
        import random

        specs = [three_layer_step_up_spec(), parallel_split_spec()]
        models = [
            PValueModel(delta=0.0),
            PValueModel(delta=2.5),
            PValueModel(delta=3.0),
            PValueModel("equicorrelated_normal", rho=0.4, delta=3.0),
        ]
        configs = []
        for spec, model, seed in itertools.product(specs, models, (5, 6)):
            labels = spec.labels()
            for bits in itertools.product((True, False), repeat=4):
                truth = {
                    label: "true_null" if bits[k % 4] else "false_null"
                    for k, label in enumerate(labels)
                }
                configs.append(SimConfig(spec, truth, model, 150, seed))
        random.Random(0).shuffle(configs)
        sorted_run = sorted(configs, key=mcsim.truth_mask)
        for batch in (configs, sorted_run):
            results = mcsim.sweep(batch)
            assert results == [mcsim.simulate_fwer(c) for c in batch]

    def test_csv_shape(self):
        spec = parallel_split_spec()
        configs = [small_config(reps=200, seed=9)]
        results = mcsim.sweep(configs)
        text = mcsim.sweep_to_csv(configs, results)
        lines = text.strip().split("\n")
        assert lines[0] == "truth_mask,fwer_hat,se,reps,seed"
        mask, fwer, se, reps, seed = lines[1].split(",")
        assert mask == "1" * 9
        assert int(reps) == 200 and int(seed) == 9
        assert 0.0 <= float(fwer) <= 1.0 and float(se) >= 0.0


class TestRankingCache:
    """A sweep ranks each family's p-values once per own shifts and block,
    and decides every config's mask from that ranking at its own level."""

    @staticmethod
    def every_kind_strategies():
        # Every kind, equal- and unequal-weight Holm included, in families
        # of 1-4 hypotheses, at their own level or at a passed-on one.
        return [
            gk.make_spec(0.05, [
                [("F1", ["A1", "A2"], 0.03, proc.truncated_hochberg(0.5))],
                [("F2", ["A3", "A4", "A5"], 0.01, proc.holm())],
                [("F3", ["A6"], 0.01, proc.fixed_sequence(["A6"]))],
            ], {("F1", "F2"): 0.7, ("F1", "F3"): 0.3, ("F2", "F3"): 1.0}),
            gk.make_spec(0.05, [
                [("F1", ["B1", "B2", "B3"], 0.04, proc.holm([0.2, 0.3, 0.5]))],
                [("F2", ["B4", "B5", "B6", "B7"], 0.01, proc.truncated_holm(0.3))],
            ], {("F1", "F2"): 1.0}),
            gk.make_spec(0.05, [
                [("F1", ["C1", "C2"], 0.04, proc.bonferroni([0.6, 0.4])),
                 ("F2", ["C3"], 0.01, proc.hochberg())],
                [("F3", ["C4", "C5", "C6", "C7"], 0.0, proc.hochberg())],
            ], {("F1", "F3"): 0.5, ("F2", "F3"): 1.0}),
            gk.make_spec(0.05, [
                [("F1", ["D1", "D2"], 0.05, proc.fixed_sequence(["D2", "D1"]))],
                [("F2", ["D3", "D4", "D5"], 0.0, proc.holm([0.5, 0.25, 0.25])),
                 ("F3", ["D6", "D7"], 0.0, proc.truncated_holm(0.0))],
            ], {("F1", "F2"): 0.5, ("F1", "F3"): 0.5}),
        ]

    @pytest.mark.parametrize("budget", [None, 2 * 4 * 200])
    def test_shuffled_sweep_of_every_mask_matches_simulate(self, monkeypatch, budget):
        # The small budget holds two rankings of a four-hypothesis family:
        # most rankings are evicted and made again.
        import itertools
        import random

        if budget is not None:
            monkeypatch.setattr(mcsim, "_RANK_BUDGET", budget)
        configs = []
        for spec in self.every_kind_strategies():
            labels = spec.labels()
            masks = itertools.product((True, False), repeat=len(labels))
            for delta, bits in itertools.product((2.0, 3.0), masks):
                truth = {l: "true_null" if b else "false_null" for l, b in zip(labels, bits)}
                configs.append(SimConfig(spec, truth, PValueModel(delta=delta), 200, 3))
        random.Random(2).shuffle(configs)
        assert mcsim.sweep(configs) == [mcsim.simulate_fwer(c) for c in configs]

    @staticmethod
    def one_layout_strategies():
        # Two strategies of one layout: a ranked family on columns 0-1 and
        # another on columns 2-3, in two layers or in one.
        return [
            gk.make_spec(0.05, [
                [("F1", ["A1", "A2"], 0.04, proc.hochberg())],
                [("F2", ["A3", "A4"], 0.01, proc.truncated_holm(0.5))],
            ], {("F1", "F2"): 1.0}),
            gk.make_spec(0.05, [
                [("G1", ["B1", "B2"], 0.02, proc.truncated_hochberg(0.2)),
                 ("G2", ["B3", "B4"], 0.03, proc.holm())],
            ]),
        ]

    @pytest.mark.parametrize("budget", [None, 2 * 300])
    def test_rankings_are_shared_by_column_range(self, monkeypatch, budget):
        # Families with equal shifts on different columns must not share a
        # ranking; families of different strategies on the same columns
        # share one. The small budget holds a single ranking.
        import itertools
        import random

        if budget is not None:
            monkeypatch.setattr(mcsim, "_RANK_BUDGET", budget)
        configs = []
        for spec in self.one_layout_strategies():
            labels = spec.labels()
            masks = itertools.product((True, False), repeat=len(labels))
            for delta, bits in itertools.product((2.0, 3.0), masks):
                truth = {l: "true_null" if b else "false_null" for l, b in zip(labels, bits)}
                configs.append(SimConfig(spec, truth, PValueModel(delta=delta), 300, 4))
        random.Random(5).shuffle(configs)
        sorts = []
        sort = np.sort
        monkeypatch.setattr(np, "sort", lambda *a, **k: sorts.append(1) or sort(*a, **k))
        results = mcsim.sweep(configs)
        monkeypatch.setattr(np, "sort", sort)
        assert results == [mcsim.simulate_fwer(c) for c in configs]
        if budget is None:
            # Per column range: the shifts (0, 0), and (0, d), (d, 0), (d, d)
            # for each of the two deltas d.
            assert len(sorts) == 2 * 7

    def test_a_ten_thousand_rep_sweep_is_one_block(self, monkeypatch):
        calls = []
        draw = mcsim.draw_scores
        monkeypatch.setattr(mcsim, "draw_scores", lambda *a: calls.append(a) or draw(*a))
        config = small_config(reps=10_000)
        mcsim.sweep([config, dataclasses.replace(config, model=PValueModel(delta=2.0))])
        assert len(calls) == 1

    def test_memory_stays_within_the_budget_and_one_block(self):
        import itertools
        import tracemalloc

        labels = [f"H{k}" for k in range(1, 10)]
        spec = gk.make_spec(0.05, [[("F1", labels, 0.05, proc.truncated_holm(0.5))]])
        configs = [
            SimConfig(spec, {l: "true_null" if b else "false_null" for l, b in zip(labels, bits)},
                      PValueModel(), mcsim._BLOCK, 5)
            for bits in itertools.product((True, False), repeat=9)
        ]

        def peak(batch):
            tracemalloc.start()
            try:
                mcsim.sweep(batch)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # One block's working set: the scores, both p-values of every
        # column, and two rankings; 1 MB more holds the 512 results. Each
        # mask has its own ranking (1.2 MB), so holding them all would take
        # about 600 MB.
        block = peak([configs[0], configs[-1]])
        assert peak(configs) <= 8 * mcsim._RANK_BUDGET + block + 1e6


class TestRejectionMatrix:
    """Every simulate count is read off one rejection matrix per config; a
    family's outcome is keyed by its own shifts and its sources' outcomes,
    never by the truth."""

    @pytest.mark.parametrize("delta, tests", [(3.0, 512 + 64 + 8), (0.0, 3)])
    def test_family_tests_over_every_mask_of_a_chain(self, monkeypatch, delta, tests):
        # Masks in itertools.product order, first hypothesis slowest. At
        # delta 3 a family is retested when its own truth changes, or an
        # outcome upstream; at delta 0 no mask shifts a column, so all 512
        # share each family's one outcome.
        import itertools

        labels = [f"H{k}" for k in range(1, 10)]
        spec = gk.make_spec(0.05, [
            [("F1", labels[:3], 0.03, proc.hochberg())],
            [("F2", labels[3:6], 0.01, proc.truncated_holm(0.5))],
            [("F3", labels[6:], 0.01, proc.holm())],
        ], {("F1", "F2"): 0.5, ("F1", "F3"): 0.5, ("F2", "F3"): 1.0})
        configs = [
            SimConfig(spec, {l: "true_null" if b else "false_null" for l, b in zip(labels, bits)},
                      PValueModel(delta=delta), 1000, 1)
            for bits in itertools.product((True, False), repeat=9)
        ]
        calls = []
        test = Kernel.test
        monkeypatch.setattr(Kernel, "test", lambda self, *a: calls.append(1) or test(self, *a))
        results = mcsim.sweep(configs)
        assert len(calls) == tests
        monkeypatch.setattr(Kernel, "test", test)
        assert results[0].fwer_hat > 0.0 and results[-1].fwer_hat == 0.0
        assert results[::73] == [mcsim.simulate_fwer(c) for c in configs[::73]]

    @pytest.mark.parametrize("delta", [0.0, 2.5])
    def test_counts_are_a_reduction_of_batch_run(self, monkeypatch, delta):
        # The estimate and the per-hypothesis counts, summed over blocks of
        # 70 rows, equal the rows and columns of batch_run's rejections on
        # the same draw, counted one row at a time. Every ninth mask.
        import itertools

        monkeypatch.setattr(mcsim, "_BLOCK", 70)
        reps, seed = 200, 3
        for spec in TestRankingCache.every_kind_strategies():
            labels = spec.labels()
            scores = mcsim.draw_scores(seed, reps, len(labels))
            masks = list(itertools.product((True, False), repeat=len(labels)))
            for bits in masks[::9] + masks[-1:]:  # all true nulls first, none last
                shift = np.array([0.0 if b else delta for b in bits])
                rows = mcsim.batch_run(spec, mcsim.ndtr(-(scores + shift))).tolist()
                truth = {l: "true_null" if b else "false_null" for l, b in zip(labels, bits)}
                config = SimConfig(spec, truth, PValueModel(delta=delta), reps, seed)
                result = mcsim.simulate_fwer(config)
                hits = sum(any(r and b for r, b in zip(row, bits)) for row in rows)
                assert result.fwer_hat == hits / reps
                assert result.rejections_per_hypothesis == dict(zip(labels, map(sum, zip(*rows))))


class TestStrongControl:
    def test_case_family_forms_all_masks(self):
        # the small benchmark strategies, every truth assignment
        from gatekeep import hypgraph as hg
        import itertools

        specs = [
            hg.bonferroni_gate_pair(0.05)[1],
            hg.serial_holm_gate_single(0.05)[1],
            hg.serial_holm_gate_weighted_pair(0.05, 0.5, 0.5)[1],
        ]
        for spec in specs:
            labels = spec.labels()
            configs = [
                SimConfig(
                    spec,
                    {l: ("true_null" if b else "false_null") for l, b in zip(labels, bits)},
                    PValueModel(),
                    10_000,
                    31,
                )
                for bits in itertools.product((True, False), repeat=len(labels))
            ]
            for result in mcsim.sweep(configs):
                assert result.fwer_hat <= 0.05 + 3 * result.se

    def test_step_up_strategy_under_positive_correlation(self):
        # the step-up locals stay valid under the common-factor model
        spec = three_layer_step_up_spec()
        config = SimConfig(
            spec,
            all_true_null(spec),
            PValueModel(kind="equicorrelated_normal", rho=0.5),
            20_000,
            13,
        )
        result = mcsim.simulate_fwer(config)
        assert result.fwer_hat <= 0.05 + 3 * result.se

    def test_global_null_at_high_replication(self):
        spec = parallel_split_spec()
        config = SimConfig(spec, all_true_null(spec), PValueModel(), 100_000, 17)
        result = mcsim.simulate_fwer(config)
        assert result.fwer_hat <= 0.05 + 3 * result.se


class TestBatchAgreesWithEngine:
    def test_random_strategies(self, rng):
        # the vectorized twin must match the scalar engine exactly
        checked = 0
        while checked < 25:
            spec = random_spec(rng)
            if not gk.validate_spec(spec).ok:
                continue
            labels = spec.labels()
            pmat = rng.uniform(0, 1, size=(300, len(labels))) * rng.choice(
                [0.05, 0.3, 1.0], size=(300, 1)
            )
            batch = mcsim.batch_run(spec, pmat)
            for r in range(0, 300, 7):
                report = gk.run(spec, dict(zip(labels, pmat[r])))
                expect = np.array([report.decisions[l] == "S" for l in labels])
                assert np.array_equal(batch[r], expect), (
                    f"row {r} disagrees for spec {gk.spec_to_json(spec)}"
                )
            checked += 1

    def test_golden_strategy_rows(self, rng):
        spec = three_layer_step_up_spec()
        labels = spec.labels()
        pmat = rng.uniform(0, 0.08, size=(500, 9))
        batch = mcsim.batch_run(spec, pmat)
        for r in range(500):
            report = gk.run(spec, dict(zip(labels, pmat[r])))
            expect = np.array([report.decisions[l] == "S" for l in labels])
            assert np.array_equal(batch[r], expect)

    def test_tied_pvalues_agree(self, rng):
        # coarse grid forces exact ties across hypotheses; the stable
        # tie-break must match between the twin and the scalar engine
        spec = three_layer_step_up_spec()
        labels = spec.labels()
        grid = np.array([0.005, 0.01, 0.01, 0.02, 0.025, 0.05])
        pmat = rng.choice(grid, size=(400, 9))
        batch = mcsim.batch_run(spec, pmat)
        for r in range(400):
            report = gk.run(spec, dict(zip(labels, pmat[r])))
            expect = np.array([report.decisions[l] == "S" for l in labels])
            assert np.array_equal(batch[r], expect)

    def test_hochberg_threshold_tie_agrees(self):
        # p equal to level/7 at level 0.001: (1/7)*level is one ulp below
        # level/7, so a threshold computed that way missed the tie
        labels = [f"H{k}" for k in range(1, 8)]
        spec = gk.make_spec(0.001, [[("F1", labels, 0.001, proc.hochberg())]])
        pmat = np.ones((1, 7))
        pmat[0, 0] = 0.001 / 7
        report = gk.run(spec, dict(zip(labels, pmat[0])))
        assert report.decisions["H1"] == "S"
        expect = [report.decisions[l] == "S" for l in labels]
        assert mcsim.batch_run(spec, pmat)[0].tolist() == expect

    def test_weighted_holm_first_step_tie_with_nine_weights(self):
        # numpy sums a row pairwise from 8 columns, the scalar engine left to
        # right; a total one ulp apart moves the first threshold off the tie
        labels = [f"H{k}" for k in range(1, 10)]
        rng = np.random.default_rng(9)
        for _ in range(200):
            raw = rng.uniform(0.05, 1.0, 9)
            w = tuple(float(x) for x in raw / raw.sum())
            spec = gk.make_spec(0.05, [[("F1", labels, 0.05, proc.holm(w))]])
            k = int(np.argmax(w))
            pmat = np.ones((1, 9))
            pmat[0, k] = w[k] / fold(w) * 0.05  # the engine's first-step threshold
            report = gk.run(spec, dict(zip(labels, pmat[0])))
            assert report.decisions[labels[k]] == "S"
            expect = [report.decisions[l] == "S" for l in labels]
            assert mcsim.batch_run(spec, pmat)[0].tolist() == expect

    def test_bonferroni_tests_in_one_round(self, monkeypatch):
        # Its thresholds never move, so a second round could clear nothing.
        calls = []
        threshold = Kernel.threshold
        monkeypatch.setattr(
            Kernel, "threshold", lambda self, *args: calls.append(1) or threshold(self, *args)
        )
        spec = gk.make_spec(0.05, [[("F1", ["H1", "H2"], 0.05, proc.bonferroni())]])
        assert gk.run(spec, {"H1": 0.001, "H2": 0.9}).decisions == {"H1": "S", "H2": "NS"}
        assert len(calls) == 2  # one threshold per hypothesis
        calls.clear()
        assert mcsim.batch_run(spec, np.array([[0.001, 0.9]]))[0].tolist() == [True, False]
        assert len(calls) == 2  # one threshold column per hypothesis; a second round makes 4

    def test_batch_run_validates(self):
        spec = gk.make_spec(0.05, [[("F1", ["H1"], 0.2, proc.bonferroni())]])
        with pytest.raises(gk.InvalidSpecError):
            mcsim.batch_run(spec, np.zeros((1, 1)))
        with pytest.raises(ValueError, match="p matrix"):
            mcsim.batch_run(parallel_split_spec(), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="outside"):
            mcsim.batch_run(parallel_split_spec(), np.full((1, 9), 1.5))

    @pytest.mark.parametrize("bad", [1.5, float("nan")])
    def test_batch_run_rejects_pvalue_outside_unit_interval(self, bad):
        spec = gk.make_spec(0.05, [[("F1", ["H1", "H2"], 0.05, proc.holm())]])
        with pytest.raises(ValueError, match="outside"):
            mcsim.batch_run(spec, np.array([[bad, 0.001]]))


class TestJsonFormats:
    def test_config_round_trip(self):
        config = small_config(reps=123, seed=55)
        text = mcsim.sim_config_to_json(config)
        parsed = mcsim.sim_configs_from_json(text)
        assert parsed == [config]

    def test_seed_fill_in(self):
        config = small_config(reps=10, seed=55)
        obj = mcsim.sim_config_to_json(config)
        stripped = obj.replace('"seed": 55,', "")
        parsed = mcsim.sim_configs_from_json(stripped, seed=99)
        assert parsed[0].seed == 99
        with pytest.raises(gk.SpecFormatError, match="no seed"):
            mcsim.sim_configs_from_json(stripped)

    def test_list_of_configs(self):
        config = small_config(reps=10)
        text = f"[{mcsim.sim_config_to_json(config)}, {mcsim.sim_config_to_json(config)}]"
        parsed = mcsim.sim_configs_from_json(text)
        assert len(parsed) == 2
        assert parsed[0].spec is parsed[1].spec  # each distinct spec built once

    @pytest.mark.parametrize("key", ["reps", "seed"])
    def test_bool_is_not_an_integer(self, key):
        obj = json.loads(mcsim.sim_config_to_json(small_config(reps=10)))
        obj[key] = True
        with pytest.raises(gk.SpecFormatError, match=f"{key} must be an integer"):
            mcsim.sim_configs_from_json(json.dumps(obj))

    @pytest.mark.parametrize("key", ["rho", "delta"])
    @pytest.mark.parametrize(
        "value", [None, "0.3", True, [0.3], float("nan"), pytest.param(10**400, id="huge_int")]
    )
    def test_model_numbers_must_be_finite_numbers(self, key, value):
        obj = json.loads(mcsim.sim_config_to_json(small_config(reps=10)))
        obj["model"][key] = value
        with pytest.raises(gk.SpecFormatError, match=f"model {key} must be a finite number"):
            mcsim.sim_configs_from_json(json.dumps(obj))

    @staticmethod
    def every_mask_text():
        import itertools

        labels = [f"H{k}" for k in range(1, 10)]
        spec = gk.make_spec(0.05, [
            [("F1", labels[:3], 0.03, proc.hochberg())],
            [("F2", labels[3:6], 0.01, proc.truncated_holm(0.5))],
            [("F3", labels[6:], 0.01, proc.holm())],
        ], {("F1", "F2"): 0.5, ("F1", "F3"): 0.5, ("F2", "F3"): 1.0})
        spec_obj = json.loads(gk.spec_to_json(spec))
        model = {"kind": "equicorrelated_normal", "rho": 0.3, "delta": 3.0}
        return json.dumps([
            {"spec": spec_obj, "model": model, "reps": 1000,
             "truth": {l: "true_null" if b else "false_null" for l, b in zip(labels, bits)}}
            for bits in itertools.product((True, False), repeat=9)
        ])

    def test_parsed_configs_hold_no_strings_of_their_own(self):
        import tracemalloc

        text = self.every_mask_text()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            configs = mcsim.sim_configs_from_json(text, seed=1)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(configs) == 512
        # About 630 bytes each; 1640 when every truth map held its own strings.
        assert held / len(configs) <= 1024
        spec = configs[0].spec
        for config in configs:
            assert config.spec is spec
            for label, own, value in zip(spec.labels(), config.truth, config.truth.values()):
                assert own is label
                assert value is mcsim.TRUE_NULL or value is mcsim.FALSE_NULL

    @pytest.mark.parametrize("label, value, message", [
        ("H10", "true_null", "truth labels mismatch: missing [], extra ['H10']"),
        ("H1", "maybe", "truth values must be true_null/false_null; bad: ['H1']"),
        ("H1", "", "truth values must be true_null/false_null; bad: ['H1']"),
    ])
    def test_unknown_label_or_value_is_refused_when_checked(self, label, value, message):
        obj = json.loads(self.every_mask_text())[0]
        obj["truth"][label] = value
        [config] = mcsim.sim_configs_from_json(json.dumps(obj), seed=1)
        assert config.truth[label] == value
        with pytest.raises(ValueError) as info:
            mcsim.simulate_fwer(config)
        assert str(info.value) == message

    @pytest.mark.parametrize("truth", [["H1"], {"H1": 1}, {"H1": None}, "true_null"])
    def test_truth_must_map_strings_to_strings(self, truth):
        obj = json.loads(self.every_mask_text())[0]
        obj["truth"] = truth
        message = "^truth must map labels to true_null/false_null$"
        with pytest.raises(gk.SpecFormatError, match=message):
            mcsim.sim_configs_from_json(json.dumps(obj), seed=1)

    def test_result_json(self):
        result = mcsim.simulate_fwer(small_config(reps=100))
        obj = json.loads(mcsim.sim_result_to_json(result))
        assert obj == mcsim.sim_result_obj(result)
        assert set(obj) == {
            "fwer_hat", "se", "rejections_per_hypothesis", "reps", "seed"
        }
        assert type(result.fwer_hat) is float


class TestBlocks:
    """Replicates run in blocks of `_BLOCK` rows; no result depends on the
    block size."""

    @staticmethod
    def mixed_configs(block):
        # Shuffled specs, truths, models and seeds, with reps spanning one,
        # two and three blocks of `block` rows. The first two models share
        # their draws and differ in delta.
        import itertools
        import random

        specs = [three_layer_step_up_spec(), parallel_split_spec()]
        models = [PValueModel(delta=2.5), PValueModel(delta=3.0),
                  PValueModel("equicorrelated_normal", rho=0.4, delta=3.0)]
        configs = []
        for spec, model, reps, seed in itertools.product(
            specs, models, (block - 2, block + 3, 2 * block + 1), (5, 6)
        ):
            labels = spec.labels()
            for bits in ((True, True, True), (True, False, True), (False, False, False)):
                truth = {
                    label: "true_null" if bits[k % 3] else "false_null"
                    for k, label in enumerate(labels)
                }
                configs.append(SimConfig(spec, truth, model, reps, seed))
        random.Random(block).shuffle(configs)
        return configs

    @pytest.mark.parametrize("block", [7, 1000])
    def test_mixed_sweep_does_not_depend_on_the_block(self, monkeypatch, block):
        configs = self.mixed_configs(block)
        assert max(c.reps for c in configs) > 2 * block
        # Most neighbours belong to different draws (seed, reps, model).
        draws = [(c.seed, c.reps, c.model.kind, c.model.rho) for c in configs]
        assert sum(a != b for a, b in zip(draws, draws[1:])) > len(configs) // 2
        whole = mcsim.sweep(configs)  # every config in one block
        monkeypatch.setattr(mcsim, "_BLOCK", block)
        assert mcsim.sweep(configs) == whole
        assert [mcsim.simulate_fwer(c) for c in configs] == whole

    @pytest.mark.parametrize("field", ["reps", "seed"])
    def test_float_reps_or_seed_fails_alone(self, monkeypatch, field):
        # Checked with the rest of the config, not when its blocks are drawn.
        monkeypatch.setattr(mcsim, "_BLOCK", 7)
        good = small_config(reps=20)
        with pytest.raises(SweepError) as info:
            mcsim.sweep([good, dataclasses.replace(good, **{field: 20.0}), good])
        [(index, error)] = info.value.errors
        assert index == 1 and type(error) is ValueError
        assert str(error).startswith(f"{field} 20.0 must be an integer")
        assert info.value.results == {0: mcsim.simulate_fwer(good), 2: mcsim.simulate_fwer(good)}

    def test_sweep_memory_holds_one_block_of_one_draw(self, monkeypatch):
        import tracemalloc

        monkeypatch.setattr(mcsim, "_BLOCK", 1000)
        spec = three_layer_step_up_spec()
        truth = {label: "true_null" if k % 3 else "false_null"
                 for k, label in enumerate(spec.labels())}
        model = PValueModel("equicorrelated_normal", rho=0.4, delta=3.0)
        configs = [SimConfig(spec, truth, model, 2500, seed) for seed in range(40)]
        tracemalloc.start()
        try:
            mcsim.sweep(configs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One 1000-row block peaks well under 1 MB; a block of every seed at
        # once, about 6 MB.
        assert peak <= 2e6

    @pytest.mark.parametrize("block", [7, 1000])
    @pytest.mark.parametrize(
        "model", [PValueModel(), PValueModel("equicorrelated_normal", rho=0.3, delta=2.0)]
    )
    def test_simulate_and_given_scores_do_not_depend_on_the_block(
        self, monkeypatch, block, model
    ):
        spec = three_layer_step_up_spec()
        labels = spec.labels()
        truth = {label: "true_null" if k % 2 else "false_null" for k, label in enumerate(labels)}
        config = SimConfig(spec, truth, model, 2 * block + 5, 9)
        scores = mcsim.draw_scores(9, config.reps, len(labels), model.kind, model.rho)
        whole = mcsim.simulate_fwer(config)
        monkeypatch.setattr(mcsim, "_BLOCK", block)
        assert mcsim.simulate_fwer(config) == whole
        assert mcsim.simulate_fwer(config, _scores=scores) == whole

    def test_given_scores_shape_is_checked_on_the_whole_matrix(self, monkeypatch):
        monkeypatch.setattr(mcsim, "_BLOCK", 7)
        config = small_config(reps=20)
        scores = mcsim.draw_scores(config.seed, 21, 9)  # one row too many
        with pytest.raises(ValueError, match=r"score matrix shape \(21, 9\) != \(20, 9\)"):
            mcsim.simulate_fwer(config, _scores=scores)

    def test_failed_config_keeps_its_place(self, monkeypatch):
        monkeypatch.setattr(mcsim, "_BLOCK", 7)
        good = small_config(reps=20)
        bad = dataclasses.replace(good, reps=0)
        with pytest.raises(SweepError) as info:
            mcsim.sweep([bad, good, bad, small_config(reps=5)])
        assert [i for i, _ in info.value.errors] == [0, 2]
        assert info.value.results == {
            1: mcsim.simulate_fwer(good), 3: mcsim.simulate_fwer(small_config(reps=5))
        }

    @pytest.mark.parametrize(
        "kind, rho", [("independent_uniform", 0.0), ("equicorrelated_normal", 0.35)]
    )
    @pytest.mark.parametrize("first, count", [(0, 5), (3, 10), (17, 1), (29, 0)])
    def test_draw_from_a_first_row_is_a_slice(self, kind, rho, first, count):
        whole = mcsim.draw_scores(11, 30, 4, kind, rho)
        part = mcsim.draw_scores(11, count, 4, kind, rho, first=first)
        assert part.shape == (count, 4)
        assert np.array_equal(part, whole[first:first + count])

    def test_simulate_memory_is_bounded_by_the_block(self, monkeypatch):
        import tracemalloc

        monkeypatch.setattr(mcsim, "_BLOCK", 1000)
        spec = three_layer_step_up_spec()
        labels = spec.labels()
        truth = {label: "true_null" if k % 3 else "false_null" for k, label in enumerate(labels)}
        config = SimConfig(
            spec, truth, PValueModel("equicorrelated_normal", rho=0.4, delta=3.0), 20_000, 3
        )
        tracemalloc.start()
        try:
            mcsim.simulate_fwer(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1000-row blocks peak at about 1 MB; all 20000 rows at once, about 5.5 MB.
        assert peak <= 2e6
