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

from conftest import (
    all_true_null,
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

    def test_reps_positive(self):
        with pytest.raises(ValueError, match="reps"):
            mcsim.simulate_fwer(small_config(reps=0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            mcsim.simulate_fwer(small_config(kind="cauchy"))

    def test_equicorrelated_nulls_still_uniform(self):
        # marginal distribution of true-null p-values is Uniform(0, 1)
        scores = mcsim.draw_scores(5, 4000, 3, "equicorrelated_normal", 0.6)
        from scipy.special import ndtr

        p = ndtr(-scores).ravel()
        # crude KS-style check on quartiles
        for q in (0.25, 0.5, 0.75):
            assert abs((p <= q).mean() - q) < 0.02


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
        # the shared score, p-value and per-family caches change nothing
        import itertools
        import random

        specs = [three_layer_step_up_spec(), parallel_split_spec()]
        models = [
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

    def test_batch_run_validates(self):
        spec = gk.make_spec(0.05, [[("F1", ["H1"], 0.2, proc.bonferroni())]])
        with pytest.raises(gk.InvalidSpecError):
            mcsim.batch_run(spec, np.zeros((1, 1)))
        with pytest.raises(ValueError, match="p matrix"):
            mcsim.batch_run(parallel_split_spec(), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="outside"):
            mcsim.batch_run(parallel_split_spec(), np.full((1, 9), 1.5))


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

    def test_result_json(self):
        result = mcsim.simulate_fwer(small_config(reps=100))
        obj = json.loads(mcsim.sim_result_to_json(result))
        assert set(obj) == {
            "fwer_hat", "se", "rejections_per_hypothesis", "reps", "seed"
        }
