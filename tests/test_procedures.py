"""Unit and property tests for the six local procedures and e* bounds."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gatekeep as gk
from gatekeep import procedures as proc
from gatekeep.procedures import FamilyTestInput, error_rate_bound
from gatekeep.procedures import test_family as run_local_test


def rejects(kind_spec, pvalues, level, labels=None):
    return run_local_test(kind_spec, FamilyTestInput(tuple(pvalues), level, labels))


class TestRejectionRules:
    def test_fixed_sequence_stops_at_first_failure(self):
        # second p exceeds the level, so the walk stops there
        got = rejects(
            proc.fixed_sequence(["H21", "H22", "H23"]),
            (0.009, 0.026, 0.013),
            0.025,
            labels=("H21", "H22", "H23"),
        )
        assert got == frozenset({1})

    def test_fixed_sequence_order_is_respected(self):
        got = rejects(
            proc.fixed_sequence(["H3", "H1", "H2"]),
            (0.01, 0.02, 0.5),
            0.05,
            labels=("H1", "H2", "H3"),
        )
        assert got == frozenset()  # H3 goes first and fails immediately

    def test_truncated_hochberg_rejects_all_three(self):
        # largest threshold (0.5 + 0.5/3) * 0.04 = 0.0266... >= 0.018
        got = rejects(proc.truncated_hochberg(0.5), (0.005, 0.011, 0.018), 0.04)
        assert got == frozenset({1, 2, 3})

    def test_hochberg_step_up(self):
        # p(3) = 0.051 fails at 0.025333; p(2) = 0.010 passes at 0.0126665
        got = rejects(proc.hochberg(), (0.010, 0.006, 0.051), 0.025333)
        assert got == frozenset({1, 2})

    def test_hochberg_matches_direct_step_up_enumeration(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 6))
            p = rng.uniform(0, 1, n).round(3)
            level = float(rng.uniform(0.01, 0.3))
            got = rejects(proc.hochberg(), tuple(p), level)
            best = 0
            for i in range(1, n + 1):
                if sorted(p)[i - 1] <= level / (n - i + 1):
                    best = i
            expect = frozenset(
                k + 1 for k in sorted(range(n), key=lambda k: (p[k], k))[:best]
            )
            assert got == expect

    @pytest.mark.parametrize("kind_spec", [
        proc.bonferroni(),
        proc.holm(),
        proc.truncated_holm(0.5),
        proc.hochberg(),
        proc.truncated_hochberg(0.5),
        proc.fixed_sequence(["A", "B", "C"]),
    ])
    def test_level_zero_rejects_nothing(self, kind_spec):
        got = rejects(kind_spec, (0.0, 0.0, 0.0), 0.0, labels=("A", "B", "C"))
        assert got == frozenset()

    def test_zero_weight_never_rejects(self):
        got = rejects(proc.bonferroni(weights=(1.0, 0.0)), (0.04, 0.0), 0.05)
        assert got == frozenset({1})

    def test_equal_weight_holm_thresholds(self):
        # classic step-down: L/3, then L/2, then L
        assert rejects(proc.holm(), (0.016, 0.024, 0.05), 0.05) == {1, 2, 3}
        assert rejects(proc.holm(), (0.016, 0.03, 0.06), 0.05) == {1}
        assert rejects(proc.holm(), (0.017, 0.018, 0.02), 0.05) == frozenset()

    def test_weighted_holm_renormalizes(self):
        # reject H1 at 0.7*L, then H2 is tested at its renormalized share 1.0;
        # without renormalization 0.045 > 0.3 * 0.05 would fail
        got = rejects(proc.holm(weights=(0.7, 0.3)), (0.03, 0.045), 0.05)
        assert got == {1, 2}
        # smallest weight-adjusted p goes first even if its index is larger
        got = rejects(proc.holm(weights=(0.7, 0.3)), (0.04, 0.01), 0.05)
        assert got == {1, 2}

    def test_boundary_p_equal_to_threshold_rejects(self):
        assert rejects(proc.bonferroni(), (0.025,), 0.025) == {1}
        assert rejects(proc.fixed_sequence(["A"]), (0.025,), 0.025, labels=("A",)) == {1}

    def test_ties_processed_by_ascending_index(self):
        # both tie at the i=2 hochberg threshold L/2; the stable order
        # rejects the two smallest sorted entries, i.e. both tied ones
        got = rejects(proc.hochberg(), (0.02, 0.02, 0.9), 0.04)
        assert got == {1, 2}

    def test_holm_subset_of_hochberg(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 6))
            p = tuple(rng.uniform(0, 0.4, n))
            level = float(rng.uniform(0.01, 0.2))
            assert rejects(proc.holm(), p, level) <= rejects(proc.hochberg(), p, level)


class TestInputErrors:
    def test_weight_arity_mismatch(self):
        with pytest.raises(ValueError, match="weights for"):
            rejects(proc.bonferroni(weights=(0.5, 0.5)), (0.01, 0.02, 0.03), 0.05)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            rejects(proc.holm(), (0.01, 1.2), 0.05)

    def test_level_out_of_range(self):
        with pytest.raises(ValueError, match="level"):
            rejects(proc.holm(), (0.01,), 1.5)

    def test_order_not_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            rejects(
                proc.fixed_sequence(["A", "B"]),
                (0.01, 0.02),
                0.05,
                labels=("A", "C"),
            )

    def test_gamma_outside_range(self):
        with pytest.raises(ValueError, match="gamma"):
            rejects(proc.truncated_holm(1.0), (0.01,), 0.05)

    def test_truncated_kinds_refuse_weights(self):
        bad = gk.LocalProcedureSpec("truncated_holm", gamma=0.5, weights=(0.5, 0.5))
        with pytest.raises(ValueError, match="does not support weights"):
            rejects(bad, (0.01, 0.02), 0.05)

    @pytest.mark.parametrize("make", [proc.bonferroni, proc.holm])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weights_refused(self, make, bad):
        # NaN slips past every `<` and `>` check, so it needs its own
        with pytest.raises(ValueError, match="non-finite weight"):
            rejects(make(weights=(bad, 1.0)), (0.01, 0.02), 0.05)
        assert "non-finite weight" in proc.check_procedure(
            make(weights=(0.5, bad, 0.5)), 3
        )

    def test_gamma_refused_outside_truncated_kinds(self):
        bad = gk.LocalProcedureSpec("holm", gamma=0.5)
        with pytest.raises(ValueError, match="does not take gamma"):
            rejects(bad, (0.01, 0.02), 0.05)


class TestErrorRateBound:
    def test_holm_nonempty_is_full_level(self):
        assert error_rate_bound(proc.holm(), {1}, 3, 0.037) == 0.037
        assert error_rate_bound(proc.fixed_sequence(["A"]), {1}, 1, 0.02) == 0.02
        assert error_rate_bound(proc.hochberg(), {2, 3}, 3, 0.05) == 0.05

    def test_bonferroni_single_hypothesis_consumes_everything(self):
        # an accepted singleton family keeps its whole level: nothing transfers
        assert error_rate_bound(proc.bonferroni(), {1}, 1, 0.025) == 0.025

    @pytest.mark.parametrize("kind_spec, n", [
        (proc.bonferroni(), 4),
        (proc.holm(), 4),
        (proc.truncated_holm(0.3), 4),
        (proc.hochberg(), 4),
        (proc.truncated_hochberg(0.8), 4),
        (proc.fixed_sequence(["A", "B", "C", "D"]), 4),
    ])
    def test_empty_set_is_zero(self, kind_spec, n):
        assert error_rate_bound(kind_spec, frozenset(), n, 0.05) == 0.0

    def test_truncated_hochberg_formula(self):
        got = error_rate_bound(proc.truncated_hochberg(0.5), {2}, 3, 0.037)
        assert got == pytest.approx((0.5 + 0.5 / 3) * 0.037, abs=1e-15)
        assert got == pytest.approx(0.0246667, abs=5e-8)

    def test_bonferroni_partial(self):
        got = error_rate_bound(proc.bonferroni(), {1, 3}, 4, 0.08)
        assert got == pytest.approx(0.08 * 2 / 4, abs=1e-15)

    def test_out_of_range_accepted_set(self):
        with pytest.raises(ValueError, match="within"):
            error_rate_bound(proc.holm(), {0}, 3, 0.05)
        with pytest.raises(ValueError, match="within"):
            error_rate_bound(proc.holm(), {4}, 3, 0.05)

    def test_range_and_empty_properties(self, rng):
        kinds = [
            proc.bonferroni(), proc.holm(), proc.hochberg(),
            proc.truncated_holm(0.0), proc.truncated_holm(0.9),
            proc.truncated_hochberg(0.4),
        ]
        for _ in range(200):
            n = int(rng.integers(1, 7))
            level = float(rng.uniform(0, 1))
            members = [k + 1 for k in range(n) if rng.random() < 0.5]
            for kind_spec in kinds:
                if kind_spec.kind == "fixed_sequence":
                    continue
                e = error_rate_bound(kind_spec, members, n, level)
                assert 0.0 <= e <= level
                assert error_rate_bound(kind_spec, (), n, level) == 0.0

    def test_separability_of_transfer_friendly_kinds(self, rng):
        # strict e* < level whenever something is accepted but not everything
        for _ in range(100):
            n = int(rng.integers(2, 7))
            level = float(rng.uniform(0.01, 1))
            size = int(rng.integers(1, n))
            members = list(rng.choice(n, size=size, replace=False) + 1)
            w = rng.dirichlet(np.ones(n))
            for kind_spec in [
                proc.bonferroni(),
                proc.bonferroni(weights=tuple(float(x) for x in w)),
                proc.truncated_holm(float(rng.uniform(0, 0.99))),
                proc.truncated_hochberg(float(rng.uniform(0, 0.99))),
            ]:
                assert error_rate_bound(kind_spec, members, n, level) < level


# Brute-force closure oracle: Holm's step-down must equal closed testing
# with Bonferroni intersection tests.

def closed_bonferroni(p, level):
    n = len(p)
    out = set()
    for k in range(n):
        all_rejected = True
        for m in range(1, n + 1):
            for subset in combinations(range(n), m):
                if k not in subset:
                    continue
                if not any(p[j] <= level / len(subset) for j in subset):
                    all_rejected = False
                    break
            if not all_rejected:
                break
        if all_rejected:
            out.add(k + 1)
    return frozenset(out)


class TestAgainstBruteForce:
    def test_holm_equals_closed_testing(self, rng):
        for _ in range(600):
            n = int(rng.integers(1, 5))
            p = tuple(float(x) for x in rng.uniform(0, 0.5, n).round(4))
            level = float(rng.uniform(0.01, 0.4))
            assert rejects(proc.holm(), p, level) == closed_bonferroni(p, level)


dyadic = st.integers(0, 1024).map(lambda k: k / 1024.0)


@st.composite
def scaled_case(draw):
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(proc.KINDS))
    labels = tuple(f"H{k}" for k in range(n))
    if kind in ("truncated_holm", "truncated_hochberg"):
        spec = gk.LocalProcedureSpec(kind, gamma=draw(st.integers(0, 15)) / 16.0)
    elif kind == "fixed_sequence":
        spec = proc.fixed_sequence(draw(st.permutations(list(labels))))
    else:
        spec = gk.LocalProcedureSpec(kind)
    p = tuple(draw(dyadic) for _ in range(n))
    scale = draw(st.sampled_from([0.5, 0.25, 0.125, 0.0625]))
    return spec, labels, p, scale


class TestScaleEquivariance:
    @given(scaled_case())
    @settings(max_examples=300, deadline=None)
    def test_threshold_linearity_in_level(self, case):
        # dyadic scales keep every comparison exact in floating point
        spec, labels, p, scale = case
        scaled_p = tuple(x * scale for x in p)
        at_scale = run_local_test(spec, FamilyTestInput(scaled_p, scale, labels))
        at_one = run_local_test(spec, FamilyTestInput(p, 1.0, labels))
        assert at_scale == at_one


class TestLocalFwerControl:
    @pytest.mark.parametrize("kind_spec", [
        proc.bonferroni(),
        proc.holm(),
        proc.truncated_holm(0.5),
        proc.hochberg(),
        proc.truncated_hochberg(0.5),
        proc.fixed_sequence(["A", "B", "C", "D"]),
    ], ids=lambda s: s.kind)
    @pytest.mark.parametrize("n_true", [4, 2])
    def test_family_level_fwer(self, kind_spec, n_true):
        # independent uniform true nulls, near-zero false nulls
        level = 0.1
        reps = 4000
        n = 4
        labels = ("A", "B", "C", "D")
        rng = np.random.default_rng(hash((kind_spec.kind, n_true)) % 2**32)
        hits = 0
        for _ in range(reps):
            p = np.where(
                np.arange(n) < n_true, rng.uniform(0, 1, n), 1e-6
            )
            got = run_local_test(kind_spec, FamilyTestInput(tuple(p), level, labels))
            if any(k <= n_true for k in got):
                hits += 1
        fwer_hat = hits / reps
        se = np.sqrt(max(fwer_hat * (1 - fwer_hat), 1e-9) / reps)
        assert fwer_hat <= level + 3 * se
