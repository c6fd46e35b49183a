"""Unit and property tests for the six local procedures and e* bounds."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gatekeep as gk
from gatekeep import mcsim
from gatekeep import procedures as proc
from gatekeep.procedures import FamilyTestInput, error_rate_bound
from gatekeep.procedures import test_family as run_local_test

from conftest import fold


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
        # At level 0 every threshold is 0, and the rules' zero-threshold
        # check rejects nothing, in test_family and in both engines.
        kernel = proc.Kernel.of(kind_spec, 3, ("A", "B", "C"))
        assert kernel.test((0.0, 0.0, 0.0), 0.0) == [False] * 3
        spec = gk.make_spec(0.05, [[("F", ["A", "B", "C"], 0.0, kind_spec)]])
        assert not mcsim.batch_run(spec, np.zeros((4, 3))).any()

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
        for level, rows in holm_lattice():
            for p in rows:
                assert rejects(proc.holm(), p, level) <= rejects(proc.hochberg(), p, level), (p, level)
        assert rejects(proc.holm(), *FOLD_TIE) == rejects(proc.hochberg(), *FOLD_TIE) == set()


class TestInputErrors:
    def test_weight_arity_mismatch(self):
        with pytest.raises(ValueError, match="weights for"):
            rejects(proc.bonferroni(weights=(0.5, 0.5)), (0.01, 0.02, 0.03), 0.05)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            rejects(proc.holm(), (0.01, 1.2), 0.05)

    @pytest.mark.parametrize("bad", [None, "0.5", [0.5]])
    def test_p_that_is_not_a_number(self, bad):
        with pytest.raises(ValueError, match="at position 2 outside"):
            rejects(proc.holm(), (0.01, bad), 0.05)

    def test_level_out_of_range(self):
        with pytest.raises(ValueError, match="level"):
            rejects(proc.holm(), (0.01,), 1.5)

    @pytest.mark.parametrize("bad", [None, "0.05", [0.05]])
    def test_level_that_is_not_a_number(self, bad):
        with pytest.raises(ValueError, match=r"^level .* outside \[0, 1\]$"):
            rejects(proc.holm(), (0.01, 0.5), bad)

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

    @pytest.mark.parametrize("bad", [None, "0.5", [0.5]])
    def test_gamma_that_is_not_a_number(self, bad):
        spec = gk.LocalProcedureSpec("truncated_hochberg", gamma=bad)
        problems = proc.check_procedure(spec, 2)
        assert problems == (["truncated_hochberg requires gamma"] if bad is None
                            else [f"gamma {bad!r} outside [0, 1)"])
        with pytest.raises(ValueError, match="gamma"):
            rejects(spec, (0.01, 0.02), 0.05)

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

    @pytest.mark.parametrize("kind", ["bonferroni", "holm"])
    @pytest.mark.parametrize("bad", [None, "0.5"])
    def test_weight_that_is_not_a_number(self, kind, bad):
        spec = gk.LocalProcedureSpec(kind, weights=(bad, 1.0))
        assert proc.check_procedure(spec, 2) == ["non-finite weight"]
        with pytest.raises(ValueError, match="^non-finite weight$"):
            rejects(spec, (0.01, 0.02), 0.05)

    def test_gamma_refused_outside_truncated_kinds(self):
        bad = gk.LocalProcedureSpec("holm", gamma=0.5)
        with pytest.raises(ValueError, match="does not take gamma"):
            rejects(bad, (0.01, 0.02), 0.05)

    @pytest.mark.parametrize("bad, message", [
        (gk.LocalProcedureSpec("bogus"), "unknown procedure kind 'bogus'"),
        (gk.LocalProcedureSpec("fixed_sequence"), "fixed_sequence requires an order"),
        (gk.LocalProcedureSpec("holm", order=("A", "B")), "holm does not take an order"),
    ])
    def test_procedure_problem_named_by_both_entry_points(self, bad, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            rejects(bad, (0.01, 0.02), 0.05, labels=("A", "B"))
        with pytest.raises(ValueError, match=f"^{message}$"):
            error_rate_bound(bad, {1}, 2, 0.05)

    def test_fixed_sequence_needs_labels_to_test(self):
        with pytest.raises(ValueError, match="needs the family's hypothesis labels"):
            rejects(proc.fixed_sequence(["A", "B"]), (0.01, 0.02), 0.05)
        with pytest.raises(ValueError, match="needs the family's hypothesis labels"):
            rejects(proc.fixed_sequence(["A", "B"]), (0.01, 0.02), 0.0)  # level 0 too

    @pytest.mark.parametrize("kind_spec", [
        proc.bonferroni(),
        proc.holm(),
        proc.truncated_holm(0.5),
        proc.hochberg(),
        proc.truncated_hochberg(0.5),
        proc.fixed_sequence(["a", "b"]),
    ])
    @pytest.mark.parametrize("pvalues, labels, message", [
        ((0.01,), ("a", "b"), "2 labels for 1 p-values"),
        ((0.01, 0.02), ("a",), "1 labels for 2 p-values"),
    ])
    def test_labels_of_another_length_refused(self, kind_spec, pvalues, labels, message):
        if kind_spec.kind == "fixed_sequence":
            kind_spec = proc.fixed_sequence(labels)
        with pytest.raises(ValueError, match=f"^{message}$"):
            rejects(kind_spec, pvalues, 0.05, labels=labels)


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

    @pytest.mark.parametrize("bad", [None, 1.0, "1"])
    def test_accepted_entry_that_is_not_an_integer(self, bad):
        with pytest.raises(ValueError, match="holds a non-integer"):
            error_rate_bound(proc.bonferroni(), [2, bad], 3, 0.05)

    @pytest.mark.parametrize("level", [1.5, -0.01, float("nan"), None, "0.05"])
    def test_level_outside_unit_interval(self, level):
        with pytest.raises(ValueError, match=r"^level .* outside \[0, 1\]$"):
            error_rate_bound(proc.holm(), {1}, 3, level)

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


# Equal-weight Holm at exact ties: p-values on the thresholds it could be
# compared with, `level / m` and `w / total * level` with `total` an
# in-order fold of m weights `1.0 / n`, one ulp either side of each, and 1.

HOLM_LATTICE_SEEDS = (16, 27, 38)

# At level 0.05, the fold puts the first of five thresholds at
# 0.2 / 1.0 * 0.05, one ulp above 0.05 / 5, where p1 sits: a fold-based Holm
# rejects H1, while the closed test and Hochberg reject nothing.
FOLD_TIE = ((0.010000000000000002, 0.013333333333333334, 0.05000000000000001, 0.04, 0.025), 0.05)


def holm_lattice():
    """(level, rows): 40 lattice p-vectors at each of four levels per size
    from 2 to 6 and seed, then `FOLD_TIE`."""
    for seed in HOLM_LATTICE_SEEDS:
        rng = np.random.default_rng(seed)
        for n in range(2, 7):
            w = 1.0 / n
            for level in [0.05] + [float(x) for x in rng.uniform(0.01, 0.4, 3)]:
                points = [1.0]
                for m in range(1, n + 1):
                    for t in {level / m, w / fold([w] * m) * level}:
                        points += [float(np.nextafter(t, -np.inf)), t, float(np.nextafter(t, np.inf))]
                yield level, [tuple(points[i] for i in rng.integers(len(points), size=n)) for _ in range(40)]
    yield FOLD_TIE[1], [FOLD_TIE[0]]


# Truncated Holm and truncated Hochberg written out (Dmitrienko, Tamhane &
# Wiens 2008), with the threshold at `rest` hypotheses in play computed by
# the same float expression as the kernel, so that exact ties decide alike.

def truncated_threshold(gamma, rest, n, level):
    return (gamma / rest + (1.0 - gamma) / n) * level


def truncated_holm_walk(p, gamma, level):
    # One hypothesis at a time: the smallest p-value left against the
    # threshold at the count still in play, stopping at the first failure.
    n = len(p)
    rejected = set()
    for k in sorted(range(n), key=lambda k: (p[k], k)):
        thr = truncated_threshold(gamma, n - len(rejected), n, level)
        if not (thr > 0.0 and p[k] <= thr):
            break
        rejected.add(k + 1)
    return frozenset(rejected)


def truncated_hochberg_enumeration(p, gamma, level):
    # The largest rank i whose p-value clears the threshold at n - i + 1
    # in play; the i smallest p-values are rejected.
    n = len(p)
    best = 0
    for i in range(1, n + 1):
        thr = truncated_threshold(gamma, n - i + 1, n, level)
        if thr > 0.0 and sorted(p)[i - 1] <= thr:
            best = i
    return frozenset(k + 1 for k in sorted(range(n), key=lambda k: (p[k], k))[:best])


def truncated_lattice(rng, gamma, n, level, rows):
    """`rows` p-vectors drawn from the family's thresholds, one ulp either
    side of each, and 1, with repeats: p-values tie with thresholds and with
    each other."""
    points = [1.0]
    for rest in range(1, n + 1):
        t = truncated_threshold(gamma, rest, n, level)
        points += [float(np.nextafter(t, -np.inf)), t, float(np.nextafter(t, np.inf))]
    return [tuple(points[i] for i in rng.integers(len(points), size=n)) for _ in range(rows)]


# Bonferroni and weighted Holm written out: one hypothesis at a time, any
# hypothesis in play that clears w_k / total * level (w_k * level for
# Bonferroni) is rejected, until none does. The weight in play is folded in
# index order, as the kernel folds it, so that exact ties decide alike; with
# only zero weights in play, nothing clears.

def weighted_threshold(kind, w, k, in_play, level):
    if kind == "bonferroni":
        return w[k] * level
    total = fold(w[j] for j in sorted(in_play))
    return w[k] / total * level if total > 0.0 else 0.0


def weighted_walk(kind, p, w, level):
    in_play = set(range(len(p)))
    while True:
        for k in sorted(in_play):
            thr = weighted_threshold(kind, w, k, in_play, level)
            if thr > 0.0 and p[k] <= thr:
                in_play.remove(k)
                break
        else:
            return frozenset(k + 1 for k in range(len(p)) if k not in in_play)


def rounds_that_clear(kind, p, w, level):
    """How many rounds of simultaneous rejections reach the walk's end."""
    in_play, rounds = set(range(len(p))), 0
    while True:
        thr = {k: weighted_threshold(kind, w, k, in_play, level) for k in in_play}
        cleared = {k for k in in_play if thr[k] > 0.0 and p[k] <= thr[k]}
        if not cleared:
            return rounds
        in_play -= cleared
        rounds += 1


def unequal_weights(rng, n):
    """Nonnegative weights summing to 1, not all equal, about a third of
    them 0 (sometimes all but one)."""
    while True:
        raw = rng.uniform(0.05, 1.0, n) * (rng.random(n) > 0.35)
        if raw.any():
            w = [float(x) for x in raw / raw.sum()]
            if n == 1 or len(set(w)) > 1:
                return tuple(w)


def weighted_lattice(rng, kind, w, level, rows):
    """`rows` p-vectors: each position draws its threshold at some set in
    play that holds it, one ulp either side of that, 0 or 1."""
    n = len(w)
    points = []
    for k in range(n):
        own = [0.0, 1.0]
        for mask in range(1 << n):
            if mask >> k & 1:
                t = weighted_threshold(kind, w, k, {j for j in range(n) if mask >> j & 1}, level)
                below = max(float(np.nextafter(t, -np.inf)), 0.0)
                own += [below, t, float(np.nextafter(t, np.inf))]
        points.append(own)
    return [tuple(own[rng.integers(len(own))] for own in points) for _ in range(rows)]


class TestAgainstBruteForce:
    def test_holm_equals_closed_testing(self, rng):
        for _ in range(600):
            n = int(rng.integers(1, 5))
            p = tuple(float(x) for x in rng.uniform(0, 0.5, n).round(4))
            level = float(rng.uniform(0.01, 0.4))
            assert rejects(proc.holm(), p, level) == closed_bonferroni(p, level)
        for level, rows in holm_lattice():
            labels = [f"H{k}" for k in range(1, len(rows[0]) + 1)]
            spec = gk.make_spec(level, [[("F1", labels, level, proc.holm())]])
            batch = mcsim.batch_run(spec, np.array(rows))
            for p, batch_row in zip(rows, batch):
                expect = closed_bonferroni(p, level)
                assert rejects(proc.holm(), p, level) == expect, (p, level)
                assert {k + 1 for k in np.flatnonzero(batch_row)} == expect, (p, level)

    @pytest.mark.parametrize("kind, reference", [
        ("truncated_holm", truncated_holm_walk),
        ("truncated_hochberg", truncated_hochberg_enumeration),
    ])
    def test_truncated_kinds_match_the_written_out_rule_on_the_lattice(self, rng, kind, reference):
        for _ in range(80):
            n = int(rng.integers(1, 7))
            gamma = float(rng.choice([0.0, float(rng.uniform(0.0, 1.0))]))
            level = float(rng.uniform(0.01, 0.5))
            procedure = gk.LocalProcedureSpec(kind, gamma=gamma)
            labels = [f"H{k}" for k in range(1, n + 1)]
            rows = truncated_lattice(rng, gamma, n, level, 12)
            spec = gk.make_spec(level, [[("F1", labels, level, procedure)]])
            batch = mcsim.batch_run(spec, np.array(rows))
            for p, batch_row in zip(rows, batch):
                expect = reference(p, gamma, level)
                assert rejects(procedure, p, level) == expect, (gamma, level, p)
                assert {k + 1 for k in np.flatnonzero(batch_row)} == expect, (gamma, level, p)

    @pytest.mark.parametrize("kind", ["bonferroni", "holm"])
    def test_weighted_kinds_match_the_written_out_walk_on_the_lattice(self, rng, kind):
        rounds = set()
        for _ in range(60):
            n = int(rng.integers(1, 7))
            w = unequal_weights(rng, n)
            level = float(rng.uniform(0.01, 0.5))
            procedure = gk.LocalProcedureSpec(kind, weights=w)
            labels = [f"H{k}" for k in range(1, n + 1)]
            rows = weighted_lattice(rng, kind, w, level, 12)
            spec = gk.make_spec(level, [[("F1", labels, level, procedure)]])
            batch = mcsim.batch_run(spec, np.array(rows))
            for p, batch_row in zip(rows, batch):
                expect = weighted_walk(kind, p, w, level)
                rounds.add(rounds_that_clear(kind, p, w, level))
                assert rejects(procedure, p, level) == expect, (w, level, p)
                assert {k + 1 for k in np.flatnonzero(batch_row)} == expect, (w, level, p)
                report = gk.run(spec, dict(zip(labels, map(np.float64, p))))
                assert {k for k, l in enumerate(labels, 1) if report.decisions[l] == "S"} == expect
        # Bonferroni settles in one round; Holm's rows need 0 to 3 or more.
        assert (rounds == {0, 1}) if kind == "bonferroni" else ({0, 1, 2, 3} <= rounds), rounds

    def test_one_batch_of_rows_that_need_different_numbers_of_rounds(self):
        # Weighted Holm with a zero weight: the fourth row clears H1, H2, H3
        # and H4 one round each and then holds only the zero weight in play.
        w, level = (0.4, 0.3, 0.2, 0.1, 0.0), 0.05
        procedure = proc.holm(w)

        def at(k, *in_play):
            return weighted_threshold("holm", w, k, set(in_play), level)

        def above(x):
            return float(np.nextafter(x, 1.0))

        rows = [
            (1.0, 1.0, 1.0, 1.0, 0.0),
            (at(0, 0, 1, 2, 3, 4), 1.0, 1.0, 1.0, 0.0),
            (at(0, 0, 1, 2, 3, 4), at(1, 1, 2, 3, 4), above(at(2, 2, 3, 4)), 0.5, 0.0),
            (at(0, 0, 1, 2, 3, 4), at(1, 1, 2, 3, 4), at(2, 2, 3, 4), at(3, 3, 4), 0.0),
            (1.0, 1.0, 1.0, 0.0, 0.0),
            (above(at(0, 0, 1, 2, 3, 4)), 1.0, 1.0, 1.0, 0.0),
        ]
        assert [rounds_that_clear("holm", p, w, level) for p in rows] == [0, 1, 2, 4, 1, 0]
        labels = ["H1", "H2", "H3", "H4", "H5"]
        spec = gk.make_spec(level, [[("F1", labels, level, procedure)]])
        batch = mcsim.batch_run(spec, np.array(rows))
        for p, batch_row in zip(rows, batch):
            expect = weighted_walk("holm", p, w, level)
            assert rejects(procedure, p, level) == expect, p
            assert {k + 1 for k in np.flatnonzero(batch_row)} == expect, p
        assert [sorted(weighted_walk("holm", p, w, level)) for p in rows] == [
            [], [1], [1, 2], [1, 2, 3, 4], [4], [],
        ]


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
        rng = np.random.default_rng([proc.KINDS.index(kind_spec.kind), n_true])
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
