"""Exact ties: p-values on the lattice of thresholds a procedure produces.

Continuous random p-values almost never equal a threshold, so they cannot
show a path that computes a threshold one ulp off. Here every p-value is a
threshold its hypothesis can be compared with at the level its family
actually receives, or a neighbour one ulp away (or 1). Under the `<=`
convention a tie then decides the outcome, and the scalar engine,
`batch_run` and the hypothesis-level twins must still agree row by row.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

import gatekeep as gk
from gatekeep import hypgraph, mcsim
from gatekeep import procedures as proc
from gatekeep.engine import initial_state, step

from conftest import every_form, exact_spec, fold, rejected_labels

SIZES = range(1, 10)
ROWS_PER_SPEC = 10


def thresholds(procedure: gk.LocalProcedureSpec, n: int, level: float, rng) -> list[list[float]]:
    """For each position of a family of size `n` tested at `level`, the
    thresholds `procedures.test_family` can compare its p-value with,
    computed with the same float expressions."""
    kind = procedure.kind
    if kind == "fixed_sequence":
        return [[level]] * n
    if kind == "hochberg" or kind == "holm" and len(set(procedure.weights or ())) <= 1:
        return [[level / (n - i + 1) for i in range(1, n + 1)]] * n  # by rank
    if kind in ("truncated_holm", "truncated_hochberg"):
        g = procedure.gamma
        return [[(g / (n - i + 1) + (1.0 - g) / n) * level for i in range(1, n + 1)]] * n
    w = procedure.weights or tuple(1.0 / n for _ in range(n))
    if kind == "bonferroni":
        return [[w[k] * level] for k in range(n)]
    # Weighted Holm: w[k] / (weight still in play) * level, along one
    # random rejection path; the first step is the tie that needs an exact sum.
    out: list[list[float]] = [[] for _ in range(n)]
    remaining = list(range(n))
    while remaining:
        total = fold(w[k] for k in remaining)
        for k in remaining:
            out[k].append(w[k] / total * level)
        remaining.remove(remaining[int(rng.integers(len(remaining)))])
    return out


def lattice_point(candidates: list[float], rng, lowest: float) -> float:
    if rng.random() < 0.15:
        return 1.0
    t = candidates[int(rng.integers(len(candidates)))]
    nudge = rng.choice([-1, 0, 0, 1])
    return float(min(max(np.nextafter(t, nudge * math.inf) if nudge else t, lowest), 1.0))


def lattice_pvalues(spec: gk.GraphSpec, rng, lowest: float = 0.0) -> dict[str, float]:
    """One p-vector, family by family: each family's lattice is built at the
    level the engine hands it, given the p-values already drawn. No p-value
    is below `lowest`."""
    pvalues: dict[str, float] = {}
    state = initial_state(spec)
    for fam in spec.families():
        level = state.current_alpha[fam.name]
        per_position = thresholds(fam.procedure, fam.size, level, rng)
        for label, candidates in zip(fam.labels, per_position):
            pvalues[label] = lattice_point(candidates, rng, lowest)
        _, state = step(spec, state, fam.name, pvalues)
    return pvalues


def forms(kind: str) -> range:
    """Which of `every_form`'s procedures to test: for Bonferroni and Holm,
    unequal and default weights."""
    return range(2 if kind in ("bonferroni", "holm") else 1)


def two_layer_spec(kind: str, n: int, rng, form: int = 0) -> gk.GraphSpec:
    """F1 (kind, n) at its own level passes to F2 (kind, n), so the kind is
    also tested at a level built from a transfer; both take the `form`-th
    procedure of `every_form`."""
    first = [f"A{k}" for k in range(n)]
    second = [f"B{k}" for k in range(n)]
    return gk.make_spec(
        0.05,
        [
            [("F1", first, 0.03, every_form(kind, first, rng)[form])],
            [("F2", second, 0.02, every_form(kind, second, rng)[form])],
        ],
        {("F1", "F2"): float(rng.choice([1.0, 0.7]))},
    )


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", proc.KINDS)
def test_engine_and_batch_agree_on_the_lattice(kind, n):
    rng = np.random.default_rng([proc.KINDS.index(kind), n])
    # A weighted kind needs many weight vectors: few make a sum's rounding
    # depend on the order of its terms.
    for form in forms(kind):
        for _ in range(20 if kind in ("bonferroni", "holm") else 6):
            spec = two_layer_spec(kind, n, rng, form)
            labels = spec.labels()
            rows = [lattice_pvalues(spec, rng) for _ in range(ROWS_PER_SPEC)]
            batch = mcsim.batch_run(spec, np.array([[p[l] for l in labels] for p in rows]))
            for p, batch_row in zip(rows, batch):
                report = gk.run(spec, p)
                expected = [report.decisions[l] == "S" for l in labels]
                assert list(batch_row) == expected, (spec, p)


def bound(procedure: gk.LocalProcedureSpec, accepted: list[int], n: int, level: float) -> float:
    """e*(A) for the 1-based indices `accepted`, written out (Dmitrienko,
    Tamhane & Wiens 2008), capped at `level`; a family that accepts every
    hypothesis spends its whole level."""
    if not accepted:
        return 0.0
    if len(accepted) == n:
        return level
    kind = procedure.kind
    if kind == "bonferroni":
        w = procedure.weights or tuple(1.0 / n for _ in range(n))
        e = level * fold(w[k - 1] for k in sorted(accepted))
    elif kind in ("truncated_holm", "truncated_hochberg"):
        g = procedure.gamma
        e = (g + (1.0 - g) * len(accepted) / n) * level
    else:
        e = level
    return min(e, level)


def passed_on(procedure: gk.LocalProcedureSpec, accepted: list[int], n: int, level: float) -> float:
    """The level a family passes on, written out from its rejected set R
    (the complement of `accepted`) and capped at `level`: level * w(R) for
    Bonferroni, (1 - gamma) * |R| / n * level for the truncated kinds, and
    0 otherwise; a family that accepts nothing passes its whole level."""
    if not accepted:
        return level
    kind = procedure.kind
    if kind == "bonferroni":
        w = procedure.weights or tuple(1.0 / n for _ in range(n))
        spare = level * fold(w[k - 1] for k in range(1, n + 1) if k not in accepted)
    elif kind in ("truncated_holm", "truncated_hochberg"):
        spare = (1.0 - procedure.gamma) * (n - len(accepted)) / n * level
    else:
        spare = 0.0
    return min(spare, level)


def kernel_thresholds(kernel, n: int, level: float, rng) -> list[list[float]]:
    """The kernel's thresholds laid out as `thresholds` lays out its own,
    along the same random Holm path when given the same `rng` state."""
    if kernel.kind == "fixed_sequence":
        return [[kernel.threshold(level)]] * n
    if kernel.by_rank:  # Hochberg, the truncated kinds and equal-weight Holm
        return [kernel.rank_thresholds(level)] * n
    w = kernel.weights
    if kernel.kind == "bonferroni":
        return [[kernel.threshold(level, weight=w[k])] for k in range(n)]
    out: list[list[float]] = [[] for _ in range(n)]
    remaining = list(range(n))
    while remaining:
        total = fold(w[k] for k in remaining)
        for k in remaining:
            out[k].append(kernel.threshold(level, len(remaining), w[k], total))
        remaining.remove(remaining[int(rng.integers(len(remaining)))])
    return out


def hexes(values) -> list:
    return [hexes(v) if isinstance(v, list) else float.hex(v) for v in values]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", proc.KINDS)
def test_kernel_formulas_match_the_reference(kind, n):
    # The engine and batch_run share the kernel, so their agreement cannot
    # catch a formula that is wrong in the last bit; this pins it, bit for
    # bit, at a family's own level (F1) and at one built from a transfer (F2).
    rng = np.random.default_rng([proc.KINDS.index(kind), n, 1])
    subsets = [
        [k for k in range(1, n + 1) if mask >> (k - 1) & 1] for mask in range(1 << n)
    ]
    for form in forms(kind):
        for _ in range(6):
            spec = two_layer_spec(kind, n, rng, form)
            report = gk.run(spec, lattice_pvalues(spec, rng))
            for fam, outcome in zip(spec.families(), report.outcomes):
                kernel, level = spec.plan.kernels[fam.name], outcome.level_used
                seed = int(rng.integers(1 << 32))
                expected = thresholds(fam.procedure, n, level, np.random.default_rng(seed))
                got = kernel_thresholds(kernel, n, level, np.random.default_rng(seed))
                assert hexes(got) == hexes(expected), (fam.procedure, level)
                for a in subsets:
                    expected_e = bound(fam.procedure, a, n, level)
                    flags = [k in a for k in range(1, n + 1)]
                    e_star, spare = kernel.bound(level, flags)
                    assert float.hex(e_star) == float.hex(expected_e), (a, level)
                    expected_spare = passed_on(fam.procedure, a, n, level)
                    assert float.hex(spare) == float.hex(expected_spare), (a, level)


def twins(rng):
    yield hypgraph.bonferroni_gate_pair(0.05)
    yield hypgraph.serial_holm_gate_single(0.025)
    for w1 in (0.5, 0.3, float(rng.uniform(0.05, 0.95))):
        yield hypgraph.serial_holm_gate_weighted_pair(0.05, w1, 1.0 - w1)
    for gamma in (0.0, 0.25, 0.5, 0.75):
        yield hypgraph.truncated_holm_gate(0.05, gamma)


def test_hypothesis_twins_agree_on_the_lattice():
    # p = 0 is left out: an infinitesimal weight rejects it by design (see
    # hypgraph's docstring), while a family at level 0 rejects nothing.
    rng = np.random.default_rng(2009)
    for graph, spec in twins(rng):
        for _ in range(200):
            p = lattice_pvalues(spec, rng, lowest=np.nextafter(0.0, 1.0))
            engine = frozenset(l for l, d in gk.run(spec, p).decisions.items() if d == "S")
            assert gk.run_hypothesis_graph(graph, p) == engine, (graph, p)


def kernel_pairs(kind: str, rng):
    """Kernels of `kind` for every size, each with its twin resolved from
    the `exact_spec` spec; Bonferroni and Holm both with unequal and with
    default weights."""
    for n in SIZES:
        labels = [f"H{k}" for k in range(n)]
        for procedure in every_form(kind, labels, rng):
            spec = gk.make_spec(0.05, [[("F", labels, 0.05, procedure)]])
            yield spec.plan.kernels["F"], exact_spec(spec).plan.kernels["F"]


@pytest.mark.parametrize("kind", proc.KINDS)
def test_kernel_rules_stay_exact_on_fractions(kind):
    # One float literal in a rule (a fold from 0.0, 1.0 - gamma, a cut
    # from -1.0) turns a Fraction into a float.
    rng = np.random.default_rng([proc.KINDS.index(kind), 22])
    for _, kernel in kernel_pairs(kind, rng):
        n = kernel.n
        level = Fraction(float(rng.uniform(0.001, 0.2)))
        p = sorted(Fraction(float(x)) for x in rng.uniform(0.0, 0.1, n))
        masks = [[bool(m >> k & 1) for k in range(n)] for m in range(1 << n)]
        values = [v for flags in masks for v in kernel.bound(level, flags)]  # e* and spare
        if kernel.kind == "fixed_sequence":
            values.append(kernel.threshold(level))
        if kernel.weights is not None:
            flags = [bool(f) for f in rng.integers(0, 2, n)]
            flags[0] = True
            total = kernel.weight_in(flags)
            values += [total] + [kernel.threshold(level, None, w, total) for w in kernel.weights]
        if kernel.by_rank:
            values += kernel.rank_thresholds(level) + [kernel.rank_cut(p, level)]
        assert all(type(v) is Fraction for v in values), (kernel, values)


@pytest.mark.parametrize("kind", proc.KINDS)
def test_spare_is_within_3_ulps_of_the_exact_rule(kind):
    # The level passed on is written from the rejected set, so no float
    # subtraction cancels: level - e*, with e* close to the level, is up to
    # 130 ulps off on these draws.
    rng = np.random.default_rng([proc.KINDS.index(kind), 25])
    for _ in range(4):
        for kernel, exact in kernel_pairs(kind, rng):
            n = kernel.n
            for _ in range(50 if n > 1 else 0):
                level = float(rng.uniform(0.001, 1.0))
                count = int(rng.integers(1, n))
                flags = [k < count for k in rng.permutation(n)]
                spare = kernel.bound(level, flags)[1]
                want = exact.bound(Fraction(level), flags)[1]
                assert abs(Fraction(spare) - want) <= 3 * Fraction(math.ulp(want)), (
                    kernel, level, flags, spare, float(want)
                )


def exact_graph(graph: hypgraph.HypothesisGraph) -> hypgraph.HypothesisGraph:
    """`graph` with `Fraction(x)` for every number."""
    return graph._replace(
        alpha=Fraction(graph.alpha),
        weights=tuple(map(Fraction, graph.weights)),
        transitions=tuple(tuple(map(Fraction, row)) for row in graph.transitions),
    )


def test_exact_engine_agrees_with_the_oracle_on_the_lattice():
    # Both forms run each twin's own numbers as rationals, so no float chain
    # can split them at a tie. The lattice sits on the float engine's
    # thresholds, where exact decisions may differ from float ones.
    rng = np.random.default_rng(2022)
    for graph, spec in twins(rng):
        exact, oracle = exact_spec(spec), exact_graph(graph)
        for _ in range(200):
            p = lattice_pvalues(spec, rng, lowest=np.nextafter(0.0, 1.0))
            engine = rejected_labels(gk.run(exact, p))
            assert gk.run_hypothesis_graph(oracle, p) == engine, (graph, p)
