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

from conftest import exact_spec, fold, rejected_labels

SIZES = range(1, 10)
ROWS_PER_SPEC = 10


def thresholds(procedure: gk.LocalProcedureSpec, n: int, level: float, rng) -> list[list[float]]:
    """For each position of a family of size `n` tested at `level`, the
    thresholds `procedures.test_family` can compare its p-value with,
    computed with the same float expressions."""
    kind = procedure.kind
    if kind == "fixed_sequence":
        return [[level]] * n
    if kind == "hochberg":
        return [[level / (n - i + 1) for i in range(1, n + 1)]] * n
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


def procedure_of(kind: str, labels: list[str], rng) -> gk.LocalProcedureSpec:
    n = len(labels)
    if kind in ("bonferroni", "holm"):
        raw = rng.uniform(0.05, 1.0, n)
        w = [float(x) for x in raw / raw.sum()]
        if abs(sum(w) - 1.0) > 1e-12:
            w[-1] = 1.0 - sum(w[:-1])
        return gk.LocalProcedureSpec(kind, weights=tuple(w))
    if kind in ("truncated_holm", "truncated_hochberg"):
        return gk.LocalProcedureSpec(kind, gamma=float(rng.uniform(0.0, 0.95)))
    if kind == "fixed_sequence":
        return proc.fixed_sequence([str(x) for x in rng.permutation(labels)])
    return gk.LocalProcedureSpec(kind)


def two_layer_spec(kind: str, n: int, rng) -> gk.GraphSpec:
    """F1 (kind, n) at its own level passes to F2 (kind, n), so the kind is
    also tested at a level built from a transfer."""
    first = [f"A{k}" for k in range(n)]
    second = [f"B{k}" for k in range(n)]
    return gk.make_spec(
        0.05,
        [
            [("F1", first, 0.03, procedure_of(kind, first, rng))],
            [("F2", second, 0.02, procedure_of(kind, second, rng))],
        ],
        {("F1", "F2"): float(rng.choice([1.0, 0.7]))},
    )


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", proc.KINDS)
def test_engine_and_batch_agree_on_the_lattice(kind, n):
    rng = np.random.default_rng([proc.KINDS.index(kind), n])
    # A weighted kind needs many weight vectors: few make a sum's rounding
    # depend on the order of its terms.
    for _ in range(20 if kind in ("bonferroni", "holm") else 6):
        spec = two_layer_spec(kind, n, rng)
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


def kernel_thresholds(kernel, n: int, level: float, rng) -> list[list[float]]:
    """The kernel's thresholds laid out as `thresholds` lays out its own,
    along the same random Holm path when given the same `rng` state."""
    if kernel.kind == "fixed_sequence":
        return [[kernel.threshold(level)]] * n
    if kernel.kind in ("hochberg", "truncated_holm", "truncated_hochberg"):
        return [[kernel.threshold(level, n - i + 1) for i in range(1, n + 1)]] * n
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
    for _ in range(6):
        spec = two_layer_spec(kind, n, rng)
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
                assert float.hex(kernel.bound(level, flags)) == float.hex(expected_e), (a, level)


def twins(rng):
    yield hypgraph.bonferroni_gate_pair(0.05)
    yield hypgraph.serial_holm_gate_single(0.025)
    for w1 in (0.5, 0.3, float(rng.uniform(0.05, 0.95))):
        yield hypgraph.serial_holm_gate_weighted_pair(0.05, w1, 1.0 - w1)
    # Only gamma = 0: for gamma > 0 the two forms reach the level passed on
    # by different float chains (level - e* against a product of weights),
    # which can differ in the last bit, so a tie can split them.
    yield hypgraph.truncated_holm_gate(0.05, 0.0)


def test_hypothesis_twins_agree_on_the_lattice():
    # p = 0 is left out: an infinitesimal weight rejects it by design (see
    # hypgraph's docstring), while a family at level 0 rejects nothing.
    rng = np.random.default_rng(2009)
    for graph, spec in twins(rng):
        for _ in range(200):
            p = lattice_pvalues(spec, rng, lowest=np.nextafter(0.0, 1.0))
            engine = frozenset(l for l, d in gk.run(spec, p).decisions.items() if d == "S")
            assert gk.run_hypothesis_graph(graph, p) == engine, (graph, p)


def exact_kernels(kind: str, rng):
    """Kernels of `kind` for every size, resolved from `exact_spec` specs;
    Bonferroni and Holm both with unequal and with default weights."""
    for n in SIZES:
        labels = [f"H{k}" for k in range(n)]
        procedures = [procedure_of(kind, labels, rng)]
        if kind in ("bonferroni", "holm"):
            procedures.append(gk.LocalProcedureSpec(kind))
        for procedure in procedures:
            spec = exact_spec(gk.make_spec(0.05, [[("F", labels, 0.05, procedure)]]))
            yield spec.plan.kernels["F"]


@pytest.mark.parametrize("kind", proc.KINDS)
def test_kernel_rules_stay_exact_on_fractions(kind):
    # One float literal in a rule (a fold from 0.0, 1.0 - gamma, a cut
    # from -1.0) turns a Fraction into a float.
    rng = np.random.default_rng([proc.KINDS.index(kind), 22])
    for kernel in exact_kernels(kind, rng):
        n = kernel.n
        level = Fraction(float(rng.uniform(0.001, 0.2)))
        p = sorted(Fraction(float(x)) for x in rng.uniform(0.0, 0.1, n))
        values = [kernel.bound(level, [bool(m >> k & 1) for k in range(n)]) for m in range(1 << n)]
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


def exact_graph(graph: hypgraph.HypothesisGraph) -> hypgraph.HypothesisGraph:
    """`graph` with `Fraction(x)` for every number."""
    return graph._replace(
        alpha=Fraction(graph.alpha),
        weights=tuple(map(Fraction, graph.weights)),
        transitions=tuple(tuple(map(Fraction, row)) for row in graph.transitions),
    )


def test_exact_engine_agrees_with_the_oracle_on_the_lattice():
    # Both forms run each twin's own numbers as rationals, so no float chain
    # can split them at a tie, truncated gates with gamma > 0 included. The
    # lattice sits on the float engine's thresholds, where exact decisions
    # may differ from float ones.
    rng = np.random.default_rng(2022)
    gates = [hypgraph.truncated_holm_gate(0.05, gamma) for gamma in (0.25, 0.5, 0.75)]
    for graph, spec in [*twins(rng), *gates]:
        exact, oracle = exact_spec(spec), exact_graph(graph)
        for _ in range(200):
            p = lattice_pvalues(spec, rng, lowest=np.nextafter(0.0, 1.0))
            engine = rejected_labels(gk.run(exact, p))
            assert gk.run_hypothesis_graph(oracle, p) == engine, (graph, p)
