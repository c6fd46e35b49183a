"""Hypothesis-level sequentially rejective graphical procedure.

This is the classical one-vertex-per-hypothesis formulation: each hypothesis
carries a weight (its share of the global level), and rejecting a hypothesis
redistributes its weight and rewires the remaining transition coefficients.
It serves as an independent oracle for the family-based engine: strategies
expressible in both forms must reject exactly the same hypotheses.

Serial constraints ("test H3 only after H1 AND H2 are rejected") need edges
with infinitesimally small coefficients. Those are handled exactly, not with
a tiny float: every weight and coefficient is carried as real + eps parts,
where eps is a positive infinitesimal. An edge listed in `epsilon_edges`
contributes `cell * eps` instead of `cell`, and the other edges out of that
source are scaled by (1 - C*eps) so each row still sums to 1 in the limit.
Second-order eps terms are dropped; a threshold whose real part is zero but
whose eps part is positive rejects only p = 0. No float literal enters the
arithmetic, so a graph given in `fractions.Fraction`s runs exactly.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple

from .errors import InvalidSpecError, SpecFormatError
from .graph import GraphSpec, SUM_TOL, ValidationOutcome, make_spec
from .jsontext import dumps, fields, integer, list_of, loads, number, numbers
from . import procedures as proc

_REAL_EPS = 1e-14

Dual = tuple[float, float]  # (real part, eps coefficient)


def _add(x: Dual, y: Dual) -> Dual:
    return (x[0] + y[0], x[1] + y[1])


def _mul(x: Dual, y: Dual) -> Dual:
    return (x[0] * y[0], x[0] * y[1] + x[1] * y[0])


def _div(num: Dual, den: Dual) -> Dual:
    a, b = num
    c, d = den
    if c > _REAL_EPS:
        return (a / c, (b * c - a * d) / (c * c))
    if d > _REAL_EPS and abs(a) <= _REAL_EPS:
        # Real parts vanish together (mutual full-transfer cycle); the
        # limit is the ratio of the eps parts.
        return (b / d, 0)
    return (0, 0)


class HypothesisGraph(NamedTuple):
    """Weighted directed graph over individual hypotheses.

    `transitions[j][k]` is the coefficient from hypothesis j to k; when
    (j, k) appears in `epsilon_edges` the cell holds the multiplier of an
    infinitesimal coefficient instead. Indices are 0-based positions in
    `labels`.
    """

    alpha: float
    labels: tuple[str, ...]
    weights: tuple[float, ...]
    transitions: tuple[tuple[float, ...], ...]
    epsilon_edges: frozenset[tuple[int, int]] = frozenset()


def validate_graph(graph: HypothesisGraph) -> ValidationOutcome:
    """Check all structural invariants; report every violation."""
    v: list[str] = []
    n = len(graph.labels)
    if n == 0:
        v.append("no hypotheses")
    if len(set(graph.labels)) != n:
        v.append("duplicate hypothesis labels")
    if not 0.0 <= graph.alpha <= 1.0:
        v.append(f"alpha {graph.alpha!r} outside [0, 1]")
    if len(graph.weights) != n:
        v.append(f"{len(graph.weights)} weights for {n} hypotheses")
    else:
        if not all(math.isfinite(w) for w in graph.weights):
            v.append("non-finite weight")
        if any(w < 0 for w in graph.weights):
            v.append("negative weight")
        if sum(graph.weights) > 1.0 + SUM_TOL:
            v.append(f"weights sum to {sum(graph.weights)!r} > 1")
    if len(graph.transitions) != n or any(len(row) != n for row in graph.transitions):
        v.append(f"transition matrix is not {n}x{n}")
        return ValidationOutcome(tuple(v))
    for j, k in graph.epsilon_edges:
        if not (0 <= j < n and 0 <= k < n) or j == k:
            v.append(f"epsilon edge ({j}, {k}) out of range or diagonal")
    for j in range(n):
        real_sum = 0.0
        eps_sum = 0.0
        for k in range(n):
            g = graph.transitions[j][k]
            if not math.isfinite(g):
                v.append(f"non-finite coefficient {g!r} at ({j}, {k})")
                continue
            if j == k:
                if g != 0.0:
                    v.append(f"nonzero diagonal at {j}")
                continue
            if not 0.0 <= g <= 1.0:
                v.append(f"coefficient {g!r} at ({j}, {k}) outside [0, 1]")
            if (j, k) in graph.epsilon_edges:
                eps_sum += g
            else:
                real_sum += g
        if real_sum > 1.0 + SUM_TOL:
            v.append(f"row {j} sums to {real_sum!r} > 1")
        if eps_sum > 1.0 + SUM_TOL:
            v.append(f"row {j} epsilon multipliers sum to {eps_sum!r} > 1")
    return ValidationOutcome(tuple(v))


def _dual_transitions(graph: HypothesisGraph) -> list[list[Dual]]:
    n = len(graph.labels)
    dual: list[list[Dual]] = []
    for j in range(n):
        c_total = sum(
            graph.transitions[j][k] for k in range(n) if (j, k) in graph.epsilon_edges
        )
        row: list[Dual] = []
        for k in range(n):
            g = graph.transitions[j][k]
            if (j, k) in graph.epsilon_edges:
                row.append((0, g))
            else:
                # scale by (1 - c_total*eps) so the row sums to 1 exactly
                row.append((g, -g * c_total))
        dual.append(row)
    return dual


def _rejects(p: float, w: Dual, alpha: float) -> bool:
    # <= on the real part, as the family engine compares; the eps part only
    # decides a zero real part (then only p = 0 rejects).
    threshold = w[0] * alpha
    if p < threshold:
        return True
    return p == threshold and (w[0] > 0.0 or w[1] > 0.0)


def run_hypothesis_graph(
    graph: HypothesisGraph,
    pvalues: Mapping[str, float],
    pick: Callable[[list[int]], int] | None = None,
    trace: list | None = None,
) -> frozenset[str]:
    """Run the sequentially rejective procedure; return rejected labels.

    `pick` chooses which eligible hypothesis to reject next (default: the
    lowest index); the final rejection set does not depend on the choice.
    When `trace` is a list, one (rejected_label, {label: weight}) snapshot
    of the still-active dual weights is appended per rejection.
    """
    outcome = validate_graph(graph)
    if not outcome.ok:
        raise InvalidSpecError(outcome.violations)
    missing = sorted(set(graph.labels) - set(pvalues))
    extra = sorted(set(pvalues) - set(graph.labels))
    if missing or extra:
        raise ValueError(f"p-value labels mismatch: missing {missing}, extra {extra}")
    for label in graph.labels:
        if not proc.in_unit(pvalues[label]):
            raise ValueError(f"p-value {pvalues[label]!r} for {label} outside [0, 1]")

    n = len(graph.labels)
    p = [pvalues[label] for label in graph.labels]
    w: list[Dual] = [(x, 0) for x in graph.weights]
    g = _dual_transitions(graph)
    active = set(range(n))
    rejected: set[int] = set()

    while True:
        eligible = sorted(j for j in active if _rejects(p[j], w[j], graph.alpha))
        if not eligible:
            break
        j = pick(eligible) if pick is not None else eligible[0]
        if j not in eligible:
            raise ValueError(f"pick returned ineligible index {j}")
        active.remove(j)
        rejected.add(j)
        for l in active:
            w[l] = _add(w[l], _mul(w[j], g[j][l]))
        if trace is not None:
            trace.append(
                (graph.labels[j], {graph.labels[l]: w[l] for l in sorted(active)})
            )
        new_g = [row[:] for row in g]
        for l in active:
            for k in active:
                if l == k:
                    continue
                num = _add(g[l][k], _mul(g[l][j], g[j][k]))
                den = _add((1, 0), _mul((-1, 0), _mul(g[l][j], g[j][l])))
                quotient = _div(num, den)
                new_g[l][k] = (max(quotient[0], 0), quotient[1])
        g = new_g

    return frozenset(graph.labels[j] for j in rejected)


# ---------------------------------------------------------------------------
# Paired benchmark strategies (hypothesis-level graph + family-level twin)
# ---------------------------------------------------------------------------


def _twin(alpha, cells, layers, transitions, eps=()) -> tuple[HypothesisGraph, GraphSpec]:
    """The graph H1..Hn with coefficients `cells` ((j, k) -> g, 0-based; the
    pairs in `eps` infinitesimal) and H1 and H2 at half the level each, and
    the family spec `make_spec(alpha, layers, transitions)`."""
    n = sum(len(labels) for layer in layers for _, labels, _, _ in layer)
    hyp = HypothesisGraph(
        alpha=alpha,
        labels=tuple(f"H{j}" for j in range(1, n + 1)),
        weights=(0.5, 0.5) + (0.0,) * (n - 2),
        transitions=tuple(tuple(cells.get((j, k), 0.0) for k in range(n)) for j in range(n)),
        epsilon_edges=frozenset(eps),
    )
    return hyp, make_spec(alpha, layers, transitions)


def bonferroni_gate_pair(alpha: float) -> tuple[HypothesisGraph, GraphSpec]:
    """Two singleton gatekeepers each feeding one Holm-tested pair.

    Layer 1 holds {H1} and {H2} at alpha/2 under Bonferroni; each passes its
    full unspent level to the pair {H3, H4}, tested by Holm.
    """
    return _twin(
        alpha,
        {(0, 2): 0.5, (0, 3): 0.5, (1, 2): 0.5, (1, 3): 0.5, (2, 3): 1.0, (3, 2): 1.0},
        [
            [
                ("F11", ["H1"], alpha / 2.0, proc.bonferroni()),
                ("F12", ["H2"], alpha / 2.0, proc.bonferroni()),
            ],
            [("F21", ["H3", "H4"], 0.0, proc.holm())],
        ],
        {("F11", "F21"): 1.0, ("F12", "F21"): 1.0},
    )


def serial_holm_gate_single(alpha: float) -> tuple[HypothesisGraph, GraphSpec]:
    """A Holm-tested pair that must be fully rejected before one follow-up.

    The hypothesis-level form needs infinitesimal edges into H3; the
    family-level form is just two layers with a full transfer.
    """
    return _twin(
        alpha,
        {(0, 1): 1.0, (1, 0): 1.0, (0, 2): 1.0, (1, 2): 1.0},
        [
            [("F1", ["H1", "H2"], alpha, proc.holm())],
            [("F2", ["H3"], 0.0, proc.bonferroni())],
        ],
        {("F1", "F2"): 1.0},
        eps={(0, 2), (1, 2)},
    )


def serial_holm_gate_weighted_pair(
    alpha: float, w1: float, w2: float
) -> tuple[HypothesisGraph, GraphSpec]:
    """A Holm-tested pair serially gating a weighted-Holm pair.

    Once both gatekeepers are rejected the full level splits w1 : w2 between
    H3 and H4 (w1 + w2 must be 1).
    """
    if abs(w1 + w2 - 1.0) > SUM_TOL or w1 < 0 or w2 < 0:
        raise ValueError(f"weights ({w1}, {w2}) must be nonnegative and sum to 1")
    return _twin(
        alpha,
        {
            (0, 1): 1.0, (1, 0): 1.0,
            (0, 2): w1, (0, 3): w2,
            (1, 2): w1, (1, 3): w2,
            (2, 3): 1.0, (3, 2): 1.0,
        },
        [
            [("F1", ["H1", "H2"], alpha, proc.holm())],
            [("F2", ["H3", "H4"], 0.0, proc.holm(weights=(w1, w2)))],
        ],
        {("F1", "F2"): 1.0},
        eps={(0, 2), (0, 3), (1, 2), (1, 3)},
    )


def truncated_holm_gate(alpha: float, gamma: float) -> tuple[HypothesisGraph, GraphSpec]:
    """Parallel gatekeeping: a truncated-Holm pair feeding a Holm pair.

    The truncation parameter interpolates between Bonferroni (gamma=0,
    maximal transfer) and Holm (gamma -> 1, maximal within-family power).
    """
    spread = (1.0 - gamma) / 2.0
    return _twin(
        alpha,
        {
            (0, 1): gamma, (0, 2): spread, (0, 3): spread,
            (1, 0): gamma, (1, 2): spread, (1, 3): spread,
            (2, 3): 1.0, (3, 2): 1.0,
        },
        [
            [("F1", ["H1", "H2"], alpha, proc.truncated_holm(gamma))],
            [("F2", ["H3", "H4"], 0.0, proc.holm())],
        ],
        {("F1", "F2"): 1.0},
    )


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def graph_to_json(graph: HypothesisGraph) -> str:
    obj = {
        "alpha": graph.alpha,
        "hypotheses": list(graph.labels),
        "weights": list(graph.weights),
        "transitions": [list(row) for row in graph.transitions],
        "epsilon_edges": sorted([j, k] for j, k in graph.epsilon_edges),
    }
    return dumps(obj)


def graph_from_json(text: str) -> HypothesisGraph:
    keys = ("alpha", "hypotheses", "weights", "transitions")
    obj = fields(loads(text), keys, "graph", ("epsilon_edges",))
    eps = []
    for pair in list_of(list, obj.get("epsilon_edges", []), "epsilon_edges"):
        if len(pair) != 2:
            raise SpecFormatError("epsilon_edges must be [j, k] index pairs")
        eps.append(tuple(integer(j, "epsilon edge index") for j in pair))
    rows = list_of(list, obj["transitions"], "transitions")
    return HypothesisGraph(
        alpha=number(obj["alpha"], "alpha"),
        labels=tuple(list_of(str, obj["hypotheses"], "hypotheses")),
        weights=numbers(obj["weights"], "weights"),
        transitions=tuple(numbers(row, "transition row") for row in rows),
        epsilon_edges=frozenset(eps),
    )
