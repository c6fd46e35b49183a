"""Local FWER-controlling test procedures and their error-rate bounds.

Each family in a gatekeeping strategy is tested by one of six single-family
procedures (Bonferroni, Holm, truncated Holm, Hochberg, truncated Hochberg,
fixed sequence). Besides the rejection rule itself, every procedure exposes
an upper bound e*(A) on the probability of rejecting at least one hypothesis
in an index set A; the unspent part of a family's critical value,
level - e*(accepted), is what gets transferred to later families.

Conventions used throughout:
  * hypothesis indices are 1-based, matching the (i, j) family addressing;
  * all threshold comparisons use <= (a p-value equal to its threshold is
    rejected), except that a zero threshold never rejects -- so a family
    tested at level 0 rejects nothing;
  * tied p-values are processed in ascending hypothesis-index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

KINDS = (
    "bonferroni",
    "holm",
    "truncated_holm",
    "hochberg",
    "truncated_hochberg",
    "fixed_sequence",
)

_TRUNCATED = {"truncated_holm", "truncated_hochberg"}
_WEIGHTED = {"bonferroni", "holm"}

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class LocalProcedureSpec:
    """Which single-family procedure to run, with its parameters.

    gamma     truncation parameter in [0, 1), truncated kinds only.
    weights   optional per-hypothesis weights (nonnegative, summing to 1);
              bonferroni and holm only, equal weights when absent.
    order     explicit testing order as hypothesis labels, fixed_sequence only.
    """

    kind: str
    gamma: float | None = None
    weights: tuple[float, ...] | None = None
    order: tuple[str, ...] | None = None


def bonferroni(weights: Sequence[float] | None = None) -> LocalProcedureSpec:
    return LocalProcedureSpec("bonferroni", weights=_as_tuple(weights))


def holm(weights: Sequence[float] | None = None) -> LocalProcedureSpec:
    return LocalProcedureSpec("holm", weights=_as_tuple(weights))


def truncated_holm(gamma: float) -> LocalProcedureSpec:
    return LocalProcedureSpec("truncated_holm", gamma=gamma)


def hochberg() -> LocalProcedureSpec:
    return LocalProcedureSpec("hochberg")


def truncated_hochberg(gamma: float) -> LocalProcedureSpec:
    return LocalProcedureSpec("truncated_hochberg", gamma=gamma)


def fixed_sequence(order: Sequence[str]) -> LocalProcedureSpec:
    return LocalProcedureSpec("fixed_sequence", order=tuple(order))


def _as_tuple(xs):
    return None if xs is None else tuple(float(x) for x in xs)


def check_procedure(
    proc: LocalProcedureSpec, n: int, labels: Sequence[str] | None = None
) -> list[str]:
    """Return every way `proc` is inconsistent for a family of size `n`.

    `labels` (the family's hypothesis labels) is needed to check a
    fixed-sequence order; when omitted, only arity is checked.
    """
    problems: list[str] = []
    if proc.kind not in KINDS:
        problems.append(f"unknown procedure kind {proc.kind!r}")
        return problems
    if proc.kind in _TRUNCATED:
        if proc.gamma is None:
            problems.append(f"{proc.kind} requires gamma")
        elif not 0.0 <= proc.gamma < 1.0:
            problems.append(f"gamma {proc.gamma} outside [0, 1)")
    elif proc.gamma is not None:
        problems.append(f"{proc.kind} does not take gamma")
    if proc.weights is not None:
        if proc.kind not in _WEIGHTED:
            problems.append(f"{proc.kind} does not support weights")
        else:
            if len(proc.weights) != n:
                problems.append(
                    f"{len(proc.weights)} weights for {n} hypotheses"
                )
            if not all(math.isfinite(w) for w in proc.weights):
                # NaN fails every comparison below, so it must be caught here.
                problems.append("non-finite weight")
            if any(w < 0 for w in proc.weights):
                problems.append("negative weight")
            if abs(sum(proc.weights) - 1.0) > _WEIGHT_TOL:
                problems.append(f"weights sum to {sum(proc.weights)!r}, not 1")
    if proc.kind == "fixed_sequence":
        if proc.order is None:
            problems.append("fixed_sequence requires an order")
        elif labels is not None and sorted(proc.order) != sorted(labels):
            problems.append(
                f"order {list(proc.order)} is not a permutation of {list(labels)}"
            )
    elif proc.order is not None:
        problems.append(f"{proc.kind} does not take an order")
    return problems


@dataclass(frozen=True)
class FamilyTestInput:
    """One family's p-values (in family order) and its local critical value.

    `labels` gives the hypothesis label for each p-value; it is required
    only when the procedure is fixed_sequence (the order is label-based).
    """

    pvalues: tuple[float, ...]
    level: float
    labels: tuple[str, ...] | None = None


def _validated(proc: LocalProcedureSpec, inp: FamilyTestInput) -> int:
    n = len(inp.pvalues)
    problems = check_procedure(proc, n, inp.labels)
    if problems:
        raise ValueError("; ".join(problems))
    for k, p in enumerate(inp.pvalues, start=1):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-value {p!r} at position {k} outside [0, 1]")
    if not 0.0 <= inp.level <= 1.0:
        raise ValueError(f"level {inp.level!r} outside [0, 1]")
    return n


def _equal_weights(n: int) -> tuple[float, ...]:
    return tuple(1.0 / n for _ in range(n))


def _le_positive(p: float, threshold: float) -> bool:
    # <= convention, but a zero threshold rejects nothing.
    return threshold > 0.0 and p <= threshold


def test_family(proc: LocalProcedureSpec, inp: FamilyTestInput) -> frozenset[int]:
    """Run the procedure; return the 1-based indices of rejected hypotheses."""
    n = _validated(proc, inp)
    if inp.level <= 0.0:
        return frozenset()
    p = inp.pvalues
    level = inp.level

    if proc.kind == "bonferroni":
        w = proc.weights or _equal_weights(n)
        return frozenset(
            k + 1 for k in range(n) if _le_positive(p[k], w[k] * level)
        )

    if proc.kind == "holm":
        return _weighted_holm(p, level, proc.weights or _equal_weights(n))

    if proc.kind == "truncated_holm":
        return _step_down(p, _truncated_thresholds(n, level, proc.gamma))

    if proc.kind == "hochberg":
        return _step_up(p, [level / (n - i + 1) for i in range(1, n + 1)])

    if proc.kind == "truncated_hochberg":
        return _step_up(p, _truncated_thresholds(n, level, proc.gamma))

    # fixed_sequence
    if inp.labels is None:
        raise ValueError("fixed_sequence needs the family's hypothesis labels")
    position = {label: k for k, label in enumerate(inp.labels)}
    rejected = set()
    for label in proc.order:
        k = position[label]
        if _le_positive(p[k], level):
            rejected.add(k + 1)
        else:
            break
    return frozenset(rejected)


def _truncated_thresholds(n: int, level: float, gamma: float) -> list[float]:
    return [
        (gamma / (n - i + 1) + (1.0 - gamma) / n) * level for i in range(1, n + 1)
    ]


def _sorted_positions(p: Sequence[float]) -> list[int]:
    # Stable: ties broken by ascending hypothesis index.
    return sorted(range(len(p)), key=lambda k: (p[k], k))


def _step_down(p, thresholds) -> frozenset[int]:
    order = _sorted_positions(p)
    rejected = set()
    for i, k in enumerate(order):
        if _le_positive(p[k], thresholds[i]):
            rejected.add(k + 1)
        else:
            break
    return frozenset(rejected)


def _step_up(p, thresholds) -> frozenset[int]:
    order = _sorted_positions(p)
    n_reject = 0
    for i, k in enumerate(order):
        if _le_positive(p[k], thresholds[i]):
            n_reject = i + 1
    return frozenset(k + 1 for k in order[:n_reject])


def _weighted_holm(p, level, weights) -> frozenset[int]:
    # Step-down: reject every remaining hypothesis that clears its
    # renormalized threshold, until none does. Rejecting one only raises the
    # others' thresholds, so this is the one-at-a-time walk; testing only the
    # smallest p / w would stop early where two ratios round to a tie.
    remaining = list(range(len(p)))
    rejected: set[int] = set()
    while remaining:
        total = sum(weights[k] for k in remaining)
        if total <= 0.0:
            break
        eligible = {k for k in remaining if _le_positive(p[k], weights[k] / total * level)}
        if not eligible:
            break
        rejected |= eligible
        remaining = [k for k in remaining if k not in eligible]
    return frozenset(k + 1 for k in rejected)


def error_rate_bound(
    proc: LocalProcedureSpec,
    accepted: Iterable[int],
    n: int,
    level: float,
) -> float:
    """Upper bound e*(A) on P(reject something in A) at the given level.

    `accepted` holds 1-based indices. The bound is 0 for an empty set and
    never exceeds `level`; the gap level - e*(A) is the amount a family can
    pass on after testing.
    """
    a = frozenset(accepted)
    if any(not 1 <= k <= n for k in a):
        raise ValueError(f"accepted set {sorted(a)} not within 1..{n}")
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"level {level!r} outside [0, 1]")
    problems = check_procedure(proc, n)
    if problems:
        raise ValueError("; ".join(problems))
    if not a:
        return 0.0
    if proc.kind == "bonferroni":
        w = proc.weights or _equal_weights(n)
        bound = level * sum(w[k - 1] for k in sorted(a))  # in index order, as batch_run adds
    elif proc.kind in ("holm", "hochberg", "fixed_sequence"):
        bound = level
    else:  # truncated_holm, truncated_hochberg
        bound = (proc.gamma + (1.0 - proc.gamma) * len(a) / n) * level
    return min(max(bound, 0.0), level)
