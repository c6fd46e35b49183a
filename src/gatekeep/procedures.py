"""Local FWER-controlling test procedures and their error-rate bounds.

Each family in a gatekeeping strategy is tested by one of six single-family
procedures (Bonferroni, Holm, truncated Holm, Hochberg, truncated Hochberg,
fixed sequence). Besides the rejection rule itself, every procedure exposes
an upper bound e*(A) on the probability of rejecting at least one hypothesis
in an index set A; the unspent part of a family's critical value,
level - e*(accepted), is what gets transferred to later families.

Each procedure's thresholds and capped bound are written once, in `Kernel`.
The scalar drivers here (Bonferroni runs the step-down one) and the batch
drivers in `mcsim` call it; `test_family` and `error_rate_bound` validate
their input and run it.

Conventions used throughout:
  * hypothesis indices are 1-based positions in the family's label list;
  * all threshold comparisons use <= (a p-value equal to its threshold is
    rejected), except that a zero threshold never rejects -- so a family
    tested at level 0 rejects nothing;
  * no outcome depends on the order in which tied p-values are visited.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

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


class LocalProcedureSpec(NamedTuple):
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


class Kernel(NamedTuple):
    """A procedure resolved for one family of `n` hypotheses, with its
    threshold and e* formulas written as plain arithmetic: `level` may be a
    float or a numpy column of levels (one per replicate), and the other
    arguments numbers or arrays that broadcast against it. Build kernels
    only from procedures that `check_procedure` accepts.
    """

    kind: str
    n: int
    gamma: float | None
    weights: tuple[float, ...] | None  # bonferroni and holm: given or equal
    order: tuple[int, ...] | None  # fixed_sequence: 0-based positions in testing order

    @classmethod
    def of(
        cls, proc: LocalProcedureSpec, n: int, labels: Sequence[str] | None = None
    ) -> Kernel:
        """Resolve `proc` for `n` hypotheses; a fixed-sequence order is
        placed only when the family's `labels` are given."""
        weights = None
        if proc.kind in _WEIGHTED:
            weights = proc.weights or tuple(1.0 / n for _ in range(n))
        order = None
        if proc.kind == "fixed_sequence" and labels is not None:
            position = {label: k for k, label in enumerate(labels)}
            order = tuple(position[label] for label in proc.order)
        return cls(proc.kind, n, proc.gamma, weights, order)

    def threshold(self, level, rest=None, weight=None, total=None):
        """One hypothesis's critical value at `level`.

        `rest` counts the hypotheses in play: those not yet rejected
        (step-down), or those ranked at or after this one by p-value
        (step-up). `weight` is the hypothesis's weight and `total` the
        weight still in play. Each kind reads only what it needs.
        """
        kind = self.kind
        if kind == "bonferroni":
            return weight * level
        if kind == "holm":
            return weight / total * level
        if kind == "hochberg":
            return level / rest
        if kind in _TRUNCATED:
            return (self.gamma / rest + (1.0 - self.gamma) / self.n) * level
        return level  # fixed_sequence

    def bound(self, level, count, weight_sum):
        """e*(A), capped at `level`, for an accepted set A of `count`
        hypotheses; `weight_sum(w)` adds w over A in index order."""
        if self.kind == "bonferroni":
            e = level * weight_sum(self.weights)
        elif self.kind in _TRUNCATED:
            e = (self.gamma + (1.0 - self.gamma) * count / self.n) * level * (count > 0)
        else:
            return level * (count > 0)  # holm, hochberg, fixed_sequence
        return e * (e <= level) + level * (level < e)  # min(e, level), on arrays too

    def test(self, p: Sequence[float], level: float) -> frozenset[int]:
        """The 1-based indices of the hypotheses rejected at `level`."""
        if level <= 0.0:
            return frozenset()
        return _DRIVERS[self.kind](self, p, level)

    def e_star(self, level: float, accepted: Iterable[int]) -> float:
        """e*(accepted) at `level`; `accepted` holds 1-based indices."""
        a = sorted(accepted)
        return self.bound(level, len(a), lambda w: sum(w[k - 1] for k in a))


def _le_positive(p: float, threshold: float) -> bool:
    # <= convention, but a zero threshold rejects nothing.
    return threshold > 0.0 and p <= threshold


def _fixed_point(kernel: Kernel, p, level) -> frozenset[int]:
    # Step-down: reject every hypothesis in play that clears its threshold,
    # until none does. Rejecting one only raises the others' thresholds, so
    # this is the one-at-a-time walk; testing only the smallest p / w would
    # stop early where two ratios round to a tie. Bonferroni's thresholds
    # never move, so it stops after one round: the single step.
    w = kernel.weights
    remaining = list(range(kernel.n))
    for _ in range(1 if kernel.kind == "bonferroni" else kernel.n):
        # Holm divides by the weight in play; when that is 0, only zero
        # weights are left, and they clear nothing.
        total = (sum(w[k] for k in remaining) or 1.0) if kernel.kind == "holm" else None
        rest = len(remaining)
        cleared = {
            k
            for k in remaining
            if _le_positive(p[k], kernel.threshold(level, rest, w[k] if w else None, total))
        }
        if not cleared:
            break
        remaining = [k for k in remaining if k not in cleared]
    return frozenset(range(1, kernel.n + 1)) - {k + 1 for k in remaining}


def _step_up(kernel: Kernel, p, level) -> frozenset[int]:
    # Rank the p-values and reject every one at or below the largest that
    # clears its threshold. Thresholds rise with rank, so a tie never
    # straddles that cut.
    n = kernel.n
    cleared = [
        x for i, x in enumerate(sorted(p)) if _le_positive(x, kernel.threshold(level, n - i))
    ]
    return frozenset(k + 1 for k in range(n) if cleared and p[k] <= cleared[-1])


def _in_sequence(kernel: Kernel, p, level) -> frozenset[int]:
    rejected = set()
    for k in kernel.order:
        if not _le_positive(p[k], kernel.threshold(level)):
            break
        rejected.add(k + 1)
    return frozenset(rejected)


_DRIVERS = {
    "bonferroni": _fixed_point,
    "holm": _fixed_point,
    "truncated_holm": _fixed_point,
    "hochberg": _step_up,
    "truncated_hochberg": _step_up,
    "fixed_sequence": _in_sequence,
}


class FamilyTestInput(NamedTuple):
    """One family's p-values (in family order) and its local critical value.

    `labels` gives the hypothesis label for each p-value; it is required
    only when the procedure is fixed_sequence (the order is label-based).
    """

    pvalues: tuple[float, ...]
    level: float
    labels: tuple[str, ...] | None = None


def test_family(proc: LocalProcedureSpec, inp: FamilyTestInput) -> frozenset[int]:
    """Run the procedure; return the 1-based indices of rejected hypotheses."""
    n = len(inp.pvalues)
    problems = check_procedure(proc, n, inp.labels)
    if problems:
        raise ValueError("; ".join(problems))
    for k, p in enumerate(inp.pvalues, start=1):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-value {p!r} at position {k} outside [0, 1]")
    if not 0.0 <= inp.level <= 1.0:
        raise ValueError(f"level {inp.level!r} outside [0, 1]")
    if proc.kind == "fixed_sequence" and inp.labels is None and inp.level > 0.0:
        raise ValueError("fixed_sequence needs the family's hypothesis labels")
    return Kernel.of(proc, n, inp.labels).test(inp.pvalues, inp.level)


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
    return Kernel.of(proc, n).e_star(level, a)
