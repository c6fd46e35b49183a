"""Local FWER-controlling test procedures and their error-rate bounds.

Each family in a gatekeeping strategy is tested by one of six single-family
procedures (Bonferroni, Holm, truncated Holm, Hochberg, truncated Hochberg,
fixed sequence). Besides the rejection rule itself, every procedure exposes
an upper bound e*(A) on the probability of rejecting at least one hypothesis
in an index set A; the unspent part of a family's critical value, written
from the rejected set (`Kernel.bound`), is transferred to later families.

Each procedure's rules are written once, in `Kernel`, as plain arithmetic
over one float, one numpy column or one `fractions.Fraction` per position:
thresholds, weight fold, bound and spare, rank thresholds and cut,
fixed-sequence walk and step-down rounds; a threshold has one of four
shapes (by position, by rank, truncated by rank, fixed sequence).
`Kernel.test` alone picks a family's rule, and both engines decide every
family through it; on `Fraction`s the rules run exactly, and nothing here
imports numpy.
`test_family` and `error_rate_bound` validate and run.

Conventions used throughout:
  * hypothesis indices are 1-based positions in the family's label list;
  * all threshold comparisons use <= (a p-value equal to its threshold is
    rejected), except that a zero threshold never rejects -- so a family
    tested at level 0 rejects nothing;
  * no outcome depends on the order in which tied p-values are visited.
"""

from __future__ import annotations

import math
import operator
from itertools import compress
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
STEP_DOWN = {"holm", "truncated_holm"}  # of the kinds decided by rank; the others step up

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
        elif not (in_unit(proc.gamma) and proc.gamma < 1.0):
            problems.append(f"gamma {proc.gamma!r} outside [0, 1)")
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
            # NaN, as a weight that is not a number is read, fails every check below.
            weights = [number_or(w, math.nan) for w in proc.weights]
            if not all(map(math.isfinite, weights)):
                problems.append("non-finite weight")
            if any(w < 0 for w in weights):
                problems.append("negative weight")
            if abs(sum(weights) - 1.0) > _WEIGHT_TOL:
                problems.append(f"weights sum to {sum(weights)!r}, not 1")
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
    rules written as plain arithmetic: `level` may be a float, a numpy
    column of levels (one per replicate) or a `Fraction`; p-values and flags
    hold one such value per position, and other arguments broadcast against
    `level`. No float literal enters the arithmetic, so `Fraction` levels,
    gamma and weights stay exact; default weights are the floats 1.0 / n.
    Build kernels only from procedures that `check_procedure` accepts.
    """

    kind: str
    n: int
    gamma: float | None
    weights: tuple[float, ...] | None  # bonferroni and holm: given or equal
    order: tuple[int, ...] | None  # fixed_sequence: 0-based positions in testing order
    by_rank: bool  # decided by its ranked p-values; see rank_cut

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
        by_rank = proc.kind not in ("bonferroni", "fixed_sequence") and len(set(weights or ())) <= 1
        return cls(proc.kind, n, proc.gamma, weights, order, by_rank)

    def threshold(self, level, rest=None, weight=None, total=1):
        """One hypothesis's critical value at `level`: by position,
        `weight / total * level` (`total` the weight in play, 1 for
        Bonferroni); by rank (`rest` in play: this one and those ranked
        after it), `level / rest` for Holm and Hochberg or the truncated
        form; otherwise (fixed sequence) `level`."""
        if weight is not None:
            return weight / total * level
        if rest is None:
            return level
        if self.kind in _TRUNCATED:
            return (self.gamma / rest + (1 - self.gamma) / self.n) * level
        return level / rest

    def bound(self, level, accepted):
        """(e*(A), spare) for the accepted set A, `accepted` a flag or a column
        of flags per position. The spare, passed on, is written from the
        rejected set, not as level - e*; both are capped at `level`."""
        count = sum(accepted)
        if self.kind == "bonferroni":
            e = level * self.weight_in(accepted)
            spare = level * self.weight_in([a ^ True for a in accepted])
        elif self.kind in _TRUNCATED:
            e = (self.gamma + (1 - self.gamma) * count / self.n) * level * (count > 0)
            spare = (1 - self.gamma) * (self.n - count) / self.n * level
        else:  # holm, hochberg, fixed_sequence
            return level * (count > 0), level * (count == 0)
        # min(x, level), or level, on arrays too; accepting all spends the whole level
        full = (level < e) | (count == self.n)
        none = (level < spare) | (count == 0)  # accepting none passes it all on
        return e * (full ^ True) + level * full, spare * (none ^ True) + level * none

    def weight_in(self, flags):
        """The weights at the flagged positions (a flag, or a column of
        flags, per position), added one at a time in index order: numpy's
        sum goes pairwise from 8 terms and Python's compensates from 3.12 on,
        so either can differ in the last bit."""
        total = 0
        for w, flag in zip(self.weights, flags):
            total = total + w * flag
        return total

    def rank_thresholds(self, level) -> list:
        """The thresholds of a family decided by rank (Hochberg, truncated
        Hochberg, truncated Holm, Holm with equal weights), smallest p-value
        first: at rank i, n - i + 1 hypotheses are in play. Equal-weight Holm
        is then Hochberg's `level / rest`, its closed Bonferroni test."""
        return [self.threshold(level, rest) for rest in range(self.n, 0, -1)]

    def rank_cut(self, ranked, level):
        """The largest rejected p-value of a family decided by rank, or -1:
        `ranked` holds one p-value, or one column, per rank, smallest first.

        Step-up (the Hochberg kinds) cuts at the last rank that clears its
        threshold, step-down (truncated Holm, Holm with equal weights) at
        the end of the cleared prefix: its thresholds grow as the count in
        play falls, so that prefix is the fixed point of the rounds.
        Thresholds rise with rank, so no tie straddles the cut.
        """
        cut = -1  # an int: a float's cut * False would turn a Fraction into a float
        cleared = True
        for r, thr in zip(ranked, self.rank_thresholds(level)):
            ok = (thr > 0.0) & (r <= thr)
            if self.kind in STEP_DOWN:
                ok = cleared = cleared & ok
            cut = r * ok + cut * (ok ^ True)  # r where ok, else cut
        return cut

    def in_sequence(self, p, level) -> list:
        """Fixed sequence, by position: each hypothesis is rejected when it
        and every one before it in the testing order clear the level."""
        thr = self.threshold(level)
        ok = thr > 0.0
        rejected = [None] * self.n
        for k in self.order:
            ok = rejected[k] = ok & (p[k] <= thr)
        return rejected

    def step_down(self, p, level) -> list:
        """Bonferroni and weighted Holm, by position: every hypothesis in
        play that clears its threshold is rejected, round after round.

        Rejecting one only raises the others' thresholds, so this is the
        one-at-a-time walk; testing only the smallest p / w would stop early
        where two ratios round to a tie. Bonferroni's thresholds never move,
        so it takes one round: the single step.
        """
        w = self.weights
        rejected = [False] * self.n
        for _ in range(1 if self.kind == "bonferroni" else self.n):
            total = 1
            if self.kind == "holm":
                # Holm divides by the weight in play; when that is 0, only
                # zero weights are left, and they clear nothing.
                total = self.weight_in([r ^ True for r in rejected])
                total = total + (total == 0.0)
            cleared = [None] * self.n
            for k in range(self.n):
                thr = self.threshold(level, None, w[k], total)
                cleared[k] = (rejected[k] ^ True) & (thr > 0.0) & (p[k] <= thr)
            # A round that clears nothing leaves every later one the same. Floats
            # stop here; a column is never False, so columns run every round.
            if all(c is False for c in cleared):
                break
            rejected = [r | c for r, c in zip(rejected, cleared)]
        return rejected

    def test(self, p: Sequence[float], level: float, rank=sorted) -> list:
        """Rejection flags by position at `level`, by the family's one rule
        (none rejects at level 0); `rank(p)` lists `p` by rank, smallest first."""
        if self.by_rank:
            cut = self.rank_cut(rank(p), level)
            return [x <= cut for x in p]
        if self.kind == "fixed_sequence":
            return self.in_sequence(p, level)
        return self.step_down(p, level)


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
    if inp.labels is not None and len(inp.labels) != n:
        raise ValueError(f"{len(inp.labels)} labels for {n} p-values")
    problems = check_procedure(proc, n, inp.labels)
    if problems:
        raise ValueError("; ".join(problems))
    check_pvalues(inp.pvalues)
    if not in_unit(inp.level):
        raise ValueError(f"level {inp.level!r} outside [0, 1]")
    if proc.kind == "fixed_sequence" and inp.labels is None:
        raise ValueError("fixed_sequence needs the family's hypothesis labels")
    kernel = Kernel.of(proc, n, inp.labels)
    return frozenset(compress(range(1, n + 1), kernel.test(inp.pvalues, inp.level)))


def in_unit(x) -> bool:
    """Whether `x` is a number in [0, 1]; NaN, None, strings and numbers
    that do not add to a float (a `Decimal`) are not."""
    return 0.0 <= number_or(x, math.nan) <= 1.0


def number_or(x, otherwise):
    """`x`, or `otherwise` if `x` does not add and compare as a real number
    (its own check reports it), so that `None`, a string or a complex is
    never a `TypeError`."""
    try:
        x + 0.0 <= 0.0
    except TypeError:
        return otherwise
    return x


def check_pvalues(pvalues: Iterable) -> None:
    """Refuse a p-value that is not a number in [0, 1], naming its
    1-based position."""
    for k, p in enumerate(pvalues, start=1):
        if not in_unit(p):
            raise ValueError(f"p-value {p!r} at position {k} outside [0, 1]")


def error_rate_bound(
    proc: LocalProcedureSpec,
    accepted: Iterable[int],
    n: int,
    level: float,
) -> float:
    """Upper bound e*(A) on P(reject something in A) at the given level.

    `accepted` holds 1-based indices. The bound is 0 for an empty set and
    never exceeds `level`; what a family passes on is `Kernel.bound`'s
    spare, written from the rejected hypotheses.
    """
    accepted = list(accepted)
    try:
        a = frozenset(map(operator.index, accepted))
    except TypeError:
        raise ValueError(f"accepted set {accepted!r} holds a non-integer") from None
    if any(not 1 <= k <= n for k in a):
        raise ValueError(f"accepted set {sorted(a)} not within 1..{n}")
    if not in_unit(level):
        raise ValueError(f"level {level!r} outside [0, 1]")
    problems = check_procedure(proc, n)
    if problems:
        raise ValueError("; ".join(problems))
    return Kernel.of(proc, n).bound(level, [k in a for k in range(1, n + 1)])[0]
