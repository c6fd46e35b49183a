"""Execution engine for family-based gatekeeping strategies.

Layers are processed first to last. Testing a family consumes its current
critical value; the unspent part, which the kernel writes from the rejected
hypotheses (`Kernel.bound`), is split among later families according to
the family's outgoing transition coefficients, whose entries are then
zeroed. Families inside one layer never exchange critical value (such
edges are invalid), so within-layer order cannot change the outcome; `run`
uses declared order for a deterministic audit trail.

`step` advances one family at a time and never mutates its input state, so
callers can fork execution paths; a fork with other transition coefficients
is a spec with other transitions (`spec._replace(transitions=...)`), which
is validated like any spec. `replay` re-derives every level, bound
and transfer from a report's rejection sets, catching corrupted or
hand-edited reports. All three test with the kernels of the spec's plan
(`GraphSpec.plan`), validated and resolved once per spec object, build an
outcome's label sets from the kernel's flags by position, and apply one
update rule, `_advance`, to the accepted flags.
"""

from __future__ import annotations

from itertools import compress
from typing import Mapping, NamedTuple

from .errors import SpecFormatError
from .graph import FamilySpec, GraphSpec, ValidationOutcome
from .jsontext import fields, finite, list_of, loads, nested, string
from .procedures import Kernel, check_pvalues, in_unit

REPLAY_TOL = 1e-12


class Transfer(NamedTuple):
    """Critical value passed to one later family after a test."""

    target: str
    amount: float


class FamilyOutcome(NamedTuple):
    """Audit record for one tested family."""

    family: str
    level_used: float
    rejected: frozenset[str]
    accepted: frozenset[str]
    e_star: float
    transfers: tuple[Transfer, ...]


class TestReport(NamedTuple):
    """Per-family outcomes in execution order plus the global decision map.

    `decisions` maps every hypothesis label to "S" (significant) or "NS".
    """

    outcomes: tuple[FamilyOutcome, ...]
    decisions: Mapping[str, str]


class ExecutionState(NamedTuple):
    """Snapshot between steps: untested families and current levels."""

    remaining: tuple[frozenset[str], ...]
    current_alpha: Mapping[str, float]


def initial_state(spec: GraphSpec) -> ExecutionState:
    return ExecutionState(
        remaining=tuple(frozenset(fam.name for fam in layer) for layer in spec.layers),
        current_alpha={fam.name: fam.initial_alpha for fam in spec.families()},
    )


def _advance(kernel: Kernel, level: float, accepted, edges):
    """The update rules after testing a family at `level`: its bound
    e*(accepted), `accepted` a flag per position, and one transfer of
    spare * g per (target, g) edge, in edge order (`Kernel.bound`)."""
    e_star, spare = kernel.bound(level, accepted)
    return e_star, tuple([Transfer(dst, spare * g) for dst, g in edges])


def _test(
    fam: FamilySpec, kernel: Kernel, level: float, pvalues: Mapping[str, float], edges
) -> FamilyOutcome:
    """Check `fam`'s p-values, test it at `level` and advance along `edges`."""
    p = tuple(map(pvalues.__getitem__, fam.labels))
    check_pvalues(p)
    flags = kernel.test(p, level)
    e_star, transfers = _advance(kernel, level, [not f for f in flags], edges)
    rejected = frozenset(compress(fam.labels, flags))
    accepted = frozenset(fam.labels) - rejected
    return FamilyOutcome(fam.name, level, rejected, accepted, e_star, transfers)


def step(
    spec: GraphSpec,
    state: ExecutionState,
    family: str,
    pvalues: Mapping[str, float],
) -> tuple[FamilyOutcome, ExecutionState]:
    """Test one family and return (outcome, next state); `state` is unchanged.

    The family must be untested and belong to the earliest layer that still
    has untested families. Its level comes from `state`, a forked or
    hand-edited one included, and its edges from the spec's plan.
    """
    layer_idx = next((i for i, layer in enumerate(state.remaining) if layer), None)
    if layer_idx is None:
        raise ValueError("all families already tested")
    if family not in state.remaining[layer_idx]:
        for later in state.remaining[layer_idx + 1 :]:
            if family in later:
                raise ValueError(
                    f"family {family!r} is not eligible yet: "
                    f"layer {layer_idx + 1} still has untested families"
                )
        raise ValueError(f"family {family!r} is not an untested family")

    plan = spec.plan
    if family not in plan.by_name:
        raise ValueError(f"family {family!r} is not in the spec")
    fam = plan.by_name[family]
    if family not in state.current_alpha:
        raise ValueError(f"state has no level for family {family!r}")
    level = state.current_alpha[family]
    if not pvalues.keys() >= set(fam.labels):
        raise ValueError(f"missing p-values for {sorted(set(fam.labels) - pvalues.keys())}")
    if not in_unit(level):
        raise ValueError(f"level {level!r} outside [0, 1]")
    edges = plan.edges[family]
    for dst, _ in edges:
        if dst not in state.current_alpha:
            raise ValueError(f"edge {family!r} -> {dst!r}: state has no level for {dst!r}")
    outcome = _test(fam, plan.kernels[family], level, pvalues, edges)

    new_alpha = dict(state.current_alpha)
    for t in outcome.transfers:
        new_alpha[t.target] += t.amount
    new_remaining = tuple(
        layer - {family} if i == layer_idx else layer
        for i, layer in enumerate(state.remaining)
    )
    return outcome, ExecutionState(new_remaining, new_alpha)


def run(spec: GraphSpec, pvalues: Mapping[str, float]) -> TestReport:
    """Execute the whole strategy on one p-value map.

    Raises InvalidSpecError if the spec has constraint violations and
    ValueError if `pvalues` does not cover exactly the spec's labels or
    holds a value outside [0, 1].
    """
    plan = spec.plan
    if pvalues.keys() != plan.labels:
        missing = sorted(plan.labels - set(pvalues))
        extra = sorted(set(pvalues) - plan.labels)
        parts = []
        if missing:
            parts.append(f"missing p-values for {missing}")
        if extra:
            parts.append(f"p-values for unknown labels {extra}")
        raise ValueError("; ".join(parts))

    levels = {fam.name: fam.initial_alpha for fam in plan.families}
    outcomes = []
    decisions = {}
    for fam in plan.families:
        name = fam.name
        result = _test(fam, plan.kernels[name], levels[name], pvalues, plan.edges[name])
        for dst, amount in result.transfers:
            levels[dst] += amount
        rejected = result.rejected
        for label in fam.labels:
            decisions[label] = "S" if label in rejected else "NS"
        outcomes.append(result)
    return TestReport(tuple(outcomes), decisions)


def replay(report: TestReport, spec: GraphSpec) -> ValidationOutcome:
    """Re-derive every level, e* and transfer from the report's rejection sets.

    Returns ok when the report is exactly what the engine would have
    produced (within 1e-12) given those rejections. Structural mismatches
    between report and spec raise ValueError.
    """
    plan = spec.plan
    seen = sorted(o.family for o in report.outcomes)
    expected = sorted(plan.by_name)
    if seen != expected:
        raise ValueError(f"report covers families {seen}, spec has {expected}")

    v: list[str] = []
    levels = {fam.name: fam.initial_alpha for fam in plan.families}
    untested = [{fam.name for fam in layer} for layer in spec.layers]
    current = 0  # the earliest layer with untested families
    for o in report.outcomes:
        name, rejected, accepted = o.family, o.rejected, o.accepted
        fam = plan.by_name[name]
        while not untested[current]:
            current += 1
        if name not in untested[current]:
            raise ValueError(
                f"family {name}: tested out of order (layer {current + 1} was current)"
            )
        untested[current].remove(name)

        if rejected | accepted != set(fam.labels) or (rejected & accepted):
            raise ValueError(f"family {name}: rejected/accepted do not partition the hypotheses")

        level = levels[name]
        flags = [label in accepted for label in fam.labels]
        e_star, transfers = _advance(plan.kernels[name], level, flags, plan.edges[name])
        found = []
        if abs(o.level_used - level) > REPLAY_TOL:
            found.append(f"level_used {o.level_used!r}, re-derived {level!r}")
        if abs(o.e_star - e_star) > REPLAY_TOL:
            found.append(f"e_star {o.e_star!r}, re-derived {e_star!r}")

        reported = dict(o.transfers)
        if len(reported) != len(o.transfers):
            raise ValueError(f"family {name}: duplicate transfer target")
        by_target = []  # (target, violation), sorted by target below
        for dst, amount in transfers:
            got = reported.pop(dst, None)
            if got is None:
                by_target.append((dst, f"missing transfer to {dst}"))
            elif abs(amount - got) > REPLAY_TOL:
                by_target.append((dst, f"transfer to {dst} is {got!r}, re-derived {amount!r}"))
        by_target += [(dst, f"unexpected transfer to {dst}") for dst in reported]
        if found or by_target:
            v += [f"family {name}: {text}" for text in found + [t for _, t in sorted(by_target)]]
        for dst, amount in transfers:
            levels[dst] += amount

    decisions = report.decisions
    if set(decisions) != plan.labels:
        raise ValueError(
            f"decisions cover {sorted(decisions)}, spec labels are {sorted(plan.labels)}"
        )
    for o in report.outcomes:
        rejected = o.rejected
        for label in plan.by_name[o.family].labels:
            want = "S" if label in rejected else "NS"
            if decisions[label] != want:
                v.append(f"decision for {label} is {decisions[label]!r}, not {want}")
    return ValidationOutcome(tuple(v))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

_IN_OUTCOME, _IN_TRANSFER = "\n      ", "\n          "  # where their values' lines start


def report_to_json(report: TestReport) -> str:
    """`dumps` of the report's JSON object, the same text, written by its
    fixed schema: keys in the order `dumps` sorts them into, and no
    intermediate object. Every value goes through `nested`, so a hand-built
    report is written, or refused with TypeError, as `dumps` would."""
    out = ['{\n  "decisions": ', nested(dict(report.decisions), "\n  "), ',\n  "outcomes": ']
    sep = "[\n    "
    for o in report.outcomes:
        out += (
            sep, '{\n      "accepted": ', nested(sorted(o.accepted), _IN_OUTCOME),
            ',\n      "e_star": ', nested(o.e_star, _IN_OUTCOME),
            ',\n      "family": ', nested(o.family, _IN_OUTCOME),
            ',\n      "level": ', nested(o.level_used, _IN_OUTCOME),
            ',\n      "rejected": ', nested(sorted(o.rejected), _IN_OUTCOME),
            ',\n      "transfers": ',
        )
        inner = "[\n        "
        for t in o.transfers:
            out += (
                inner, '{\n          "amount": ', nested(t.amount, _IN_TRANSFER),
                ',\n          "to": ', nested(t.target, _IN_TRANSFER), "\n        }",
            )
            inner = ",\n        "
        out.append("[]\n    }" if inner[0] == "[" else "\n      ]\n    }")
        sep = ",\n    "
    out.append("[]\n}" if sep[0] == "[" else "\n  ]\n}")
    return "".join(out)


_OUTCOME_FIELDS = ("family", "level", "rejected", "accepted", "e_star", "transfers")
_OUTCOME_KEYS, _TRANSFER_KEYS = frozenset(_OUTCOME_FIELDS), frozenset(("to", "amount"))


def _transfer(obj: dict) -> Transfer:
    if obj.keys() != _TRANSFER_KEYS:
        fields(obj, ("to", "amount"), "transfer")  # raises, naming the key
    return Transfer(string(obj["to"], "transfer to"), finite(obj["amount"], "amount"))


def report_from_json(text: str) -> TestReport:
    """Parse `report_to_json` text. Raises SpecFormatError on malformed input."""
    obj = fields(loads(text), ("outcomes", "decisions"), "report")
    outcomes = []
    for i, entry in enumerate(list_of(dict, obj["outcomes"], "outcomes"), start=1):
        if entry.keys() != _OUTCOME_KEYS:
            fields(entry, _OUTCOME_FIELDS, f"outcome {i}")  # raises, naming the key
        try:
            outcomes.append(
                FamilyOutcome(
                    string(entry["family"], "family"),
                    finite(entry["level"], "level"),
                    frozenset(list_of(str, entry["rejected"], "rejected")),
                    frozenset(list_of(str, entry["accepted"], "accepted")),
                    finite(entry["e_star"], "e_star"),
                    tuple(map(_transfer, list_of(dict, entry["transfers"], "transfers"))),
                )
            )
        except SpecFormatError as exc:
            raise SpecFormatError(f"outcome {i}: {exc}") from None
    return TestReport(tuple(outcomes), dict(fields(obj["decisions"], (), "decisions", None)))
