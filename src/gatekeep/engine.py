"""Execution engine for family-based gatekeeping strategies.

Layers are processed first to last. Testing a family consumes its current
critical value; the unspent part, level - e*(accepted), is split among
later families according to the family's outgoing transition coefficients,
whose entries are then zeroed. Families inside one layer never exchange
critical value (such edges are invalid), so within-layer order cannot
change the outcome; `run` uses declared order for a deterministic audit
trail.

`step` advances one family at a time and never mutates its input state, so
callers can fork execution paths. `replay` re-derives every level, bound
and transfer from a report's rejection sets, catching corrupted or
hand-edited reports. All three apply one update rule, `_advance`, and test
with the kernels of the spec's plan (`GraphSpec.plan`), which is validated
and resolved once per spec object.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from .errors import SpecFormatError
from .graph import FamilySpec, GraphSpec, ValidationOutcome
from .jsontext import dumps, fields, finite, list_of, loads, string
from .procedures import Kernel

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
    """Snapshot between steps: untested families, current levels, live edges."""

    remaining: tuple[frozenset[str], ...]
    current_alpha: Mapping[str, float]
    current_g: Mapping[tuple[str, str], float]


def initial_state(spec: GraphSpec) -> ExecutionState:
    return ExecutionState(
        remaining=tuple(frozenset(fam.name for fam in layer) for layer in spec.layers),
        current_alpha={fam.name: fam.initial_alpha for fam in spec.families()},
        current_g=dict(spec.transitions.entries),
    )


def _check_pvalues(families: Iterable[FamilySpec], pvalues: Mapping[str, float]) -> None:
    for fam in families:
        for k, label in enumerate(fam.labels, start=1):
            p = pvalues[label]
            if not 0.0 <= p <= 1.0:  # NaN included
                raise ValueError(f"p-value {p!r} at position {k} outside [0, 1]")


def _advance(kernel: Kernel, level: float, accepted, edges):
    """The update rules after testing a family at `level`: its bound
    e*(accepted) and one transfer of (level - e*) * g per (target, g) edge,
    in edge order."""
    e_star = kernel.e_star(level, accepted)
    return e_star, tuple(Transfer(dst, (level - e_star) * g) for dst, g in edges)


def _test(
    fam: FamilySpec, kernel: Kernel, level: float, pvalues: Mapping[str, float], edges
) -> FamilyOutcome:
    """Test `fam` at `level` and advance along `edges`."""
    labels = fam.labels
    rejected_idx = kernel.test(tuple(pvalues[label] for label in labels), level)
    accepted_idx = frozenset(range(1, fam.size + 1)) - rejected_idx
    e_star, transfers = _advance(kernel, level, accepted_idx, edges)
    return FamilyOutcome(
        family=fam.name,
        level_used=level,
        rejected=frozenset(labels[k - 1] for k in rejected_idx),
        accepted=frozenset(labels[k - 1] for k in accepted_idx),
        e_star=e_star,
        transfers=transfers,
    )


def step(
    spec: GraphSpec,
    state: ExecutionState,
    family: str,
    pvalues: Mapping[str, float],
) -> tuple[FamilyOutcome, ExecutionState]:
    """Test one family and return (outcome, next state); `state` is unchanged.

    The family must be untested and belong to the earliest layer that still
    has untested families. Its level and edges come from `state`; a forked
    or hand-edited one is followed if its edges lead to later untested layers.
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
    fam = plan.by_name[family]
    level = state.current_alpha[family]
    _check_pvalues((fam,), pvalues)
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"level {level!r} outside [0, 1]")
    edges = [(dst, g) for (src, dst), g in state.current_g.items() if src == family and g > 0.0]
    for dst, _ in edges:
        later = state.remaining[layer_idx + 1 :]
        if dst not in plan.position or not any(dst in layer for layer in later):
            raise ValueError(f"edge {family!r} -> {dst!r} must reach an untested later layer")
    edges.sort(key=lambda e: plan.position[e[0]])
    outcome = _test(fam, plan.kernels[family], level, pvalues, edges)

    new_alpha = dict(state.current_alpha)
    for t in outcome.transfers:
        new_alpha[t.target] += t.amount
    new_g = {edge: g for edge, g in state.current_g.items() if edge[0] != family}
    new_remaining = tuple(
        layer - {family} if i == layer_idx else layer
        for i, layer in enumerate(state.remaining)
    )
    return outcome, ExecutionState(new_remaining, new_alpha, new_g)


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
    _check_pvalues(plan.families, pvalues)

    levels = {fam.name: fam.initial_alpha for fam in plan.families}
    outcomes = []
    decisions = {}
    for fam in plan.families:
        result = _test(
            fam, plan.kernels[fam.name], levels[fam.name], pvalues, plan.edges[fam.name]
        )
        for t in result.transfers:
            levels[t.target] += t.amount
        decisions.update(dict.fromkeys(result.rejected, "S"))
        decisions.update(dict.fromkeys(result.accepted, "NS"))
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
        fam = plan.by_name[o.family]
        where = f"family {o.family}"
        while not untested[current]:
            current += 1
        if o.family not in untested[current]:
            raise ValueError(
                f"{where}: tested out of order (layer {current + 1} was current)"
            )
        untested[current].remove(o.family)

        if o.rejected | o.accepted != set(fam.labels) or (o.rejected & o.accepted):
            raise ValueError(
                f"{where}: rejected/accepted do not partition the hypotheses"
            )

        level = levels[o.family]
        if abs(o.level_used - level) > REPLAY_TOL:
            v.append(
                f"{where}: level_used {o.level_used!r}, re-derived {level!r}"
            )
        accepted_idx = frozenset(
            k for k, label in enumerate(fam.labels, start=1) if label in o.accepted
        )
        e_star, transfers = _advance(
            plan.kernels[o.family], level, accepted_idx, plan.edges[o.family]
        )
        if abs(o.e_star - e_star) > REPLAY_TOL:
            v.append(f"{where}: e_star {o.e_star!r}, re-derived {e_star!r}")

        derived = {t.target: t.amount for t in transfers}
        reported = {t.target: t.amount for t in o.transfers}
        if len(reported) != len(o.transfers):
            raise ValueError(f"{where}: duplicate transfer target")
        for dst in sorted(set(derived) | set(reported)):
            if dst not in derived:
                v.append(f"{where}: unexpected transfer to {dst}")
            elif dst not in reported:
                v.append(f"{where}: missing transfer to {dst}")
            elif abs(derived[dst] - reported[dst]) > REPLAY_TOL:
                v.append(
                    f"{where}: transfer to {dst} is {reported[dst]!r}, "
                    f"re-derived {derived[dst]!r}"
                )
        for t in transfers:
            levels[t.target] += t.amount

    decided = set(report.decisions)
    if decided != plan.labels:
        raise ValueError(
            f"decisions cover {sorted(decided)}, spec labels are {sorted(plan.labels)}"
        )
    for o in report.outcomes:
        for label in o.rejected:
            if report.decisions[label] != "S":
                v.append(f"decision for {label} is {report.decisions[label]!r}, not S")
        for label in o.accepted:
            if report.decisions[label] != "NS":
                v.append(f"decision for {label} is {report.decisions[label]!r}, not NS")
    return ValidationOutcome(tuple(v))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def report_to_json(report: TestReport) -> str:
    obj = {
        "outcomes": [
            {
                "family": o.family,
                "level": o.level_used,
                "rejected": sorted(o.rejected),
                "accepted": sorted(o.accepted),
                "e_star": o.e_star,
                "transfers": [
                    {"to": t.target, "amount": t.amount} for t in o.transfers
                ],
            }
            for o in report.outcomes
        ],
        "decisions": dict(sorted(report.decisions.items())),
    }
    return dumps(obj)


def _transfer(obj) -> Transfer:
    fields(obj, ("to", "amount"), "transfer")
    return Transfer(string(obj["to"], "transfer to"), finite(obj["amount"], "amount"))


def report_from_json(text: str) -> TestReport:
    """Parse `report_to_json` text. Raises SpecFormatError on malformed input."""
    obj = fields(loads(text), ("outcomes", "decisions"), "report")
    outcomes = []
    for i, entry in enumerate(list_of(dict, obj["outcomes"], "outcomes"), start=1):
        keys = ("family", "level", "rejected", "accepted", "e_star", "transfers")
        fields(entry, keys, f"outcome {i}")
        try:
            outcomes.append(
                FamilyOutcome(
                    family=string(entry["family"], "family"),
                    level_used=finite(entry["level"], "level"),
                    rejected=frozenset(list_of(str, entry["rejected"], "rejected")),
                    accepted=frozenset(list_of(str, entry["accepted"], "accepted")),
                    e_star=finite(entry["e_star"], "e_star"),
                    transfers=tuple(
                        map(_transfer, list_of(dict, entry["transfers"], "transfers"))
                    ),
                )
            )
        except SpecFormatError as exc:
            raise SpecFormatError(f"outcome {i}: {exc}") from None
    return TestReport(tuple(outcomes), dict(fields(obj["decisions"], (), "decisions", None)))
