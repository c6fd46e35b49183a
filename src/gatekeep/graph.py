"""Family-graph data model: layers of hypothesis families, initial critical
values, and the transition coefficients that route unspent critical value
from earlier layers to later ones.

A strategy is a directed acyclic graph whose nodes are families, named
uniquely; transitions are keyed by (source name, target name). Validation
messages address family (i, j), the j-th family of the i-th layer, 1-based.
Constraints enforced by :func:`validate_spec`:

  * every transition coefficient lies in [0, 1];
  * coefficients only point at strictly later layers;
  * each family's outgoing coefficients sum to at most 1;
  * the initial critical values sum to at most the global level.

Sum constraints get 1e-12 of slack so strategies written as decimal
literals (0.8 + 0.2) validate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .errors import InvalidSpecError, SpecFormatError
from .jsontext import as_float, as_floats, dumps, loads
from .procedures import KINDS, Kernel, LocalProcedureSpec, check_procedure

SUM_TOL = 1e-12


@dataclass(frozen=True)
class FamilySpec:
    """A family of hypotheses with its local procedure and initial level."""

    name: str
    labels: tuple[str, ...]
    initial_alpha: float
    procedure: LocalProcedureSpec

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class TransitionCoefficients:
    """Sparse map from (source name, target name) to coefficient; absent
    means 0.

    `entries` is a read-only copy of the mapping it is built with, so that
    a spec's cached plan cannot go stale.
    """

    entries: Mapping[tuple[str, str], float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))

    def __reduce__(self):
        return TransitionCoefficients, (dict(self.entries),)

    def items(self):
        return self.entries.items()


@dataclass(frozen=True)
class Plan:
    """A validated spec resolved for execution; see `GraphSpec.plan`."""

    families: tuple[FamilySpec, ...]  # execution order
    by_name: Mapping[str, FamilySpec]
    position: Mapping[str, int]  # by name: place in execution order
    kernels: Mapping[str, Kernel]  # by name
    labels: frozenset[str]
    # by source name: (target name, g) for each g > 0, targets in execution order
    edges: Mapping[str, tuple[tuple[str, float], ...]]
    # by target name: (source name, g) for each g > 0, sources in execution order
    sources: Mapping[str, tuple[tuple[str, float], ...]]


@dataclass(frozen=True)
class GraphSpec:
    """A complete strategy: global level, layered families, transitions."""

    global_alpha: float
    layers: tuple[tuple[FamilySpec, ...], ...]
    transitions: TransitionCoefficients

    def families(self) -> Iterator[FamilySpec]:
        """All families in execution order (layer by layer, declared order)."""
        for layer in self.layers:
            yield from layer

    def labels(self) -> tuple[str, ...]:
        return tuple(label for fam in self.families() for label in fam.labels)

    @cached_property
    def plan(self) -> Plan:
        """The execution plan, built once per spec object.

        Raises InvalidSpecError if the spec does not validate; then nothing
        is cached, so every access raises again.
        """
        outcome = validate_spec(self)
        if not outcome.ok:
            raise InvalidSpecError(outcome.violations)
        families = tuple(self.families())
        edges: dict[str, list[tuple[str, float]]] = {fam.name: [] for fam in families}
        sources: dict[str, list[tuple[str, float]]] = {fam.name: [] for fam in families}
        for (src, dst), g in _in_order(self):
            if g > 0.0:
                edges[src].append((dst, g))
                sources[dst].append((src, g))
        return Plan(
            families=families,
            by_name={fam.name: fam for fam in families},
            position={fam.name: k for k, fam in enumerate(families)},
            kernels={
                fam.name: Kernel.of(fam.procedure, fam.size, fam.labels) for fam in families
            },
            labels=frozenset(self.labels()),
            edges={name: tuple(out) for name, out in edges.items()},
            sources={name: tuple(into) for name, into in sources.items()},
        )


def _in_order(spec: GraphSpec) -> list[tuple[tuple[str, str], float]]:
    """The transition entries by the execution positions of source, then
    target; names the spec does not have go last, by name."""
    position = {fam.name: k for k, fam in enumerate(spec.families())}
    last = len(position)
    return sorted(
        spec.transitions.entries.items(),
        key=lambda e: tuple((position.get(name, last), name) for name in e[0]),
    )


@dataclass(frozen=True)
class ValidationOutcome:
    """Result of a structural check: ok, or the full list of violations."""

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def make_spec(
    alpha: float,
    layers: Sequence[Sequence[tuple[str, Sequence[str], float, LocalProcedureSpec]]],
    transitions: Mapping[tuple[str, str], float] | None = None,
) -> GraphSpec:
    """Build a GraphSpec from name-keyed pieces.

    `layers` is a list of layers; each layer lists families as
    (name, hypothesis_labels, initial_alpha, procedure) tuples. `transitions`
    maps (source_name, target_name) to a coefficient. Raises
    SpecFormatError when names do not resolve; constraint checking is left
    to :func:`validate_spec`.
    """
    built_layers: list[tuple[FamilySpec, ...]] = []
    names: set[str] = set()
    for layer in layers:
        fams = []
        for name, labels, a0, proc in layer:
            if name in names:
                raise SpecFormatError(f"duplicate family name {name!r}")
            names.add(name)
            fams.append(FamilySpec(name, tuple(str(label) for label in labels), float(a0), proc))
        built_layers.append(tuple(fams))
    entries: dict[tuple[str, str], float] = {}
    for (src, dst), g in (transitions or {}).items():
        for name in (src, dst):
            if name not in names:
                raise SpecFormatError(f"transition references unknown family {name!r}")
        entries[(src, dst)] = float(g)
    return GraphSpec(float(alpha), tuple(built_layers), TransitionCoefficients(entries))


def validate_spec(spec: GraphSpec) -> ValidationOutcome:
    """Check every structural constraint; report all violations, no short-circuit."""
    v: list[str] = []
    if not 0.0 <= spec.global_alpha <= 1.0:
        v.append(f"global alpha {spec.global_alpha!r} outside [0, 1]")
    if not spec.layers:
        v.append("no layers")

    address: dict[str, tuple[int, int]] = {}
    labels: dict[str, str] = {}
    alpha_sum = 0.0
    for i, layer in enumerate(spec.layers, start=1):
        if not layer:
            v.append(f"layer {i} is empty")
        for j, fam in enumerate(layer, start=1):
            where = f"family {fam.name}"
            if fam.name in address:
                v.append(f"duplicate family name {fam.name!r}")
            address[fam.name] = (i, j)
            if fam.size < 1:
                v.append(f"{where}: no hypotheses")
            if not 0.0 <= fam.initial_alpha <= 1.0:
                v.append(f"{where}: initial alpha {fam.initial_alpha!r} outside [0, 1]")
            alpha_sum += fam.initial_alpha
            for label in fam.labels:
                if label in labels:
                    v.append(
                        f"duplicate hypothesis label {label!r} "
                        f"(in {labels[label]} and {fam.name})"
                    )
                labels[label] = fam.name
            for problem in check_procedure(fam.procedure, fam.size, fam.labels):
                v.append(f"{where}: {problem}")

    if alpha_sum > spec.global_alpha + SUM_TOL:
        v.append(
            f"initial alphas sum to {alpha_sum!r}, "
            f"exceeding global alpha {spec.global_alpha!r}"
        )

    row_sums: dict[str, float] = {}  # by source, in execution order
    for (src, dst), g in _in_order(spec):
        edge = f"transition {address.get(src, src)} -> {address.get(dst, dst)}"
        if src not in address or dst not in address:
            v.append(f"{edge}: unknown family")
            continue
        if not 0.0 <= g <= 1.0:
            v.append(f"{edge}: coefficient {g!r} outside [0, 1]")
        if address[src][0] >= address[dst][0]:
            v.append(
                f"backward edge {edge}: coefficient must be 0 "
                f"unless the target layer is strictly later"
            )
        row_sums[src] = row_sums.get(src, 0.0) + g
    for src, total in row_sums.items():
        if total > 1.0 + SUM_TOL:
            v.append(f"row sum {total!r} > 1 for family {src}")

    return ValidationOutcome(tuple(v))


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    """Compact, deterministic float rendering for labels ("0.8", "1")."""
    if x == int(x):
        return str(int(x))
    return repr(x)


def to_dot(spec: GraphSpec) -> str:
    """Render the family graph as deterministic DOT text.

    One node per family labeled "name (alpha)", one edge per nonzero
    coefficient labeled with its value. Identical specs produce identical
    bytes. Raises InvalidSpecError if the spec does not validate.
    """
    plan = spec.plan
    lines = ["digraph families {", "  rankdir=LR;"]
    for fam in plan.families:
        lines.append(
            f'  "{fam.name}" [label="{fam.name} ({format_float(fam.initial_alpha)})"];'
        )
    for fam in plan.families:
        for dst, g in plan.edges[fam.name]:
            lines.append(f'  "{fam.name}" -> "{dst}" [label="{format_float(g)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _procedure_to_obj(proc: LocalProcedureSpec) -> dict:
    obj: dict = {"kind": proc.kind}
    if proc.gamma is not None:
        obj["gamma"] = proc.gamma
    if proc.weights is not None:
        obj["weights"] = list(proc.weights)
    if proc.order is not None:
        obj["order"] = list(proc.order)
    return obj


def _procedure_from_obj(obj, where: str) -> LocalProcedureSpec:
    if not isinstance(obj, dict):
        raise SpecFormatError(f"{where}: procedure must be an object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise SpecFormatError(f"{where}: unknown procedure kind {kind!r}")
    gamma = obj.get("gamma")
    if gamma is not None:
        gamma = as_float(gamma)
        if gamma is None:
            raise SpecFormatError(f"{where}: gamma must be a number")
    weights = obj.get("weights")
    if weights is not None:
        weights = as_floats(weights)
        if weights is None:
            raise SpecFormatError(f"{where}: weights must be a list of numbers")
    order = obj.get("order")
    if order is not None:
        if not isinstance(order, list) or not all(isinstance(s, str) for s in order):
            raise SpecFormatError(f"{where}: order must be a list of labels")
        order = tuple(order)
    return LocalProcedureSpec(kind, gamma=gamma, weights=weights, order=order)


def spec_to_json(spec: GraphSpec, indent: int | None = 2) -> str:
    """Serialize to the spec-file schema; lossless float round-trip."""
    obj = {
        "alpha": spec.global_alpha,
        "layers": [
            [
                {
                    "id": fam.name,
                    "hypotheses": list(fam.labels),
                    "alpha": fam.initial_alpha,
                    "procedure": _procedure_to_obj(fam.procedure),
                }
                for fam in layer
            ]
            for layer in spec.layers
        ],
        "transitions": [
            {"from": src, "to": dst, "g": g} for (src, dst), g in _in_order(spec)
        ],
    }
    return dumps(obj, indent)


def spec_from_json(text: str) -> GraphSpec:
    """Parse the spec-file schema. Raises SpecFormatError on malformed input."""
    obj = loads(text)
    if not isinstance(obj, dict):
        raise SpecFormatError("top level must be an object")
    for key in ("alpha", "layers"):
        if key not in obj:
            raise SpecFormatError(f"missing required key {key!r}")
    alpha = as_float(obj["alpha"])
    if alpha is None:
        raise SpecFormatError("alpha must be a number")
    if not isinstance(obj["layers"], list):
        raise SpecFormatError("layers must be a list of lists")

    layers = []
    for i, layer in enumerate(obj["layers"], start=1):
        if not isinstance(layer, list):
            raise SpecFormatError(f"layer {i} must be a list")
        fams = []
        for j, fam in enumerate(layer, start=1):
            where = f"layer {i}, family {j}"
            if not isinstance(fam, dict):
                raise SpecFormatError(f"{where}: must be an object")
            for key in ("id", "hypotheses", "alpha", "procedure"):
                if key not in fam:
                    raise SpecFormatError(f"{where}: missing key {key!r}")
            if not isinstance(fam["id"], str):
                raise SpecFormatError(f"{where}: id must be a string")
            hyps = fam["hypotheses"]
            if not isinstance(hyps, list) or not all(isinstance(h, str) for h in hyps):
                raise SpecFormatError(f"{where}: hypotheses must be a list of labels")
            fam_alpha = as_float(fam["alpha"])
            if fam_alpha is None:
                raise SpecFormatError(f"{where}: alpha must be a number")
            proc = _procedure_from_obj(fam["procedure"], where)
            fams.append((fam["id"], hyps, fam_alpha, proc))
        layers.append(fams)

    entries = obj.get("transitions", [])
    if not isinstance(entries, list):
        raise SpecFormatError("transitions must be a list")
    transitions: dict[tuple[str, str], float] = {}
    for t, entry in enumerate(entries, start=1):
        where = f"transition {t}"
        if not isinstance(entry, dict):
            raise SpecFormatError(f"{where}: must be an object")
        for key in ("from", "to", "g"):
            if key not in entry:
                raise SpecFormatError(f"{where}: missing key {key!r}")
        g = as_float(entry["g"])
        if g is None:
            raise SpecFormatError(f"{where}: g must be a number")
        pair = (entry["from"], entry["to"])
        if not all(isinstance(name, str) for name in pair):
            raise SpecFormatError(f"{where}: from and to must be family ids")
        if pair in transitions:
            raise SpecFormatError(f"{where}: duplicate edge {pair[0]!r} -> {pair[1]!r}")
        transitions[pair] = g

    return make_spec(alpha, layers, transitions)
