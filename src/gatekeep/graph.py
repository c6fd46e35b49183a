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

from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

from .errors import InvalidSpecError, SpecFormatError
from .jsontext import dumps, fields, list_of, loads, number, numbers, string
from .procedures import KINDS, Kernel, LocalProcedureSpec, check_procedure

SUM_TOL = 1e-12


class FamilySpec(NamedTuple):
    """A family of hypotheses with its local procedure and initial level."""

    name: str
    labels: tuple[str, ...]
    initial_alpha: float
    procedure: LocalProcedureSpec

    @property
    def size(self) -> int:
        return len(self.labels)


class _Entries(NamedTuple):
    entries: Mapping[tuple[str, str], float]


class TransitionCoefficients(_Entries):
    """Sparse map from (source name, target name) to coefficient; absent
    means 0.

    `entries` is a read-only copy of the mapping it is built with, so that
    a spec's cached plan cannot go stale.
    """

    __slots__ = ()

    def __new__(cls, entries: Mapping[tuple[str, str], float]):
        return super().__new__(cls, MappingProxyType(dict(entries)))

    @classmethod
    def _make(cls, iterable):  # _replace calls it; tuple.__new__ would skip the copy
        return cls(*iterable)

    def __reduce__(self):
        return TransitionCoefficients, (dict(self.entries),)

    def items(self):
        return self.entries.items()


class Plan(NamedTuple):
    """A validated spec resolved for execution; see `GraphSpec.plan`."""

    families: tuple[FamilySpec, ...]  # execution order
    by_name: Mapping[str, FamilySpec]
    kernels: Mapping[str, Kernel]  # by name
    labels: frozenset[str]
    order: tuple[str, ...]  # every label, family by family in execution order
    columns: Mapping[str, slice]  # by name: its labels' positions in `order`
    # by source name: (target name, g) for each g > 0, targets in execution order
    edges: Mapping[str, tuple[tuple[str, float], ...]]
    # by target name: (source name, g) for each g > 0, sources in execution order
    sources: Mapping[str, tuple[tuple[str, float], ...]]


class _GraphSpec(NamedTuple):
    global_alpha: float
    layers: tuple[tuple[FamilySpec, ...], ...]
    transitions: TransitionCoefficients


class GraphSpec(_GraphSpec):
    """A complete strategy: global level, layered families, transitions.

    Its `__dict__` holds the cached `plan` only; copies and pickles leave it out.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: GraphSpec is read-only")

    def __reduce__(self):
        return GraphSpec, tuple(self)

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
        order = self.labels()
        columns, start = {}, 0
        for fam in families:
            columns[fam.name] = slice(start, start + fam.size)
            start += fam.size
        edges: dict[str, list[tuple[str, float]]] = {fam.name: [] for fam in families}
        sources: dict[str, list[tuple[str, float]]] = {fam.name: [] for fam in families}
        for (src, dst), g in _in_order(self):
            if g > 0.0:
                edges[src].append((dst, g))
                sources[dst].append((src, g))
        return Plan(
            families=families,
            by_name={fam.name: fam for fam in families},
            kernels={
                fam.name: Kernel.of(fam.procedure, fam.size, fam.labels) for fam in families
            },
            labels=frozenset(order),
            order=order,
            columns=columns,
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


class ValidationOutcome(NamedTuple):
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


def _quoted(text: str) -> str:
    """`text` as a DOT quoted string, with backslash and quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(spec: GraphSpec) -> str:
    """Render the family graph as deterministic DOT text.

    One node per family labeled "name (alpha)", one edge per nonzero
    coefficient labeled with its value; ids and labels are quoted by
    `_quoted`. Identical specs produce identical bytes. Raises
    InvalidSpecError if the spec does not validate.
    """
    plan = spec.plan
    lines = ["digraph families {", "  rankdir=LR;"]
    for fam in plan.families:
        label = f"{fam.name} ({format_float(fam.initial_alpha)})"
        lines.append(f"  {_quoted(fam.name)} [label={_quoted(label)}];")
    for fam in plan.families:
        for dst, g in plan.edges[fam.name]:
            edge = f"{_quoted(fam.name)} -> {_quoted(dst)}"
            lines.append(f"  {edge} [label={_quoted(format_float(g))}];")
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
    obj = fields(obj, (), f"{where}: procedure", ("kind", "gamma", "weights", "order"))
    kind = obj.get("kind")
    if kind not in KINDS:
        raise SpecFormatError(f"{where}: unknown procedure kind {kind!r}")
    gamma, weights, order = (obj.get(key) for key in ("gamma", "weights", "order"))
    return LocalProcedureSpec(
        kind,
        gamma=None if gamma is None else number(gamma, f"{where}: gamma"),
        weights=None if weights is None else numbers(weights, f"{where}: weights"),
        order=None if order is None else tuple(list_of(str, order, f"{where}: order")),
    )


def spec_to_json(spec: GraphSpec) -> str:
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
    return dumps(obj)


def spec_from_json(text: str) -> GraphSpec:
    """Parse the spec-file schema. Raises SpecFormatError on malformed input."""
    obj = fields(loads(text), ("alpha", "layers"), "spec", ("transitions",))
    alpha = number(obj["alpha"], "alpha")
    layers = []
    for i, layer in enumerate(list_of(list, obj["layers"], "layers"), start=1):
        fams = []
        for j, fam in enumerate(layer, start=1):
            where = f"layer {i}, family {j}"
            fam = fields(fam, ("id", "hypotheses", "alpha", "procedure"), where)
            fams.append((
                string(fam["id"], f"{where}: id"),
                list_of(str, fam["hypotheses"], f"{where}: hypotheses"),
                number(fam["alpha"], f"{where}: alpha"),
                _procedure_from_obj(fam["procedure"], where),
            ))
        layers.append(fams)

    transitions: dict[tuple[str, str], float] = {}
    for t, entry in enumerate(list_of(dict, obj.get("transitions", []), "transitions"), 1):
        where = f"transition {t}"
        entry = fields(entry, ("from", "to", "g"), where)
        g = number(entry["g"], f"{where}: g")
        pair = (string(entry["from"], f"{where}: from"), string(entry["to"], f"{where}: to"))
        if pair in transitions:
            raise SpecFormatError(f"{where}: duplicate edge {pair[0]!r} -> {pair[1]!r}")
        transitions[pair] = g

    return make_spec(alpha, layers, transitions)
