"""Shared strategy builders and generators for the test suite."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

import gatekeep as gk
from gatekeep import procedures as proc

# Nine-endpoint dose-comparison p-values used by the golden tests: three
# families (one per endpoint), three dose levels each.
TABLE_PVALUES = {
    "H11": 0.005, "H12": 0.011, "H13": 0.018,
    "H21": 0.009, "H22": 0.026, "H23": 0.013,
    "H31": 0.010, "H32": 0.006, "H33": 0.051,
}

NINE = tuple(sorted(TABLE_PVALUES))


def two_layer_fixed_sequence_spec() -> gk.GraphSpec:
    """Fixed-sequence locals; secondary families share layer 2 and split
    the primary family's unspent level equally."""
    return gk.make_spec(
        0.05,
        [
            [("F1", ["H11", "H12", "H13"], 0.04,
              proc.fixed_sequence(["H11", "H12", "H13"]))],
            [("F2", ["H21", "H22", "H23"], 0.005,
              proc.fixed_sequence(["H21", "H22", "H23"])),
             ("F3", ["H31", "H32", "H33"], 0.005,
              proc.fixed_sequence(["H31", "H32", "H33"]))],
        ],
        {("F1", "F2"): 0.5, ("F1", "F3"): 0.5},
    )


def three_layer_step_up_spec() -> gk.GraphSpec:
    """Truncated-Hochberg locals on the first two layers, Hochberg last;
    the primary family splits 0.8/0.2 between the two secondaries."""
    return gk.make_spec(
        0.05,
        [
            [("F1", ["H11", "H12", "H13"], 0.04, proc.truncated_hochberg(0.5))],
            [("F2", ["H21", "H22", "H23"], 0.005, proc.truncated_hochberg(0.5))],
            [("F3", ["H31", "H32", "H33"], 0.005, proc.hochberg())],
        ],
        {("F1", "F2"): 0.8, ("F1", "F3"): 0.2, ("F2", "F3"): 1.0},
    )


def serial_chain_spec(gamma: float = 0.5) -> gk.GraphSpec:
    """Three-family chain, all level starts at the front: alpha, 0, 0."""
    return gk.make_spec(
        0.05,
        [
            [("F1", ["H11", "H12", "H13"], 0.05, proc.truncated_holm(gamma))],
            [("F2", ["H21", "H22", "H23"], 0.0, proc.truncated_holm(gamma))],
            [("F3", ["H31", "H32", "H33"], 0.0, proc.holm())],
        ],
        {("F1", "F2"): 1.0, ("F2", "F3"): 1.0},
    )


def parallel_split_spec(gamma: float = 0.5) -> gk.GraphSpec:
    """Chain variant where F1 also feeds F3 directly (0.8 / 0.2 split) and
    every family starts with its own nonzero level."""
    return gk.make_spec(
        0.05,
        [
            [("F1", ["H11", "H12", "H13"], 0.04, proc.truncated_holm(gamma))],
            [("F2", ["H21", "H22", "H23"], 0.005, proc.truncated_holm(gamma))],
            [("F3", ["H31", "H32", "H33"], 0.005, proc.holm())],
        ],
        {("F1", "F2"): 0.8, ("F1", "F3"): 0.2, ("F2", "F3"): 1.0},
    )


def all_true_null(spec: gk.GraphSpec) -> dict[str, str]:
    return {label: "true_null" for label in spec.labels()}


# ---------------------------------------------------------------------------
# Random strategy generation for property tests
# ---------------------------------------------------------------------------


def random_procedure(rng: np.random.Generator, labels) -> gk.LocalProcedureSpec:
    n = len(labels)
    kind = str(rng.choice(list(proc.KINDS)))
    if kind in ("truncated_holm", "truncated_hochberg"):
        return gk.LocalProcedureSpec(kind, gamma=float(rng.uniform(0.0, 0.95)))
    if kind == "fixed_sequence":
        order = list(labels)
        rng.shuffle(order)
        return proc.fixed_sequence(order)
    if kind in ("bonferroni", "holm") and rng.random() < 0.5:
        w = rng.dirichlet(np.ones(n))
        return gk.LocalProcedureSpec(kind, weights=tuple(float(x) for x in w))
    return gk.LocalProcedureSpec(kind)


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


def every_form(kind: str, labels: list[str], rng) -> list[gk.LocalProcedureSpec]:
    """`procedure_of`, and for Bonferroni and Holm also default weights."""
    forms = [procedure_of(kind, labels, rng)]
    if kind in ("bonferroni", "holm"):
        forms.append(gk.LocalProcedureSpec(kind))
    return forms


def random_spec(
    rng: np.random.Generator,
    max_layers: int = 3,
    max_families: int = 2,
    max_size: int = 4,
    kinds: tuple[str, ...] | None = None,
) -> gk.GraphSpec:
    """A random valid strategy; every draw is derived from `rng`."""
    alpha = float(rng.uniform(0.01, 0.2))
    n_layers = int(rng.integers(1, max_layers + 1))
    label_counter = 0
    layers = []
    names = []
    for i in range(n_layers):
        layer = []
        for j in range(int(rng.integers(1, max_families + 1))):
            size = int(rng.integers(1, max_size + 1))
            labels = [f"H{label_counter + k + 1}" for k in range(size)]
            label_counter += size
            name = f"F{i + 1}{j + 1}"
            if kinds is None:
                procedure = random_procedure(rng, labels)
            else:
                kind = str(rng.choice(list(kinds)))
                if kind == "fixed_sequence":
                    order = list(labels)
                    rng.shuffle(order)
                    procedure = proc.fixed_sequence(order)
                elif kind in ("truncated_holm", "truncated_hochberg"):
                    procedure = gk.LocalProcedureSpec(kind, gamma=float(rng.uniform(0, 0.95)))
                else:
                    procedure = gk.LocalProcedureSpec(kind)
            layer.append((name, labels, 0.0, procedure))
            names.append((i, name))
        layers.append(layer)

    # initial levels: a random sub-allocation of alpha
    shares = rng.dirichlet(np.ones(len(names))) * alpha * float(rng.uniform(0.3, 1.0))
    k = 0
    for layer in layers:
        for idx in range(len(layer)):
            name, labels, _, procedure = layer[idx]
            layer[idx] = (name, labels, float(shares[k]), procedure)
            k += 1

    transitions = {}
    for li, src in names:
        targets = [name for lj, name in names if lj > li]
        if not targets:
            continue
        raw = rng.uniform(0.0, 1.0, size=len(targets))
        raw *= float(rng.uniform(0.0, 1.0)) / max(raw.sum(), 1e-9)
        for t, g in zip(targets, raw):
            if g > 1e-3:
                transitions[(src, t)] = float(min(g, 1.0))
    return gk.make_spec(alpha, layers, transitions)


def random_pvalues(rng: np.random.Generator, spec: gk.GraphSpec) -> dict[str, float]:
    # Mix of small and moderate values so transfers actually fire.
    return {
        label: float(rng.uniform(0.0, 0.3 if rng.random() < 0.7 else 1.0))
        for label in spec.labels()
    }


def fold(values) -> float:
    """Added left to right, one term at a time, as the kernel adds weights
    (from Python 3.12 on, `sum` compensates and can differ in the last bit)."""
    total = 0.0
    for x in values:
        total += x
    return total


def exact_spec(spec: gk.GraphSpec) -> gk.GraphSpec:
    """`spec` rebuilt with `Fraction(x)` (a float's exact value) for every
    number, and `Fraction(1, n)` for default Bonferroni/Holm weights, so
    that the engine runs it in exact arithmetic."""
    def family(fam: gk.FamilySpec) -> gk.FamilySpec:
        p = fam.procedure
        weights = p.weights and tuple(map(Fraction, p.weights))
        if p.kind in ("bonferroni", "holm") and weights is None:
            weights = (Fraction(1, fam.size),) * fam.size
        gamma = None if p.gamma is None else Fraction(p.gamma)
        procedure = gk.LocalProcedureSpec(p.kind, gamma, weights, p.order)
        return gk.FamilySpec(fam.name, fam.labels, Fraction(fam.initial_alpha), procedure)

    return gk.GraphSpec(
        Fraction(spec.global_alpha),
        tuple(tuple(map(family, layer)) for layer in spec.layers),
        gk.TransitionCoefficients({edge: Fraction(g) for edge, g in spec.transitions.items()}),
    )


def rejected_labels(report: gk.TestReport) -> frozenset[str]:
    return frozenset(l for l, d in report.decisions.items() if d == "S")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# JSON booleans where a number belongs
# ---------------------------------------------------------------------------

SPEC_NUMBER_FIELDS = ("alpha", "family alpha", "g", "gamma", "weights")
GRAPH_NUMBER_FIELDS = ("alpha", "weights", "transitions")


def spec_text_with_true(field: str) -> str:
    """A valid spec file with one number (in `field`) replaced by `true`."""
    spec = gk.make_spec(
        0.05,
        [
            [("F1", ["H1", "H2"], 0.03, proc.truncated_holm(0.5))],
            [("F2", ["H3", "H4"], 0.02, proc.holm([0.5, 0.5]))],
        ],
        {("F1", "F2"): 1.0},
    )
    obj = json.loads(gk.spec_to_json(spec))
    if field == "alpha":
        obj["alpha"] = True
    elif field == "family alpha":
        obj["layers"][0][0]["alpha"] = True
    elif field == "g":
        obj["transitions"][0]["g"] = True
    elif field == "gamma":
        obj["layers"][0][0]["procedure"]["gamma"] = True
    else:
        obj["layers"][1][0]["procedure"]["weights"] = [True, 0]
    return json.dumps(obj)


def graph_text_with_true(field: str) -> str:
    """A valid oracle graph file with one number (in `field`) replaced by `true`."""
    obj = {"alpha": 0.05, "hypotheses": ["A", "B"], "weights": [1, 0],
           "transitions": [[0, 1], [1, 0]]}
    if field == "alpha":
        obj["alpha"] = True
    elif field == "weights":
        obj["weights"] = [True, 0]
    else:
        obj["transitions"] = [[0, True], [1, 0]]
    return json.dumps(obj)
