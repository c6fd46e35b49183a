"""Seeded inputs for the benchmark workloads.

Everything here is derived from a `random.Random` seeded by the run's
`--seed`, so one seed always gives the same files and objects. The shapes
(family counts, sizes, procedure kinds, replicate counts) are fixed; the
seed moves only parameters and p-values, which keeps the cost of a run
nearly the same from seed to seed. Draws are used as they come: nothing is
filtered or re-drawn.

This module imports neither gatekeep nor numpy, so the benchmark process
loads the program only where a workload's set-up asks for it.
"""

from __future__ import annotations

import itertools
import json
import random

# The README strategy and p-values, with the decisions and levels that the
# golden acceptance criterion pins for them.
README_SPEC = {
    "alpha": 0.05,
    "layers": [
        [{"id": "F1", "hypotheses": ["H11", "H12", "H13"], "alpha": 0.04,
          "procedure": {"kind": "fixed_sequence", "order": ["H11", "H12", "H13"]}}],
        [{"id": "F2", "hypotheses": ["H21", "H22", "H23"], "alpha": 0.005,
          "procedure": {"kind": "fixed_sequence", "order": ["H21", "H22", "H23"]}},
         {"id": "F3", "hypotheses": ["H31", "H32", "H33"], "alpha": 0.005,
          "procedure": {"kind": "fixed_sequence", "order": ["H31", "H32", "H33"]}}],
    ],
    "transitions": [
        {"from": "F1", "to": "F2", "g": 0.5},
        {"from": "F1", "to": "F3", "g": 0.5},
    ],
}
README_PVALUES = {
    "H11": 0.005, "H12": 0.011, "H13": 0.018,
    "H21": 0.009, "H22": 0.026, "H23": 0.013,
    "H31": 0.010, "H32": 0.006, "H33": 0.051,
}
GOLDEN_DECISIONS = {
    "H11": "S", "H12": "S", "H13": "S",
    "H21": "S", "H22": "NS", "H23": "NS",
    "H31": "S", "H32": "S", "H33": "NS",
}
GOLDEN_LEVELS = {"F1": 0.04, "F2": 0.025, "F3": 0.025}


def _family(fid, labels, alpha, procedure):
    return {"id": fid, "hypotheses": list(labels), "alpha": alpha, "procedure": procedure}


def _triple(prefix):
    return [f"{prefix}1", f"{prefix}2", f"{prefix}3"]


# Three nine-hypothesis strategies, one per `batch_run` path: the fixed
# sequence streak, the sorted step-up rule and the iterated step-down rule.
STEP_UP_SPEC = {
    "alpha": 0.05,
    "layers": [
        [_family("F1", _triple("H1"), 0.04, {"kind": "truncated_hochberg", "gamma": 0.5})],
        [_family("F2", _triple("H2"), 0.005, {"kind": "truncated_hochberg", "gamma": 0.5})],
        [_family("F3", _triple("H3"), 0.005, {"kind": "hochberg"})],
    ],
    "transitions": [
        {"from": "F1", "to": "F2", "g": 0.8},
        {"from": "F1", "to": "F3", "g": 0.2},
        {"from": "F2", "to": "F3", "g": 1.0},
    ],
}
HOLM_CHAIN_SPEC = {
    "alpha": 0.05,
    "layers": [
        [_family("F1", _triple("H1"), 0.05, {"kind": "truncated_holm", "gamma": 0.5})],
        [_family("F2", _triple("H2"), 0.0, {"kind": "truncated_holm", "gamma": 0.5})],
        [_family("F3", _triple("H3"), 0.0, {"kind": "holm"})],
    ],
    "transitions": [
        {"from": "F1", "to": "F2", "g": 1.0},
        {"from": "F2", "to": "F3", "g": 1.0},
    ],
}
SWEEP_STRATEGIES = {
    "fixed_sequence_gate": README_SPEC,
    "step_up_gate": STEP_UP_SPEC,
    "holm_chain": HOLM_CHAIN_SPEC,
}

KINDS = (
    "bonferroni",
    "holm",
    "truncated_holm",
    "hochberg",
    "truncated_hochberg",
    "fixed_sequence",
)

# Fixed shape of the seeded audit strategies: 14 families in 4 layers.
LARGE_LAYOUT = (3, 4, 4, 3)
LARGE_SIZES = (2, 3, 4)


def _procedure(rng: random.Random, kind: str, labels: list[str]) -> dict:
    if kind in ("truncated_holm", "truncated_hochberg"):
        return {"kind": kind, "gamma": rng.uniform(0.1, 0.9)}
    if kind == "fixed_sequence":
        order = list(labels)
        rng.shuffle(order)
        return {"kind": kind, "order": order}
    if kind in ("bonferroni", "holm"):
        raw = [rng.uniform(0.2, 1.0) for _ in labels]
        total = sum(raw)
        return {"kind": kind, "weights": [x / total for x in raw]}
    return {"kind": kind}


def large_strategy(rng: random.Random, tag: str) -> dict:
    """A valid 14-family strategy covering all six procedure kinds.

    Shape and kinds are fixed; the seed sets gammas, weights, the initial
    allocation and the transition coefficients.
    """
    layers, names = [], []
    k = 0
    for i, width in enumerate(LARGE_LAYOUT):
        layer = []
        for j in range(width):
            size = LARGE_SIZES[k % len(LARGE_SIZES)]
            kind = KINDS[k % len(KINDS)]
            name = f"{tag}F{i + 1}{j + 1}"
            labels = [f"{name}H{h + 1}" for h in range(size)]
            layer.append(_family(name, labels, 0.0, _procedure(rng, kind, labels)))
            names.append((i, name))
            k += 1
        layers.append(layer)
    shares = [rng.uniform(0.5, 1.5) for _ in names]
    spend = 0.05 * rng.uniform(0.5, 0.9) / sum(shares)
    for fam, share in zip((f for layer in layers for f in layer), shares):
        fam["alpha"] = share * spend
    transitions = []
    for li, src in names:
        targets = [name for lj, name in names if lj > li]
        if not targets:
            continue
        raw = [rng.uniform(0.0, 1.0) for _ in targets]
        scale = rng.uniform(0.5, 0.95) / sum(raw)
        transitions.extend(
            {"from": src, "to": dst, "g": g * scale} for dst, g in zip(targets, raw)
        )
    return {"alpha": 0.05, "layers": layers, "transitions": transitions}


def labels_of(spec: dict) -> list[str]:
    return [h for layer in spec["layers"] for fam in layer for h in fam["hypotheses"]]


def pvalue_vector(rng: random.Random, labels) -> dict[str, float]:
    """Mostly small p-values, so that rejections and transfers happen."""
    return {
        label: rng.uniform(0.0, 0.06 if rng.random() < 0.7 else 1.0)
        for label in labels
    }


def pvalues_csv(pvalues: dict[str, float]) -> str:
    lines = ["hypothesis,p"]
    lines.extend(f"{label},{p!r}" for label, p in pvalues.items())
    return "\n".join(lines) + "\n"


def twin_parameters(rng: random.Random) -> dict[str, tuple]:
    """Arguments for the four paired strategy functions in `gatekeep.hypgraph`."""
    w1 = rng.uniform(0.2, 0.8)
    return {
        "bonferroni_gate_pair": (rng.uniform(0.025, 0.1),),
        "serial_holm_gate_single": (rng.uniform(0.025, 0.1),),
        "serial_holm_gate_weighted_pair": (rng.uniform(0.025, 0.1), w1, 1.0 - w1),
        "truncated_holm_gate": (rng.uniform(0.025, 0.1), rng.uniform(0.1, 0.9)),
    }


def truth_of(labels, bits) -> dict[str, str]:
    return {
        label: "true_null" if bit else "false_null" for label, bit in zip(labels, bits)
    }


def sweep_configs(rng: random.Random, reps: int) -> tuple[list[dict], int]:
    """Every truth mask of the three sweep strategies, one shared model.

    Returns the config objects and the simulation seed for `--seed`.
    """
    model = {"kind": "independent_uniform", "rho": 0.0, "delta": rng.uniform(2.5, 3.5)}
    configs = []
    for spec in SWEEP_STRATEGIES.values():
        labels = labels_of(spec)
        for bits in itertools.product((True, False), repeat=len(labels)):
            configs.append(
                {"spec": spec, "truth": truth_of(labels, bits), "model": model, "reps": reps}
            )
    return configs, rng.randrange(1 << 31)


def power_config(rng: random.Random, reps: int) -> tuple[dict, int]:
    """One equicorrelated step-up config with a mixed truth assignment."""
    labels = labels_of(STEP_UP_SPEC)
    false_nulls = set(rng.sample(labels, 4))
    model = {
        "kind": "equicorrelated_normal",
        "rho": rng.uniform(0.2, 0.6),
        "delta": rng.uniform(2.5, 3.5),
    }
    truth = truth_of(labels, [label not in false_nulls for label in labels])
    config = {"spec": STEP_UP_SPEC, "truth": truth, "model": model, "reps": reps}
    return config, rng.randrange(1 << 31)


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
