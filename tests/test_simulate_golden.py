"""Pinned `gatekeep simulate` output.

The sha256 of stdout and of the CSV for a 64-mask sweep and for one
equicorrelated power config are fixed. They change only when the score
stream, the p-value transform, the evaluation or the number formatting
changes; such a change must be deliberate and recorded, with new pins.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from gatekeep import cli

SWEEP_SPEC = {
    "alpha": 0.05,
    "layers": [
        [{"id": "F1", "hypotheses": ["A1", "A2"], "alpha": 0.03,
          "procedure": {"kind": "truncated_hochberg", "gamma": 0.5}}],
        [{"id": "F2", "hypotheses": ["B1", "B2"], "alpha": 0.01,
          "procedure": {"kind": "holm", "weights": [0.7, 0.3]}},
         {"id": "F3", "hypotheses": ["C1"], "alpha": 0.005,
          "procedure": {"kind": "bonferroni"}}],
        [{"id": "F4", "hypotheses": ["D1"], "alpha": 0.005,
          "procedure": {"kind": "fixed_sequence", "order": ["D1"]}}],
    ],
    "transitions": [
        {"from": "F1", "to": "F2", "g": 0.5},
        {"from": "F1", "to": "F3", "g": 0.5},
        {"from": "F2", "to": "F4", "g": 1.0},
        {"from": "F3", "to": "F4", "g": 1.0},
    ],
}
SWEEP_LABELS = ["A1", "A2", "B1", "B2", "C1", "D1"]

POWER_SPEC = {
    "alpha": 0.05,
    "layers": [
        [{"id": "F1", "hypotheses": ["H11", "H12", "H13"], "alpha": 0.04,
          "procedure": {"kind": "truncated_hochberg", "gamma": 0.5}}],
        [{"id": "F2", "hypotheses": ["H21", "H22", "H23"], "alpha": 0.005,
          "procedure": {"kind": "truncated_hochberg", "gamma": 0.5}}],
        [{"id": "F3", "hypotheses": ["H31", "H32", "H33"], "alpha": 0.005,
          "procedure": {"kind": "hochberg"}}],
    ],
    "transitions": [
        {"from": "F1", "to": "F2", "g": 0.8},
        {"from": "F1", "to": "F3", "g": 0.2},
        {"from": "F2", "to": "F3", "g": 1.0},
    ],
}
POWER_FALSE_NULLS = {"H11", "H12", "H21", "H31"}

# (stdout sha256, CSV sha256)
PINNED = {
    "sweep": ("6c1264374495c2ca66dba55c907cc1e8e6bfad16d7bbb641451613eb52947825",
              "5aa4ada20f18ab54ff01f6e6d6ae7b7f402a5f866174ced305009c67309a00c1"),
    "power": ("bcb1fbf6c0e8fa3dab2e96a8fd8053732ea00414905eabb547289717106b4a40",
              "ba9ee16e2ea7d65a25ac03aafb0bdba6531800f8c4f629ce52d4589850699c16"),
}


def sweep_configs():
    model = {"kind": "independent_uniform", "rho": 0.0, "delta": 2.75}
    return [
        {
            "spec": SWEEP_SPEC,
            "truth": {
                label: "true_null" if bit else "false_null"
                for label, bit in zip(SWEEP_LABELS, bits)
            },
            "model": model,
            "reps": 200,
        }
        for bits in itertools.product((True, False), repeat=len(SWEEP_LABELS))
    ]


def power_config():
    labels = [h for layer in POWER_SPEC["layers"] for fam in layer for h in fam["hypotheses"]]
    return {
        "spec": POWER_SPEC,
        "truth": {
            label: "false_null" if label in POWER_FALSE_NULLS else "true_null"
            for label in labels
        },
        "model": {"kind": "equicorrelated_normal", "rho": 0.4, "delta": 3.1},
        "reps": 2000,
    }


@pytest.mark.parametrize(
    "name, config, seed",
    [("sweep", sweep_configs(), 20240817), ("power", power_config(), 77)],
)
def test_simulate_output_is_pinned(tmp_path, capsys, name, config, seed):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    csv_path = tmp_path / "out.csv"
    argv = ["simulate", "--config", str(config_path), "--seed", str(seed),
            "--csv", str(csv_path)]
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out.encode()
    got = (hashlib.sha256(stdout).hexdigest(),
           hashlib.sha256(csv_path.read_bytes()).hexdigest())
    assert got == PINNED[name]
