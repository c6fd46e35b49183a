"""Monte Carlo estimation of the overall familywise error rate.

For a given strategy and a truth assignment (which hypotheses are true
nulls), each replicate draws a p-value vector, runs the strategy, and
records whether any true null was rejected. The estimate comes with its
binomial standard error; strong control means the estimate stays at or
below the global level (up to noise) for every truth assignment.

Reproducibility contract: replicate r draws from a counter-based stream
keyed by (seed, r), so results are bit-identical for a given config no
matter how replicates are scheduled or batched.

P-value generation: every hypothesis gets a standard normal score; under
the equicorrelated model the scores share a common factor with correlation
rho. False nulls get a one-sided mean shift delta, and scores map to
p-values through the upper-tail normal transform, which makes true-null
p-values exactly Uniform(0, 1).

The replicate loop does not call the scalar engine; it uses a vectorized
twin (`batch_run`) that evaluates all replicates at once. The twin is held
to the scalar engine by agreement tests, never used in its place outside
simulation.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.special import ndtr

# SweepError lives in errors.py so that the CLI can catch it without loading
# numpy; it stays importable from here.
from .errors import InvalidSpecError, SpecFormatError, SweepError
from .graph import GraphSpec, spec_from_json, spec_to_json, validate_spec
from .procedures import LocalProcedureSpec

MODEL_KINDS = ("independent_uniform", "equicorrelated_normal")

TRUE_NULL = "true_null"
FALSE_NULL = "false_null"


@dataclass(frozen=True)
class PValueModel:
    """How replicate p-values are generated.

    delta is the one-sided normal shift applied to false nulls; rho is the
    common-factor correlation (equicorrelated_normal only).
    """

    kind: str = "independent_uniform"
    rho: float = 0.0
    delta: float = 3.0


@dataclass(frozen=True)
class SimConfig:
    spec: GraphSpec
    truth: Mapping[str, str]
    model: PValueModel = field(default_factory=PValueModel)
    reps: int = 10_000
    seed: int = 0


@dataclass(frozen=True)
class SimResult:
    fwer_hat: float
    se: float
    rejections_per_hypothesis: Mapping[str, int]
    reps: int
    seed: int


def _check_config(config: SimConfig, labels: tuple[str, ...]) -> None:
    """Check everything but the spec itself (see `_compile`); `labels` are
    the spec's labels."""
    labels = set(labels)
    missing = sorted(labels - set(config.truth))
    extra = sorted(set(config.truth) - labels)
    if missing or extra:
        raise ValueError(f"truth labels mismatch: missing {missing}, extra {extra}")
    bad = sorted(
        label for label, t in config.truth.items() if t not in (TRUE_NULL, FALSE_NULL)
    )
    if bad:
        raise ValueError(f"truth values must be true_null/false_null; bad: {bad}")
    m = config.model
    if m.kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {m.kind!r}")
    if m.kind == "equicorrelated_normal":
        if not 0.0 <= m.rho < 1.0:
            raise ValueError(f"rho {m.rho!r} outside [0, 1)")
    elif m.rho != 0.0:
        raise ValueError("rho only applies to equicorrelated_normal")
    if not (math.isfinite(m.delta) and m.delta >= 0.0):
        raise ValueError(f"delta {m.delta!r} must be finite and nonnegative")
    if config.reps < 1:
        raise ValueError(f"reps {config.reps!r} must be at least 1")


def draw_scores(
    seed: int, reps: int, n: int, kind: str = "independent_uniform", rho: float = 0.0
) -> np.ndarray:
    """Draw the (reps, n) matrix of standard normal scores.

    Row r comes entirely from the stream keyed by (seed, r); the result
    depends only on the arguments, never on batching.
    """
    # Row r's stream is Philox keyed by seed << 64 | r, from counter 0 with
    # an empty buffer. Resetting one generator to that state per row gives
    # the same stream as a new Philox per row, at a fraction of the cost.
    bitgen = np.random.Philox(key=(seed % (1 << 64)) << 64)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    key = state["state"]["key"]  # [low 64 bits: r, high 64 bits: seed]
    correlated = kind == "equicorrelated_normal"
    raw = np.empty((reps, n + 1 if correlated else n))
    for r in range(reps):
        key[0] = r
        bitgen.state = state
        rng.standard_normal(out=raw[r])
    if correlated:
        return math.sqrt(rho) * raw[:, :1] + math.sqrt(1.0 - rho) * raw[:, 1:]
    return raw


def simulate_fwer(config: SimConfig, _scores: np.ndarray | None = None) -> SimResult:
    """Estimate the overall FWER of `config.spec` under `config.truth`.

    With no true nulls the estimate is exactly 0. `_scores` lets callers
    reuse one score matrix across truth assignments sharing a seed/model;
    it must come from :func:`draw_scores` with this config's parameters.
    """
    sim = _Simulator()
    if _scores is not None:
        sim.scores[_score_key(config, len(config.spec.labels()))] = _scores
    return sim.simulate(config)


def sweep(configs: Sequence[SimConfig]) -> list[SimResult]:
    """simulate_fwer for each config, in order.

    Work is shared across the configs of one call: score matrices across
    configs that agree on (seed, reps, model, hypothesis count), p-value
    matrices across those that also agree on delta, and a family's outcome
    across consecutive configs that agree on the truth of the family and of
    every family that can pass level to it. Results equal simulate_fwer's.
    A failing element does not stop the others; if any failed, a SweepError
    carrying all element errors (and the successful results) is raised.
    """
    sim = _Simulator()
    results: dict[int, SimResult] = {}
    errors: list[tuple[int, Exception]] = []
    for i, config in enumerate(configs):
        try:
            results[i] = sim.simulate(config)
        except Exception as exc:  # noqa: BLE001 - per-element isolation
            errors.append((i, exc))
    if errors:
        raise SweepError(errors, results)
    return [results[i] for i in range(len(configs))]


def _score_key(config: SimConfig, n: int) -> tuple:
    """The arguments of the config's `draw_scores` call."""
    m = config.model
    return (config.seed, config.reps, n, m.kind, m.rho)


class _Simulator:
    """The caches one simulate_fwer or sweep call shares across its configs.

    Specs are keyed by identity (`sim_configs_from_json` builds each
    distinct spec once). The family memo keeps only the last outcome of
    each family, which already gets all the sharing there is when masks
    come in `itertools.product` order; keeping every outcome would cost
    memory for every mask.
    """

    def __init__(self) -> None:
        self.scores: dict[tuple, np.ndarray] = {}
        self.pvalues: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        # id(spec) -> (spec, its labels, its compiled families, family memo)
        self.specs: dict[int, tuple] = {}

    def simulate(self, config: SimConfig) -> SimResult:
        spec = config.spec
        if id(spec) not in self.specs:
            self.specs[id(spec)] = (spec, spec.labels(), _compile(spec), {})
        _, labels, plan, memo = self.specs[id(spec)]
        _check_config(config, labels)
        score_key = _score_key(config, len(labels))
        scores = self.scores.get(score_key)
        if scores is None:
            scores = self.scores[score_key] = draw_scores(*score_key)
        elif scores.shape != (config.reps, len(labels)):
            raise ValueError(
                f"score matrix shape {scores.shape} != ({config.reps}, {len(labels)})"
            )
        delta = config.model.delta
        p_key = score_key + (delta,)
        if p_key not in self.pvalues:
            # Per column this equals ndtr(-(scores + delta * false_mask)):
            # adding delta * 0.0 leaves a score unchanged.
            self.pvalues[p_key] = (ndtr(-scores), ndtr(-(scores + delta)))
        p_null, p_alt = self.pvalues[p_key]
        false_mask = np.array([config.truth[label] == FALSE_NULL for label in labels])
        rejected = _evaluate(
            plan,
            np.where(false_mask, p_alt, p_null),
            memo,
            lambda fam: (p_key, false_mask[fam.scope].tobytes()),
        )

        true_mask = ~false_mask
        counts = rejected.sum(axis=0)
        if true_mask.any():
            fwer_hat = float((rejected & true_mask).any(axis=1).mean())
        else:
            fwer_hat = 0.0
        return SimResult(
            fwer_hat=fwer_hat,
            se=math.sqrt(fwer_hat * (1.0 - fwer_hat) / config.reps),
            rejections_per_hypothesis={
                label: int(counts[k]) for k, label in enumerate(labels)
            },
            reps=config.reps,
            seed=config.seed,
        )


def truth_mask(config: SimConfig) -> str:
    """'1'/'0' per hypothesis (spec label order): 1 marks a true null."""
    return "".join(
        "1" if config.truth[label] == TRUE_NULL else "0"
        for label in config.spec.labels()
    )


def sweep_to_csv(configs: Sequence[SimConfig], results: Sequence[SimResult]) -> str:
    """One CSV row per config: truth mask, estimate, standard error, reps, seed."""
    lines = ["truth_mask,fwer_hat,se,reps,seed"]
    for config, result in zip(configs, results):
        lines.append(
            f"{truth_mask(config)},{result.fwer_hat!r},{result.se!r},"
            f"{result.reps},{result.seed}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Vectorized strategy evaluation (all replicates at once)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Family:
    """One family of a validated spec, resolved to p-matrix columns."""

    cols: slice  # its columns in spec.labels() order
    scope: np.ndarray  # its columns and those of every family that can pass it level
    procedure: LocalProcedureSpec
    initial_alpha: float
    order: tuple[int, ...] | None  # fixed_sequence order as family positions
    out: tuple[tuple[int, float], ...]  # (target's plan position, g) for each g > 0


def _compile(spec: GraphSpec) -> tuple[_Family, ...]:
    """Validate `spec` and resolve its families in execution order."""
    outcome = validate_spec(spec)
    if not outcome.ok:
        raise InvalidSpecError(outcome.violations)
    families = list(spec.families())
    position = {fam.index: k for k, fam in enumerate(families)}
    starts = [0, *itertools.accumulate(fam.size for fam in families)]
    scopes = [set(range(starts[k], starts[k + 1])) for k in range(len(families))]
    plan = []
    for k, fam in enumerate(families):
        out = tuple(
            (position[dst], g)
            for dst, g in spec.transitions.outgoing(fam.index).items()
            if g > 0.0
        )
        # Edges only point at later layers, so scopes[k] is complete here.
        for dst, _ in out:
            scopes[dst] |= scopes[k]
        order = None
        if fam.procedure.kind == "fixed_sequence":
            order = tuple(fam.labels.index(label) for label in fam.procedure.order)
        plan.append(
            _Family(
                cols=slice(starts[k], starts[k + 1]),
                scope=np.array(sorted(scopes[k])),
                procedure=fam.procedure,
                initial_alpha=fam.initial_alpha,
                order=order,
                out=out,
            )
        )
    return tuple(plan)


def _evaluate(plan, pmat: np.ndarray, memo: dict, key_of) -> np.ndarray:
    """Run the families of `plan` in order on every row of `pmat`.

    Returns the rejection matrix. `memo` holds one entry per plan position:
    a family whose `key_of(family)` equals the key stored for it reuses the
    stored rejections and spendable level instead of testing again, so the
    key must cover every input the family's outcome depends on.
    """
    levels = [np.full(pmat.shape[0], fam.initial_alpha) for fam in plan]
    rejected = np.zeros_like(pmat, dtype=bool)
    for k, fam in enumerate(plan):
        key = key_of(fam)
        if k in memo and memo[k][0] == key:
            _, rej, spendable = memo[k]
        else:
            level = levels[k]
            p = pmat[:, fam.cols]
            if fam.order is None:
                rej = _batch_test(fam.procedure, p, level)
            else:
                rej = _batch_test_fixed_sequence(fam.order, p, level)
            spendable = None  # a family with no outgoing edge passes nothing on
            if fam.out:
                e_star = _batch_bound(fam.procedure, ~rej, level)
                spendable = np.maximum(level - e_star, 0.0)
            memo[k] = (key, rej, spendable)
        for dst, g in fam.out:
            levels[dst] = levels[dst] + spendable * g
        rejected[:, fam.cols] = rej
    return rejected


def batch_run(spec: GraphSpec, pmat: np.ndarray) -> np.ndarray:
    """Evaluate the strategy on every row of `pmat` simultaneously.

    `pmat` has one column per hypothesis in `spec.labels()` order. Returns
    a boolean matrix of the same shape: True where rejected. Agrees with
    `engine.run` row by row.
    """
    plan = _compile(spec)
    n = len(spec.labels())
    pmat = np.asarray(pmat, dtype=float)
    if pmat.ndim != 2 or pmat.shape[1] != n:
        raise ValueError(f"p matrix must be (reps, {n})")
    if pmat.size and (pmat.min() < 0.0 or pmat.max() > 1.0):
        raise ValueError("p-values outside [0, 1]")
    return _evaluate(plan, pmat, {}, lambda fam: None)


def _batch_test(proc, pmat: np.ndarray, level: np.ndarray) -> np.ndarray:
    """Vectorized twin of procedures.test_family over replicate rows."""
    reps, n = pmat.shape
    if proc.kind == "bonferroni":
        w = np.array(proc.weights) if proc.weights else np.full(n, 1.0 / n)
        thr = w[None, :] * level[:, None]
        return (pmat <= thr) & (thr > 0.0)

    if proc.kind == "holm":
        w = np.array(proc.weights) if proc.weights else np.full(n, 1.0 / n)
        active = np.ones((reps, n), dtype=bool)
        for _ in range(n):
            total = (active * w[None, :]).sum(axis=1)
            thr = (w[None, :] / np.maximum(total, 1e-300)[:, None]) * level[:, None]
            thr = np.where((total > 0.0)[:, None], thr, 0.0)
            eligible = active & (pmat <= thr) & (thr > 0.0)
            if not eligible.any():
                break
            active &= ~eligible
        return ~active

    if proc.kind == "truncated_holm":
        # Step-down; rejecting any batch of currently eligible hypotheses
        # only raises later thresholds, so iterating to a fixed point gives
        # the same set as the one-at-a-time walk.
        active = np.ones((reps, n), dtype=bool)
        for _ in range(n):
            n_rem = active.sum(axis=1)
            coef = proc.gamma / np.maximum(n_rem, 1) + (1.0 - proc.gamma) / n
            thr = coef[:, None] * level[:, None]
            eligible = active & (pmat <= thr) & (thr > 0.0)
            if not eligible.any():
                break
            active &= ~eligible
        return ~active

    if proc.kind in ("hochberg", "truncated_hochberg"):
        order = np.argsort(pmat, axis=1, kind="stable")
        sorted_p = np.take_along_axis(pmat, order, axis=1)
        i = np.arange(1, n + 1)
        # The same expressions as procedures.test_family, so that a p-value
        # equal to its threshold is rejected by both or by neither.
        if proc.kind == "hochberg":
            thr = level[:, None] / (n - i + 1)[None, :]
        else:
            coef = proc.gamma / (n - i + 1) + (1.0 - proc.gamma) / n
            thr = coef[None, :] * level[:, None]
        ok = (sorted_p <= thr) & (thr > 0.0)
        n_reject = np.max(np.where(ok, i[None, :], 0), axis=1)
        ranks = np.empty_like(order)
        np.put_along_axis(ranks, order, np.broadcast_to(np.arange(n), order.shape), axis=1)
        return ranks < n_reject[:, None]

    raise ValueError(f"unsupported procedure kind {proc.kind!r}")


def _batch_test_fixed_sequence(
    positions: Sequence[int], pmat: np.ndarray, level: np.ndarray
) -> np.ndarray:
    ok = (pmat[:, positions] <= level[:, None]) & (level > 0.0)[:, None]
    streak = np.logical_and.accumulate(ok, axis=1)
    rejected = np.zeros_like(pmat, dtype=bool)
    rejected[:, positions] = streak
    return rejected


def _batch_bound(proc, accepted: np.ndarray, level: np.ndarray) -> np.ndarray:
    """Vectorized twin of procedures.error_rate_bound."""
    n = accepted.shape[1]
    count = accepted.sum(axis=1)
    nonempty = count > 0
    if proc.kind == "bonferroni":
        w = np.array(proc.weights) if proc.weights else np.full(n, 1.0 / n)
        bound = level * (accepted * w[None, :]).sum(axis=1)
    elif proc.kind in ("holm", "hochberg", "fixed_sequence"):
        bound = np.where(nonempty, level, 0.0)
    else:  # truncated_holm, truncated_hochberg
        factor = proc.gamma + (1.0 - proc.gamma) * count / n
        bound = np.where(nonempty, factor * level, 0.0)
    return np.minimum(np.maximum(bound, 0.0), level)


# ---------------------------------------------------------------------------
# JSON / file formats
# ---------------------------------------------------------------------------


def sim_config_to_json(config: SimConfig, indent: int | None = 2) -> str:
    obj = {
        "spec": json.loads(spec_to_json(config.spec)),
        "truth": dict(sorted(config.truth.items())),
        "model": {
            "kind": config.model.kind,
            "rho": config.model.rho,
            "delta": config.model.delta,
        },
        "reps": config.reps,
        "seed": config.seed,
    }
    return json.dumps(obj, indent=indent, sort_keys=True)


def _config_from_obj(obj, seed: int | None, specs: dict[str, GraphSpec]) -> SimConfig:
    """Build one config; `specs` holds the specs parsed so far, by JSON text,
    so that configs sharing a strategy share one GraphSpec."""
    if not isinstance(obj, dict):
        raise SpecFormatError("config must be an object")
    for key in ("spec", "truth", "reps"):
        if key not in obj:
            raise SpecFormatError(f"config missing required key {key!r}")
    spec_text = json.dumps(obj["spec"])
    if spec_text not in specs:
        specs[spec_text] = spec_from_json(spec_text)
    spec = specs[spec_text]
    truth = obj["truth"]
    if not isinstance(truth, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in truth.items()
    ):
        raise SpecFormatError("truth must map labels to true_null/false_null")
    model_obj = obj.get("model", {})
    if not isinstance(model_obj, dict):
        raise SpecFormatError("model must be an object")
    model = PValueModel(
        kind=model_obj.get("kind", "independent_uniform"),
        rho=float(model_obj.get("rho", 0.0)),
        delta=float(model_obj.get("delta", 3.0)),
    )
    # bool is a subclass of int, but `"reps": true` is not a count.
    if not isinstance(obj["reps"], int) or isinstance(obj["reps"], bool):
        raise SpecFormatError("reps must be an integer")
    effective_seed = obj.get("seed", seed)
    if effective_seed is None:
        raise SpecFormatError("no seed: provide one in the config or via --seed")
    if not isinstance(effective_seed, int) or isinstance(effective_seed, bool):
        raise SpecFormatError("seed must be an integer")
    return SimConfig(spec, dict(truth), model, obj["reps"], effective_seed)


def sim_configs_from_json(text: str, seed: int | None = None) -> list[SimConfig]:
    """Parse one config object or a list of them; `seed` fills missing seeds."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"not valid JSON: {exc}") from None
    specs: dict[str, GraphSpec] = {}
    if isinstance(obj, list):
        return [_config_from_obj(entry, seed, specs) for entry in obj]
    return [_config_from_obj(obj, seed, specs)]


def sim_result_to_json(result: SimResult, indent: int | None = 2) -> str:
    obj = {
        "fwer_hat": result.fwer_hat,
        "se": result.se,
        "rejections_per_hypothesis": dict(
            sorted(result.rejections_per_hypothesis.items())
        ),
        "reps": result.reps,
        "seed": result.seed,
    }
    return json.dumps(obj, indent=indent, sort_keys=True)
