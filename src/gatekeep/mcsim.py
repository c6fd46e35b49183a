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
p-values exactly Uniform(0, 1). The transform is `ndtr`, a numpy port of
the Cephes normal CDF that scipy.special.ndtr also uses, so the module
needs numpy only.

The replicate loop does not call the scalar engine, but runs off the same
plan (`GraphSpec.plan`: families, kernels, in- and out-edges). `batch_run`
evaluates all replicates at once with batch drivers that read each family's
thresholds and capped bound from its kernel, as the scalar engine does, so
the formulas exist once; agreement tests hold the two drivers to each
other, and the hypothesis-level oracle and the lattice reference check the
formulas independently. Of its own it keeps each family's columns and memo scope.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

# SweepError lives in errors.py so that the CLI can catch it without loading
# numpy; it stays importable from here.
from .errors import SpecFormatError, SweepError
from .graph import GraphSpec, spec_from_json, spec_to_json
from .jsontext import as_float, dumps, loads
from .procedures import Kernel

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


def _check_config(config: SimConfig, labels: frozenset[str]) -> None:
    """Check everything but the spec itself (`GraphSpec.plan` checks that);
    `labels` are the spec's labels."""
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
    if not 0 <= config.seed < 1 << 64:
        raise ValueError(f"seed {config.seed!r} outside [0, 2**64)")


# ---------------------------------------------------------------------------
# Normal CDF
# ---------------------------------------------------------------------------

# Cephes ndtr.c (S. L. Moshier, Cephes Math Library 2.x, 1989): rational
# approximations of erf and erfc after Cody (Math. Comp. 1969). The same
# coefficients, branch points and Horner order as scipy.special.ndtr, and
# exp from libm (math.exp), give the same doubles bit for bit. np.exp is
# not used: its SIMD kernels differ from libm in the last bit.
_SQRTH = 7.07106781186547524401e-1  # sqrt(1/2)
_MAXLOG = 7.09782712893383996843e2  # log(largest double)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)


def _polevl(x: np.ndarray, coefs: tuple[float, ...]) -> np.ndarray:
    """Cephes polevl: coefs[0]*x**N + ... + coefs[N], by Horner's rule."""
    ans = coefs[0] * x
    ans += coefs[1]
    for c in coefs[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coefs: tuple[float, ...]) -> np.ndarray:
    """Cephes p1evl: polevl with an implied leading coefficient of 1."""
    ans = x + coefs[0]
    for c in coefs[1:]:
        ans *= x
        ans += c
    return ans


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes erf for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(x: np.ndarray) -> np.ndarray:
    """Cephes erfc for x >= 1 (or NaN): 0 where exp(-x*x) would underflow."""
    zz = -x * x
    live = ~(zz < -_MAXLOG)  # NaN stays live and comes out NaN
    if not live.all():
        out = np.zeros_like(x)
        out[live] = _erfc(x[live])
        return out
    y = np.fromiter(map(math.exp, zz.tolist()), float, count=x.size)
    far = x >= 8.0
    if far.any():
        y *= np.where(far, _polevl(x, _R), _polevl(x, _P))
        y /= np.where(far, _p1evl(x, _S), _p1evl(x, _Q))
    else:
        y *= _polevl(x, _P)
        y /= _p1evl(x, _Q)
    return y


def ndtr(a) -> np.ndarray:
    """Standard normal CDF, elementwise; equal to scipy.special.ndtr."""
    a = np.asarray(a, dtype=float)
    x = a.reshape(-1) * _SQRTH
    z = np.abs(x)
    # Near 0: 0.5 + 0.5*erf(x). Otherwise 0.5*erfc(|x|), with erfc = 1 - erf
    # below 1, then reflected for x > 0.
    inner = z < _SQRTH
    with np.errstate(all="ignore"):  # erf is also evaluated, and discarded, on the tail
        e = _erf(np.where(inner, x, z))
    y = np.where(inner, 0.5 + 0.5 * e, 0.5 * (1.0 - e))
    tail = np.flatnonzero(~(z < 1.0))  # NaN included
    y[tail] = 0.5 * _erfc(z[tail])
    return np.where(inner | (x <= 0.0), y, 1.0 - y).reshape(a.shape)


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
    configs that agree on (seed, reps, model, hypothesis count), a column's
    p-values across those that also agree on its shift (delta for a false
    null, none for a true null), and a family's outcome
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
    distinct spec once). P-values are mapped one column at a time, when a
    family first needs them. The family memo keeps only the last outcome of
    each family, which already gets all the sharing there is when masks
    come in `itertools.product` order; keeping every outcome would cost
    memory for every mask.
    """

    def __init__(self) -> None:
        self.scores: dict[tuple, np.ndarray] = {}
        # (score key, column, delta, or None for a true null) -> p-values
        self.pcols: dict[tuple, np.ndarray] = {}
        # id(spec) -> (spec, its labels, its columns and scopes, family memo)
        self.specs: dict[int, tuple] = {}

    def simulate(self, config: SimConfig) -> SimResult:
        spec = config.spec
        if id(spec) not in self.specs:
            self.specs[id(spec)] = (spec, spec.labels(), _columns(spec.plan), {})
        _, labels, layout, memo = self.specs[id(spec)]
        _check_config(config, spec.plan.labels)
        score_key = _score_key(config, len(labels))
        scores = self.scores.get(score_key)
        if scores is None:
            scores = self.scores[score_key] = draw_scores(*score_key)
        elif scores.shape != (config.reps, len(labels)):
            raise ValueError(
                f"score matrix shape {scores.shape} != ({config.reps}, {len(labels)})"
            )
        delta = config.model.delta
        false_mask = np.array([config.truth[label] == FALSE_NULL for label in labels])

        def p_of(cols: slice) -> np.ndarray:
            columns = []
            for j in range(cols.start, cols.stop):
                # A false null's score is shifted by delta; a true null's is not.
                key = (score_key, j, delta if false_mask[j] else None)
                if key not in self.pcols:
                    s = scores[:, j]
                    self.pcols[key] = ndtr(-(s + delta) if false_mask[j] else -s)
                columns.append(self.pcols[key])
            return np.column_stack(columns)

        p_key = score_key + (delta,)
        outcomes = _evaluate(
            spec.plan,
            layout,
            p_of,
            memo,
            lambda scope: (p_key, false_mask[scope].tobytes()),
            ~false_mask,
        ).values()

        hit = None  # rows that rejected some true null
        for outcome in outcomes:
            if outcome.hit is not None:
                hit = outcome.hit if hit is None else hit | outcome.hit
        fwer_hat = 0.0 if hit is None else int(np.count_nonzero(hit)) / config.reps
        counts = [c for outcome in outcomes for c in outcome.counts]
        return SimResult(
            fwer_hat=fwer_hat,
            se=math.sqrt(fwer_hat * (1.0 - fwer_hat) / config.reps),
            rejections_per_hypothesis=dict(zip(labels, counts)),
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
class _Outcome:
    """One family's result on every row."""

    rejected: np.ndarray  # (rows, family size)
    spendable: np.ndarray | None  # level it passes on per unit of g; None if it passes none
    counts: list[int] | None  # rejections per column (simulation only)
    hit: np.ndarray | None  # rows that rejected one of its true nulls (None if it has none)


def _columns(plan) -> dict[str, tuple[slice, np.ndarray]]:
    """By family name: its columns in spec.labels() order, and its scope,
    the sorted columns of it and of every family that can pass it level."""
    layout: dict[str, tuple[slice, np.ndarray]] = {}
    scopes: dict[str, set[int]] = {}
    start = 0
    for fam in plan.families:
        cols = slice(start, start + fam.size)
        start = cols.stop
        # Sources come before their targets, so their scopes are complete here.
        inherited = (scopes[src] for src, _ in plan.sources[fam.name])
        scopes[fam.name] = set(range(cols.start, cols.stop)).union(*inherited)
        layout[fam.name] = (cols, np.array(sorted(scopes[fam.name])))
    return layout


def _evaluate(plan, layout, p_of, memo: dict, key_of, true_null=None) -> dict[str, _Outcome]:
    """Run the families of `plan` in order on every row; outcomes by name.

    `layout` is `_columns(plan)`. `p_of(cols)` gives a family's (rows, size)
    p-value matrix; it is called only for families that are tested.
    `true_null` (a mask over all columns) makes each outcome carry its
    column counts and true-null hits. `memo` holds one entry per family: a
    family whose `key_of(scope)` equals the key stored for it reuses the
    stored outcome instead of testing again, so the key must cover every
    input the family's outcome depends on.
    """
    outcomes: dict[str, _Outcome] = {}
    for fam in plan.families:
        cols, scope = layout[fam.name]
        key = key_of(scope)
        if fam.name in memo and memo[fam.name][0] == key:
            outcomes[fam.name] = memo[fam.name][1]
            continue
        p = p_of(cols)
        # Incoming level is added in source execution order, as engine.run adds it.
        level = np.full(p.shape[0], fam.initial_alpha)
        for src, g in plan.sources[fam.name]:
            level = level + outcomes[src].spendable * g
        kernel = plan.kernels[fam.name]
        rej = _BATCH_DRIVERS[kernel.kind](kernel, p, level[:, None])
        spendable = None
        if plan.edges[fam.name]:
            accepted = ~rej
            bound = kernel.bound(level, accepted.sum(axis=1), lambda w: _row_sum(accepted, w))
            spendable = level - bound
        counts = hit = None
        if true_null is not None:
            # Per column: a reduction along the short axis of a C-ordered
            # matrix is several times slower.
            counts = [int(np.count_nonzero(col)) for col in rej.T]
            own = true_null[cols]
            if own.any():
                hit = rej[:, own].any(axis=1)
        outcomes[fam.name] = _Outcome(rej, spendable, counts, hit)
        memo[fam.name] = (key, outcomes[fam.name])
    return outcomes


def batch_run(spec: GraphSpec, pmat: np.ndarray) -> np.ndarray:
    """Evaluate the strategy on every row of `pmat` simultaneously.

    `pmat` has one column per hypothesis in `spec.labels()` order. Returns
    a boolean matrix of the same shape: True where rejected. Agrees with
    `engine.run` row by row.
    """
    plan = spec.plan
    n = len(plan.labels)
    pmat = np.asarray(pmat, dtype=float)
    if pmat.ndim != 2 or pmat.shape[1] != n:
        raise ValueError(f"p matrix must be (reps, {n})")
    if not np.all((pmat >= 0.0) & (pmat <= 1.0)):  # NaN fails both
        raise ValueError("p-values outside [0, 1]")
    outcomes = _evaluate(plan, _columns(plan), lambda cols: pmat[:, cols], {}, lambda _: None)
    return np.concatenate([outcome.rejected for outcome in outcomes.values()], axis=1)


def _row_sum(mask: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per row, the sum of w over the columns set in mask, folded left to
    right as the scalar procedures add it (numpy's own sum goes pairwise
    from 8 columns, which can differ in the last bit)."""
    total = np.zeros(mask.shape[0])
    for j in range(mask.shape[1]):
        total += np.where(mask[:, j], w[j], 0.0)
    return total


# The batch drivers: procedures' scalar drivers over replicate rows, with
# `level` a column of levels (one per row) and thresholds from the kernel.


def _batch_fixed_point(kernel: Kernel, pmat: np.ndarray, level: np.ndarray) -> np.ndarray:
    # Step-down: reject every hypothesis in play that clears its threshold,
    # until none does, as the scalar driver (Bonferroni included).
    reps, n = pmat.shape
    weight = None if kernel.weights is None else np.array(kernel.weights)
    active = np.ones((reps, n), dtype=bool)
    for _ in range(n):
        # Holm reads the weight in play, truncated Holm the count in play.
        # A zero weight in play leaves only zero weights, which clear nothing.
        rest = total = None
        if weight is None:
            rest = np.maximum(active.sum(axis=1), 1)[:, None]
        else:
            total = _row_sum(active, kernel.weights)
            total = np.where(total > 0.0, total, 1.0)[:, None]
        thr = kernel.threshold(level, rest, weight, total)
        cleared = active & (pmat <= thr) & (thr > 0.0)
        if not cleared.any():
            break
        active &= ~cleared
    return ~active


def _batch_step_up(kernel: Kernel, pmat: np.ndarray, level: np.ndarray) -> np.ndarray:
    ranked = np.sort(pmat, axis=1)
    thr = kernel.threshold(level, np.arange(pmat.shape[1], 0, -1))
    cut = np.max(np.where((ranked <= thr) & (thr > 0.0), ranked, -1.0), axis=1)
    return pmat <= cut[:, None]


def _batch_in_sequence(kernel: Kernel, pmat: np.ndarray, level: np.ndarray) -> np.ndarray:
    positions = list(kernel.order)
    thr = kernel.threshold(level)
    ok = (pmat[:, positions] <= thr) & (thr > 0.0)
    streak = np.logical_and.accumulate(ok, axis=1)
    rejected = np.zeros_like(pmat, dtype=bool)
    rejected[:, positions] = streak
    return rejected


_BATCH_DRIVERS = {
    "bonferroni": _batch_fixed_point,
    "holm": _batch_fixed_point,
    "truncated_holm": _batch_fixed_point,
    "hochberg": _batch_step_up,
    "truncated_hochberg": _batch_step_up,
    "fixed_sequence": _batch_in_sequence,
}


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
    return dumps(obj, indent)


def _model_number(model_obj: dict, key: str, default: float) -> float:
    value = model_obj.get(key, default)
    number = as_float(value)
    if number is None or not math.isfinite(number):
        raise SpecFormatError(f"model {key} must be a finite number, got {value!r}")
    return number


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
        rho=_model_number(model_obj, "rho", 0.0),
        delta=_model_number(model_obj, "delta", 3.0),
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
    obj = loads(text)
    specs: dict[str, GraphSpec] = {}
    if isinstance(obj, list):
        return [_config_from_obj(entry, seed, specs) for entry in obj]
    return [_config_from_obj(obj, seed, specs)]


def sim_result_obj(result: SimResult) -> dict:
    """The result as the JSON object that `sim_result_to_json` writes."""
    return {
        "fwer_hat": result.fwer_hat,
        "se": result.se,
        "rejections_per_hypothesis": dict(
            sorted(result.rejections_per_hypothesis.items())
        ),
        "reps": result.reps,
        "seed": result.seed,
    }


def sim_result_to_json(result: SimResult, indent: int | None = 2) -> str:
    return dumps(sim_result_obj(result), indent)
