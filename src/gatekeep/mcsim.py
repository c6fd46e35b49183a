"""Monte Carlo estimation of the overall familywise error rate.

For a given strategy and a truth assignment (which hypotheses are true
nulls), each replicate draws a p-value vector, runs the strategy, and
records whether any true null was rejected. The estimate comes with its
binomial standard error; strong control means the estimate stays at or
below the global level (up to noise) for every truth assignment.

Reproducibility contract: replicate r draws from a counter-based stream
keyed by (seed, r), so results are bit-identical for a given config no
matter how replicates are scheduled or batched. Configs that share a draw
(seed, reps, model, hypothesis count) run together, one draw after
another and one block of `_BLOCK` rows at a time, and only counts are kept
across blocks. So the working memory is one block of one draw, however
many reps and however many draws a sweep has; what grows with the number
of configs is the configs and their results. A config list is parsed one
element at a time, so only one element's JSON tree is held, and a parsed
config's truth map holds the strings of its spec and of this module, not
copies of its own.

P-value generation: every hypothesis gets a standard normal score; under
the equicorrelated model the scores share a common factor with correlation
rho. False nulls get a one-sided mean shift delta, and scores map to
p-values through the upper-tail normal transform, which makes true-null
p-values exactly Uniform(0, 1). The transform is `ndtr`, a numpy port of
the Cephes normal CDF that scipy.special.ndtr also uses, so the module
needs numpy only.

The replicate loop does not call the scalar engine, but runs off the same
plan (`GraphSpec.plan`: families, kernels, in- and out-edges, and the
column layout: `order` and each family's `columns`). `batch_run`,
`simulate_fwer` and `sweep` take all replicates at once, a family's
p-values one row per column, and decide each family with one
`Kernel.test` call, as the scalar engine does, then take `Kernel.bound`:
no rule has a batch form of its own, and no procedure kind is named here.
The ranking `Kernel.test` is given is made once per sweep block, column
range and own shifts, whatever the strategy, within a fixed budget of
values (`_rank`). The hypothesis-level oracle, the lattice reference and
the written-out references in the tests check the rules apart from either
engine.
"""

from __future__ import annotations

import json
import marshal
import math
from dataclasses import dataclass, field
from json.decoder import WHITESPACE
from typing import Mapping, Sequence

import numpy as np

# SweepError lives in errors.py so that the CLI can catch it without loading
# numpy; it stays importable from here.
from .errors import SpecFormatError, SweepError
from .graph import GraphSpec, spec_from_json, spec_to_json
from .jsontext import dumps, fields, finite, integer, loads, string
from .procedures import number_or

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


def _check_config(config: SimConfig, scores: np.ndarray | None = None) -> tuple:
    """Check everything but the spec itself (`GraphSpec.plan` checks that),
    then `scores`, the whole score matrix of a lone config, if given.
    Returns the config's draw: the arguments of its `draw_scores` call."""
    labels = config.spec.plan.labels
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
        if not 0.0 <= number_or(m.rho, math.nan) < 1.0:
            raise ValueError(f"rho {m.rho!r} outside [0, 1)")
    elif m.rho != 0.0:
        raise ValueError("rho only applies to equicorrelated_normal")
    if not (math.isfinite(number_or(m.delta, math.nan)) and m.delta >= 0.0):
        raise ValueError(f"delta {m.delta!r} must be finite and nonnegative")
    if not isinstance(config.reps, int) or config.reps < 1:
        raise ValueError(f"reps {config.reps!r} must be an integer, at least 1")
    _check_seed(config.seed)
    if scores is not None and scores.shape != (config.reps, len(labels)):
        raise ValueError(f"score matrix shape {scores.shape} != ({config.reps}, {len(labels)})")
    return config.seed, config.reps, len(labels), m.kind, m.rho


def _check_seed(seed: int) -> None:
    if not isinstance(seed, int):
        raise ValueError(f"seed {seed!r} must be an integer")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed!r} outside [0, 2**64)")


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
    seed: int,
    reps: int,
    n: int,
    kind: str = "independent_uniform",
    rho: float = 0.0,
    first: int = 0,
) -> np.ndarray:
    """Draw the (reps, n) matrix of standard normal scores of rows
    `first`, ..., `first + reps - 1`.

    Row r comes entirely from the stream keyed by (seed, r); the result
    depends only on the arguments, never on batching, so a block of rows
    equals the same rows of a larger draw.
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
        key[0] = first + r
        bitgen.state = state
        rng.standard_normal(out=raw[r])
    if correlated:
        return math.sqrt(rho) * raw[:, :1] + math.sqrt(1.0 - rho) * raw[:, 1:]
    return raw


# Rows per block. Replicates are evaluated one block of rows at a time, so
# memory does not grow with reps; 1e4-rep sweeps stay one block, and no
# smaller block keeps them whole.
_BLOCK = 10_000
# Float64 values that one block's ranking cache holds at most (8 MB).
_RANK_BUDGET = 1 << 20


def simulate_fwer(config: SimConfig, _scores: np.ndarray | None = None) -> SimResult:
    """Estimate the overall FWER of `config.spec` under `config.truth`.

    With no true nulls the estimate is exactly 0. `_scores` lets callers
    reuse one score matrix across truth assignments sharing a seed/model;
    it must come from :func:`draw_scores` with this config's parameters,
    and is read one block of rows at a time.
    """
    results, errors = _run([config], _scores)
    if errors:
        raise errors[0][1]
    return results[0]


def sweep(configs: Sequence[SimConfig]) -> list[SimResult]:
    """simulate_fwer for each config, in order.

    Configs that agree on (seed, reps, model, hypothesis count) share one
    draw of scores. Draws run one after another, in order of their first
    config, and each draw runs in blocks of `_BLOCK` rows over all of its
    configs; each config's counts are added up over the blocks. Within a
    block, a column's p-values are shared across the draw's configs that
    agree on its shift (delta for a false null, 0 for a true null), a
    ranking of a family's columns across the draw's configs that agree on
    those columns' shifts, and a family's outcome across the spec's
    consecutive configs that also agree on its sources' outcomes. Only one
    block of one draw is held at a time. Results equal simulate_fwer's.
    A failing element does not stop the others; if any failed, a SweepError
    carrying all element errors (and the successful results) is raised.
    """
    results, errors = _run(configs)
    if errors:
        raise SweepError(errors, results)
    return [results[i] for i in range(len(configs))]


def _run(
    configs: Sequence[SimConfig], scores: np.ndarray | None = None
) -> tuple[dict[int, SimResult], list[tuple[int, Exception]]]:
    """Results by index, and (index, error) pairs in config order.

    Every config is checked first; a failing one is left out. The others
    are grouped by draw (the arguments of their `draw_scores` call), and
    each draw runs one block of rows at a time over all of its configs.
    """
    errors = []
    draws: dict[tuple, list[int]] = {}  # draw -> its configs' indices, in order
    for i, config in enumerate(configs):
        try:
            draws.setdefault(_check_config(config, scores), []).append(i)
        except Exception as exc:  # noqa: BLE001 - per-element isolation
            errors.append((i, exc))
    results = {}
    for draw, members in draws.items():
        # Each block is added in and dropped before the next is drawn.
        totals = sum(
            _block(configs, members, draw, start, scores) for start in range(0, draw[1], _BLOCK)
        )
        for i, (hits, *counts) in zip(members, totals.tolist()):
            config = configs[i]
            fwer_hat = hits / config.reps
            results[i] = SimResult(
                fwer_hat=fwer_hat,
                se=math.sqrt(fwer_hat * (1.0 - fwer_hat) / config.reps),
                rejections_per_hypothesis=dict(zip(config.spec.plan.order, counts)),
                reps=config.reps,
                seed=config.seed,
            )
    return dict(sorted(results.items())), errors


def _block(configs, members: list[int], draw: tuple, start: int, given) -> np.ndarray:
    """One row per member config, read off its rejection matrix (the one
    place that reads the truth): the rows of block `start` of their shared
    `draw` that rejected a true null, then its rejections per column.

    The block's scores are drawn once (or sliced from `given`, the whole
    score matrix of a lone config). A column's p-values are mapped once per
    shift (delta for a false null, 0 for a true null), when a family first
    needs them, by the block's one `column` function. Each plan keeps the
    last outcome of each family, keyed by `_evaluate` on its inputs: it is
    retested exactly when its own shifts or those upstream change, so at
    delta 0 every mask shares it. A retest reuses the ranking of its column
    range from `ranks` if those columns' shifts were seen, by any config of
    the draw (`_rank`). Everything is dropped on return.
    """
    seed, reps, n, kind, rho = draw
    stop = min(reps, start + _BLOCK)
    if given is None:
        scores = draw_scores(seed, stop - start, n, kind, rho, start)
    else:
        scores = given[start:stop]
    pcols: dict[tuple, np.ndarray] = {}  # (column, shift) -> p-values

    def column(j: int, s: float) -> np.ndarray:
        p = pcols.get((j, s))
        if p is None:  # -(score + 0.0) maps as -score does
            p = pcols[j, s] = ndtr(-(scores[:, j] + s))
        return p

    memos: dict[int, dict] = {}  # id(plan) -> its family memo
    ranks = {} if len(members) > 1 else None  # see _rank; a lone config reuses none
    out = np.empty((len(members), n + 1), dtype=np.int64)
    for row, i in zip(out, members):
        config = configs[i]
        plan = config.spec.plan
        false_null = np.array([config.truth[label] == FALSE_NULL for label in plan.order])
        shift = np.where(false_null, config.model.delta, 0.0)  # a false null's score shift
        rejected = _evaluate(plan, column, shift, memos.setdefault(id(plan), {}), ranks)
        row[0] = np.count_nonzero(rejected[~false_null].any(axis=0))  # rows that rejected a true null
        row[1:] = rejected.sum(axis=1)
    return out


def truth_mask(config: SimConfig) -> str:
    """'1'/'0' per hypothesis (spec label order): 1 marks a true null."""
    order = config.spec.plan.order
    return "".join("1" if config.truth[label] == TRUE_NULL else "0" for label in order)


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


@dataclass(frozen=True, eq=False)
class _Outcome:
    """One family's result on every row; it equals only itself."""

    rejected: np.ndarray  # (family size, rows): one row of rejections per column
    spendable: np.ndarray | None  # Kernel.bound's spare: passed on per unit of g; None if no edges


def _evaluate(plan, column, shift, memo: dict, ranks: dict | None = None) -> np.ndarray:
    """Run the families of `plan` in order on every row; the (columns,
    rows) boolean rejection matrix, columns in `plan.order`.

    `column(j, s)` gives the p-values of column j (of `plan.order`) at
    score shift `s`; `shift` holds each column's shift. `memo` holds one
    entry per family: a family reuses its stored outcome when its inputs
    are those stored with it, namely its own columns' shifts and its
    sources' outcomes (each equal only to itself). Columns are read only
    for families that are tested. `ranks`, if given, keeps the families'
    rankings from call to call (`_rank`).
    """
    outcomes: dict[str, _Outcome] = {}
    for fam in plan.families:
        cols = plan.columns[fam.name]
        sources = plan.sources[fam.name]
        key = (shift[cols].tobytes(), *(outcomes[src] for src, _ in sources))
        if fam.name in memo and memo[fam.name][0] == key:
            outcomes[fam.name] = memo[fam.name][1]
            continue
        # One row per column: every step below works on whole columns.
        p = np.array([column(j, s) for j, s in enumerate(shift[cols].tolist(), cols.start)])
        # Incoming level is added in source execution order, as engine.run adds it.
        level = fam.initial_alpha  # a float; a column once a source adds to it
        for src, g in sources:
            level = level + outcomes[src].spendable * g
        kernel, rank_key = plan.kernels[fam.name], (cols.start, cols.stop, key[0])
        rej = np.array(kernel.test(p, level, lambda p: _rank(p, ranks, rank_key)))
        spendable = None
        if plan.edges[fam.name]:
            spendable = kernel.bound(level, ~rej)[1]
        outcomes[fam.name] = _Outcome(rej, spendable)
        memo[fam.name] = (key, outcomes[fam.name])
    return np.concatenate([outcome.rejected for outcome in outcomes.values()])


def batch_run(spec: GraphSpec, pmat: np.ndarray) -> np.ndarray:
    """Evaluate the strategy on every row of `pmat` simultaneously.

    `pmat` has one column per hypothesis in `spec.labels()` order. Returns
    a boolean matrix of the same shape: True where rejected. Agrees with
    `engine.run` row by row.
    """
    plan = spec.plan
    n = len(plan.order)
    pmat = np.asarray(pmat, dtype=float)
    if pmat.ndim != 2 or pmat.shape[1] != n:
        raise ValueError(f"p matrix must be (reps, {n})")
    if not np.all((pmat >= 0.0) & (pmat <= 1.0)):  # NaN fails both
        raise ValueError("p-values outside [0, 1]")
    return _evaluate(plan, lambda j, _: pmat[:, j], np.zeros(n), {}).T


def _rank(p: np.ndarray, ranks: dict | None, key: tuple) -> np.ndarray:
    """Each replicate's p-values in ascending order (one row per rank).

    A ranking does not depend on the level, nor on the strategy: within a
    block it depends only on the family's columns and their shifts. So
    `ranks` keeps it, keyed by (first column, end column, own shifts), for
    the other configs of the block, whatever their strategy; least recently
    used first, and at most `_RANK_BUDGET` values in all.
    """
    ranked = None if ranks is None else ranks.pop(key, None)
    if ranked is None:
        ranked = np.sort(p, axis=0)
        while ranks and sum(r.size for r in ranks.values()) + ranked.size > _RANK_BUDGET:
            del ranks[next(iter(ranks))]
    if ranks is not None:
        ranks[key] = ranked
    return ranked


# ---------------------------------------------------------------------------
# JSON / file formats
# ---------------------------------------------------------------------------


def sim_config_to_json(config: SimConfig) -> str:
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
    return dumps(obj)


_TRUTH_FORMAT = "truth must map labels to true_null/false_null"


def _config_from_obj(obj, seed: int | None, specs: dict[bytes, tuple]) -> SimConfig:
    """Build one config; `specs` holds the specs parsed so far, by the
    `marshal` bytes of their JSON value (which keep bool, int and float
    apart), so that configs sharing a strategy share one GraphSpec. Each
    spec is kept with a map that takes its labels and the two truth values
    to the spec's and this module's string objects, so that a config's
    truth holds no copies of them."""
    obj = fields(obj, ("spec", "truth", "reps"), "config", ("model", "seed"))
    try:
        key = marshal.dumps(obj["spec"])
        spec_text = None if key in specs else json.dumps(obj["spec"])
    except (ValueError, RecursionError) as exc:  # nested deeper than either writes
        raise SpecFormatError(f"not valid JSON: {exc}") from None
    if spec_text is not None:
        spec = spec_from_json(spec_text)
        specs[key] = spec, {s: s for s in (*spec.labels(), TRUE_NULL, FALSE_NULL)}
    spec, own = specs[key]
    if not isinstance(obj["truth"], dict):
        raise SpecFormatError(_TRUTH_FORMAT)
    truth = {}  # unknown labels and values stay as they are, for _check_config
    for label, value in obj["truth"].items():
        if not (isinstance(label, str) and isinstance(value, str)):
            raise SpecFormatError(_TRUTH_FORMAT)
        truth[own.get(label, label)] = own.get(value, value)
    model = fields(obj.get("model", {}), (), "model", ("kind", "rho", "delta"))
    effective_seed = obj.get("seed", seed)
    if effective_seed is None:
        raise SpecFormatError("no seed: provide one in the config or via --seed")
    return SimConfig(
        spec,
        truth,
        PValueModel(
            kind=string(model.get("kind", "independent_uniform"), "model kind"),
            rho=finite(model.get("rho", 0.0), "model rho"),
            delta=finite(model.get("delta", 3.0), "model delta"),
        ),
        integer(obj["reps"], "reps"),
        integer(effective_seed, "seed"),
    )


def _json_error(message: str, text: str, pos: int) -> SpecFormatError:
    return SpecFormatError(f"not valid JSON: {json.JSONDecodeError(message, text, pos)}")


def sim_configs_from_json(text: str, seed: int | None = None) -> list[SimConfig]:
    """Parse one config object or a list of them; `seed` fills missing seeds.

    A list is read one element at a time, and each config is built before
    the next element is decoded, so only one element's tree is held. It
    accepts exactly what `json.loads` accepts.
    """
    specs: dict[bytes, tuple] = {}
    skip = WHITESPACE.match
    i = skip(text).end()
    if text[i:i + 1] != "[":
        return [_config_from_obj(loads(text), seed, specs)]
    decode = json.JSONDecoder().raw_decode
    configs = []
    i = skip(text, i + 1).end()
    if text[i:i + 1] != "]":
        while True:
            try:
                entry, i = decode(text, i)
            except (ValueError, RecursionError) as exc:
                raise SpecFormatError(f"not valid JSON: {exc}") from None
            configs.append(_config_from_obj(entry, seed, specs))
            del entry  # before the next element is decoded
            i = skip(text, i).end()
            if text[i:i + 1] != ",":
                break
            i = skip(text, i + 1).end()
        if text[i:i + 1] != "]":
            raise _json_error("Expecting ',' delimiter", text, i)
    i = skip(text, i + 1).end()
    if i != len(text):
        raise _json_error("Extra data", text, i)
    return configs


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


def sim_result_to_json(result: SimResult) -> str:
    return dumps(sim_result_obj(result))
