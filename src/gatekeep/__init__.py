"""Family-based graphical gatekeeping: test hierarchically ordered families
of hypotheses with strong overall FWER control.

A strategy is a directed weighted graph over hypothesis *families*. Layers
are tested in order; each family runs a local FWER-controlling procedure at
its current critical value, and the unspent part of that value flows to
later families along the graph's edges.

The Monte Carlo names (`SimConfig`, `simulate_fwer`, `sweep`, ...) load
`gatekeep.mcsim`, and with it numpy (its only dependency), on first access,
so the decision path (`run`, `validate_spec`, `to_dot`, the oracle) never
imports numpy. The oracle's names (`HypothesisGraph`,
`run_hypothesis_graph`, ...) load `gatekeep.hypgraph` on first access too,
so `run`, `validate` and `dot` do not compile it.
"""

from importlib import import_module

from .engine import (
    ExecutionState,
    FamilyOutcome,
    TestReport,
    Transfer,
    initial_state,
    replay,
    report_from_json,
    report_to_json,
    run,
    step,
)
from .errors import GatekeepError, InvalidSpecError, SpecFormatError, SweepError
from .graph import (
    FamilySpec,
    GraphSpec,
    TransitionCoefficients,
    ValidationOutcome,
    make_spec,
    spec_from_json,
    spec_to_json,
    to_dot,
    validate_spec,
)
from .procedures import (
    FamilyTestInput,
    LocalProcedureSpec,
    error_rate_bound,
    test_family,
)

__version__ = "0.1.0"

_LAZY = {
    **dict.fromkeys(
        ("PValueModel", "SimConfig", "SimResult", "batch_run", "simulate_fwer", "sweep"), "mcsim"
    ),
    **dict.fromkeys(
        ("HypothesisGraph", "graph_from_json", "graph_to_json", "run_hypothesis_graph",
         "validate_graph"),
        "hypgraph",
    ),
}


def __getattr__(name):
    # PEP 562: resolve the simulation and oracle names lazily (see the
    # module docstring).
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ExecutionState",
    "FamilyOutcome",
    "FamilySpec",
    "FamilyTestInput",
    "GatekeepError",
    "GraphSpec",
    "HypothesisGraph",
    "InvalidSpecError",
    "LocalProcedureSpec",
    "PValueModel",
    "SimConfig",
    "SimResult",
    "SpecFormatError",
    "SweepError",
    "TestReport",
    "Transfer",
    "TransitionCoefficients",
    "ValidationOutcome",
    "batch_run",
    "error_rate_bound",
    "graph_from_json",
    "graph_to_json",
    "initial_state",
    "make_spec",
    "replay",
    "report_from_json",
    "report_to_json",
    "run",
    "run_hypothesis_graph",
    "simulate_fwer",
    "spec_from_json",
    "spec_to_json",
    "step",
    "sweep",
    "test_family",
    "to_dot",
    "validate_graph",
    "validate_spec",
]
