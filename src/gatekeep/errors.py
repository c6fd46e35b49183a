"""Exception types shared across the package."""

from __future__ import annotations


class GatekeepError(Exception):
    """Base class for all errors raised by this package."""


class SpecFormatError(GatekeepError):
    """A spec, graph, config or p-value file is malformed (bad schema, bad value)."""


class InvalidSpecError(GatekeepError):
    """A structurally well-formed spec violates one or more constraints.

    Carries the full violation list so callers can report every problem
    at once instead of fixing them one by one.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations) or "invalid spec")


class SweepError(GatekeepError):
    """One or more sweep elements failed; the rest were still computed.

    `errors` holds (index, exception) pairs; `results` maps the indices
    that succeeded to their SimResult.
    """

    def __init__(self, errors, results):
        self.errors = tuple(errors)
        self.results = dict(results)
        detail = "; ".join(f"config {i}: {exc}" for i, exc in self.errors)
        super().__init__(f"{len(self.errors)} sweep element(s) failed: {detail}")
