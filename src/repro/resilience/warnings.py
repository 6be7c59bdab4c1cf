"""Structured resilience warnings.

Every graceful-degradation path in the framework (static-schedule
construction failure, SimJIT compile/link failure, and the
``sched='static'`` no-effect downgrade) reports through one warning
type so callers can filter, assert on, or escalate them uniformly::

    warnings.filterwarnings("error", category=ResilienceWarning)

The warning carries machine-readable fields next to the human message:

``kind``
    Taxonomy tag (see DESIGN.md section 1.8): ``"static-noop"``,
    ``"sched-fallback"``, ``"simjit-fallback"``,
    ``"instrument-fallback"`` (an observability probe could not be
    compiled into the SimJIT kernel and samples from Python instead).
``component``
    Dotted name (or class name) of the thing that degraded.
``fallback``
    What the run continues on (``"event"``, ``"interpreted"``, ...).
``detail``
    The underlying cause (usually the stringified exception).

``ResilienceWarning`` subclasses :class:`RuntimeWarning` so existing
filters and ``pytest.warns(RuntimeWarning)`` assertions keep matching.

This module must stay import-light (stdlib only): the core simulator
imports it at module load time.
"""

from __future__ import annotations

import warnings as _warnings

__all__ = ["ResilienceWarning", "warn_resilience"]

#: The closed set of degradation kinds (documented in DESIGN.md 1.8).
KINDS = ("static-noop", "sched-fallback", "simjit-fallback",
         "instrument-fallback")


class ResilienceWarning(RuntimeWarning):
    """A component degraded gracefully instead of failing the run."""

    def __init__(self, message, kind="", component="", fallback="",
                 detail=""):
        super().__init__(message)
        self.kind = kind
        self.component = component
        self.fallback = fallback
        self.detail = detail

    def __str__(self):
        return self.args[0] if self.args else ""


def warn_resilience(message, kind, component="", fallback="",
                    detail="", stacklevel=2):
    """Emit one structured :class:`ResilienceWarning`."""
    if kind not in KINDS:
        raise ValueError(f"unknown resilience warning kind {kind!r}; "
                         f"known: {KINDS}")
    _warnings.warn(
        ResilienceWarning(message, kind=kind, component=component,
                          fallback=fallback, detail=detail),
        stacklevel=stacklevel + 1)
