"""The stable, supported Python surface of the package.

Deep module paths (``repro.core.enforcer``, ``repro.service.shard``,
``repro.analysis``) are internal: they exist to mirror the paper's
architecture and may be reorganized between releases. Code embedding the
enforcer should import from here — this module's names track the
versioned HTTP surface (``/v1``) and will only change with a version
bump.

Two construction styles::

    from repro.api import connect, Policy

    enforcer = connect(database=db, policies=[p1, p2])
    decision = enforcer.submit("SELECT * FROM navteq", uid=1)

or, when the setup grows conditionals::

    from repro.api import EnforcerBuilder

    enforcer = (
        EnforcerBuilder(db)
        .policy("no-joins", "SELECT DISTINCT 'no joins' FROM schema ...")
        .clock(SimulatedClock(default_step_ms=50))
        .options(decision_cache=True)
        .build()
    )

Both accept a ``profile`` — ``"datalawyer"`` (every §4 optimization on,
the default) or ``"noopt"`` (the paper's baseline) — plus any
:class:`EnforcerOptions` field as a keyword override.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import (
    Decision,
    Enforcer,
    EnforcerOptions,
    Policy,
    Violation,
    explain_decision,
)
from .engine import Database, Result
from .log import Clock, LogFunction, LogRegistry

__all__ = [
    "connect",
    "EnforcerBuilder",
    "Policy",
    "Decision",
    "Violation",
    "Database",
    "Enforcer",
    "EnforcerOptions",
    "Result",
    "Clock",
    "LogFunction",
    "LogRegistry",
    "explain_decision",
]

#: The supported configuration profiles, by name.
_PROFILES = {
    "datalawyer": EnforcerOptions.datalawyer,
    "noopt": EnforcerOptions.noopt,
}


def _resolve_options(profile: str, overrides: dict) -> EnforcerOptions:
    try:
        factory = _PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown profile {profile!r}; expected one of "
            f"{sorted(_PROFILES)}"
        ) from None
    return factory(**overrides)


def connect(
    *,
    database: Database,
    policies: Sequence[Policy] = (),
    registry: Optional[LogRegistry] = None,
    clock: Optional[Clock] = None,
    profile: str = "datalawyer",
    **options,
) -> Enforcer:
    """Build an :class:`Enforcer` over ``database`` in one call.

    All arguments are keyword-only. ``registry`` and ``clock`` default
    to the standard log functions and a logical clock; extra keywords
    are :class:`EnforcerOptions` fields layered over the chosen
    ``profile``::

        enforcer = connect(
            database=db,
            policies=[quota],
            profile="datalawyer",
            decision_cache=True,
        )
    """
    return Enforcer(
        database,
        list(policies),
        registry=registry,
        clock=clock,
        options=_resolve_options(profile, options),
    )


class EnforcerBuilder:
    """Incremental construction of an :class:`Enforcer`.

    Every method returns the builder, so configuration chains; nothing
    is validated until :meth:`build` (which delegates to the same
    machinery as :func:`connect`). The builder is single-use in spirit
    but has no hidden state — calling :meth:`build` twice yields two
    independent enforcers over the *same* database object.
    """

    def __init__(self, database: Database):
        self._database = database
        self._policies: list = []
        self._registry: Optional[LogRegistry] = None
        self._clock: Optional[Clock] = None
        self._profile = "datalawyer"
        self._options: dict = {}

    def policies(self, *policies: Policy) -> "EnforcerBuilder":
        """Append already-constructed :class:`Policy` objects."""
        self._policies.extend(policies)
        return self

    def policy(
        self, name: str, sql: str, description: str = ""
    ) -> "EnforcerBuilder":
        """Append one policy from its SQL text."""
        self._policies.append(Policy.from_sql(name, sql, description))
        return self

    def registry(self, registry: LogRegistry) -> "EnforcerBuilder":
        """Use custom log functions instead of the standard registry."""
        self._registry = registry
        return self

    def clock(self, clock: Clock) -> "EnforcerBuilder":
        """Use this clock (e.g. ``SimulatedClock`` for reproducibility)."""
        self._clock = clock
        return self

    def profile(self, name: str) -> "EnforcerBuilder":
        """Start from ``"datalawyer"`` (default) or ``"noopt"``."""
        self._profile = name
        return self

    def options(self, **overrides) -> "EnforcerBuilder":
        """Layer :class:`EnforcerOptions` fields over the profile."""
        self._options.update(overrides)
        return self

    def build(self) -> Enforcer:
        return Enforcer(
            self._database,
            list(self._policies),
            registry=self._registry,
            clock=self._clock,
            options=_resolve_options(self._profile, self._options),
        )
