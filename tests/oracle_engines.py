"""The oracle (:mod:`oracle`) pointed at the engine, both ways round.

:class:`CheckedEngine` answers on the engine and holds every answer to
the oracle's; :class:`OracleEngine` answers from the oracle, and
:func:`oracle_enforcer` runs Eq. (1) on it.
"""

from __future__ import annotations

from oracle import assert_matches, evaluate

from repro.core import Enforcer, EnforcerOptions
from repro.engine import Engine, Prepared, Result
from repro.engine.columnar import LineageColumns
from repro.errors import ReproError


def _outcome(run) -> tuple:
    """``(value, None)``, or ``(None, error)`` for a ReproError."""
    try:
        return run(), None
    except ReproError as error:
        return None, error


def _ast(query, params):
    """What the oracle evaluates: a prepared plan's template, bound."""
    return query.bind(params) if isinstance(query, Prepared) else query


class CheckedEngine(Engine):
    """The engine, every answer held to the oracle's — errors included:
    both raise the same ReproError subclass, or neither does."""

    def execute(self, query, lineage=False, trace=None, params=()):
        got, error = _outcome(
            lambda: super(CheckedEngine, self).execute(query, lineage, trace, params)
        )
        answer, expected = _outcome(
            lambda: evaluate(_ast(query, params), self.database)
        )
        assert type(error) is type(expected), (query, error, expected)
        if error is not None:
            raise error
        assert_matches(got, answer, query)
        return got


class OracleEngine(Engine):
    """An engine whose every answer is the oracle's (an admissible one)."""

    def execute(self, query, lineage=False, trace=None, params=()):
        answer = evaluate(_ast(query, params), self.database)
        pairs = answer.pairs()
        tracked = LineageColumns.of_sets([lin for _, lin in pairs]) if lineage else None
        return Result(answer.columns, [row for row, _ in pairs], tracked)

    def is_empty(self, query):
        return not evaluate(query, self.database).pairs()

    def plan_is_empty(self, op):
        raise AssertionError("a physical plan reached the oracle engine")


def oracle_enforcer(database, policies=(), **kwargs) -> Enforcer:
    """Eq. (1) run on the oracle: a NoOpt enforcer (no DAG, no witnesses,
    one literal UNION over the policy set) on an :class:`OracleEngine`,
    so the oracle answers every policy check and lineage execution."""
    enforcer = Enforcer(database, policies, options=EnforcerOptions.noopt(), **kwargs)
    enforcer.engine = OracleEngine(database)
    return enforcer
