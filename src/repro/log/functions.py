"""Log-generating functions and their registry (§3.2).

A :class:`LogFunction` computes, for each checked query, the set of rows
``S_i = f_i(q, D)`` to append to its log relation ``R_i`` (the system
prepends the timestamp: ``R_i ∪ ({t} × S_i)``). The three standard
functions implement Example 3.3:

- ``Users(ts, uid)`` — who issued the query (cheap);
- ``Schema(ts, ocid, irid, icid, agg)`` — static analysis of the query
  text (cheap, data-independent);
- ``Provenance(ts, otid, irid, itid)`` — the contributing-tuples lineage
  of the query's output (expensive: runs the query with lineage — a run
  the enforcer then returns as the answer when it may).

The registry is ordered: the interleaved evaluator (Algorithm 3) adds logs
to ``S`` in registry order, which the paper chose experimentally as
Users → Schema → Provenance (cheapest first).

New domains plug in by registering additional functions (§6's
extensibility discussion) — see ``examples/custom_log_function.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..errors import UnknownLogRelationError
from .context import QueryContext

#: Rows produced by a log function (without the timestamp column).
LogRows = list[tuple]


@dataclass(frozen=True)
class LogFunction:
    """One usage-log relation and its generating function."""

    name: str
    #: Columns after the leading ``ts`` column.
    columns: tuple[str, ...]
    generate: Callable[[QueryContext], LogRows]
    #: Relative generation cost; the registry orders by this (then name).
    cost_rank: int = 0

    @property
    def full_columns(self) -> list[str]:
        return ["ts", *self.columns]


def _generate_users(ctx: QueryContext) -> LogRows:
    return [(ctx.uid,)]


def _generate_schema(ctx: QueryContext) -> LogRows:
    return ctx.schema_rows()


def _generate_provenance(ctx: QueryContext) -> LogRows:
    result = ctx.lineage_result()
    rows: LogRows = []
    assert result.lineages is not None
    for otid, lineage in enumerate(result.lineages):
        for irid, itid in sorted(lineage):
            rows.append((otid, irid, itid))
    return rows


USERS = LogFunction(
    name="users", columns=("uid",), generate=_generate_users, cost_rank=0
)
SCHEMA = LogFunction(
    name="schema",
    columns=("ocid", "irid", "icid", "agg"),
    generate=_generate_schema,
    cost_rank=1,
)
PROVENANCE = LogFunction(
    name="provenance",
    columns=("otid", "irid", "itid"),
    generate=_generate_provenance,
    cost_rank=2,
)

STANDARD_LOG_FUNCTIONS = (USERS, SCHEMA, PROVENANCE)


class LogRegistry:
    """An ordered collection of log functions, keyed by relation name."""

    def __init__(self, functions: Iterable[LogFunction] = STANDARD_LOG_FUNCTIONS):
        self._functions: dict[str, LogFunction] = {}
        for function in functions:
            self.register(function)

    def register(self, function: LogFunction) -> None:
        key = function.name.lower()
        if key in self._functions:
            raise ValueError(f"log relation {function.name!r} already registered")
        self._functions[key] = function

    def names(self) -> list[str]:
        """Relation names in interleaving order (cheapest first)."""
        ordered = sorted(
            self._functions.values(), key=lambda f: (f.cost_rank, f.name)
        )
        return [function.name for function in ordered]

    def ordered(self) -> list[LogFunction]:
        return [self._functions[name] for name in self.names()]

    def get(self, name: str) -> LogFunction:
        try:
            return self._functions[name.lower()]
        except KeyError:
            raise UnknownLogRelationError(
                f"no log-generating function registered for {name!r}"
            ) from None

    def is_log_relation(self, name: str) -> bool:
        return name.lower() in self._functions

    def subset(self, names: Sequence[str]) -> "LogRegistry":
        """A registry containing only the named relations."""
        return LogRegistry([self.get(name) for name in names])


def standard_registry() -> LogRegistry:
    """The paper's three-relation usage log."""
    return LogRegistry(STANDARD_LOG_FUNCTIONS)
