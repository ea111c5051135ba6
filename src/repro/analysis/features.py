"""Structural analysis of a policy query.

Everything in §4 of the paper reasons over the same handful of facts about
a policy: which FROM items are usage-log relations (vs. database tables vs.
the Clock), which conjuncts equi-join timestamps (the *neighborhood*
relation of Lemma 4.1), how predicates mention the clock, whether the
policy is monotone, and which users or timestamps pin its witnesses. This
module derives those facts once per SELECT block into a
:class:`PolicyFacts`; time-independence, partial policies, witnesses,
decision-cache profiles, incremental classification and shard placement
all read that record instead of re-deriving it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..engine import Database
from ..errors import PolicySyntaxError
from ..log import LogRegistry
from ..log.store import CLOCK_TABLE
from ..sql import ast
from .monotonicity import can_interleave, is_monotone


@dataclass(frozen=True)
class ClockPredicate:
    """A clock conjunct normalized to ``c.ts <op> bound`` (Lemma 4.3).

    ``bound`` never references the clock. The original conjunct index lets
    rewrites drop/replace it in place.
    """

    op: str  # "<" | "<=" | ">" | ">=" | "="
    bound: ast.Expr
    conjunct_index: int


@dataclass
class PolicyFacts:
    """Facts about one SELECT block needed by the §4 algorithms."""

    select: ast.Select
    #: alias → log relation name, for FROM items that are log relations.
    log_occurrences: dict[str, str] = field(default_factory=dict)
    #: alias → table name, for other base tables (excluding Clock).
    db_tables: dict[str, str] = field(default_factory=dict)
    #: aliases bound to the Clock relation.
    clock_aliases: set[str] = field(default_factory=set)
    #: alias → the facts of each SELECT block of a FROM subquery.
    subqueries: dict[str, list["PolicyFacts"]] = field(default_factory=dict)
    #: WHERE conjuncts, in order.
    conjuncts: list[ast.Expr] = field(default_factory=list)
    #: alias → set of aliases (log occurrences incl. itself) reachable via
    #: ts-equijoins — the paper's N(Ri) plus the relation itself.
    ts_components: dict[str, set[str]] = field(default_factory=dict)
    #: Normalized clock predicates; None when some clock conjunct does not
    #: fit the supported linear shapes (then compaction must retain all).
    clock_predicates: Optional[list[ClockPredicate]] = None
    #: alias → column names (log schema, catalog, or subquery output).
    alias_columns: dict[str, list[str]] = field(default_factory=dict)
    #: Every table the block reads anywhere (subqueries included), in
    #: walk order.
    tables: tuple = ()
    #: The log relations among ``tables``.
    log_relations: frozenset = frozenset()
    #: Growing the log can only grow the answer (§4.2.1).
    monotone: bool = False
    #: Algorithm 3 may evaluate the block through partial policies.
    can_interleave: bool = False
    #: There are log occurrences and they all share one ts-component, so
    #: every witness carries a single timestamp (one query's rows).
    single_ts_component: bool = False
    #: Every clock predicate shrinks (or fixes) the matched window as time
    #: passes (``c.ts </≤/= bound``), so no violation can appear without a
    #: new increment — what §4.3's improved partials and uid-pinned shard
    #: placement both rely on.
    window_limiting: bool = False
    #: Log alias → uid constant, for ``alias.uid = <int literal>`` pins.
    uid_pins: dict[str, int] = field(default_factory=dict)
    #: Log aliases whose ts is equated (transitively) with a clock's ts:
    #: they only ever match the current query's increment.
    current_aliases: set[str] = field(default_factory=set)
    #: Some GROUP BY key is a log occurrence's ts (per-query groups).
    groups_by_log_ts: bool = False

    def neighborhood(self, alias: str) -> set[str]:
        """Other log occurrences ts-joined with ``alias`` (N(Ri))."""
        return self.ts_components.get(alias, {alias}) - {alias}

    def log_relation_names(self) -> set[str]:
        """The log relations of this block's own FROM items."""
        return set(self.log_occurrences.values())


def referenced_log_relations(query: ast.Query, registry: LogRegistry) -> set[str]:
    """All log relations referenced anywhere in a query (incl. subqueries)."""
    names: set[str] = set()
    for node in query.walk():
        if isinstance(node, ast.TableRef) and registry.is_log_relation(node.name):
            names.add(node.name.lower())
    return names


def analyze_structure(
    select: ast.Select,
    registry: LogRegistry,
    database: Optional[Database] = None,
) -> PolicyFacts:
    """Build the :class:`PolicyFacts` for one SELECT block (and, nested
    under it, for every block of its FROM subqueries).

    ``database`` (when available) supplies column lists of database tables
    so that unqualified column references can be attributed to an alias;
    without it, only log relations and subqueries are resolvable.
    """
    facts = PolicyFacts(select=select)

    for item in select.from_items:
        alias = item.binding_name().lower()
        if alias in facts.alias_columns:
            raise PolicySyntaxError(f"duplicate FROM alias {alias!r}")
        if isinstance(item, ast.TableRef):
            name = item.name.lower()
            if registry.is_log_relation(name):
                facts.log_occurrences[alias] = name
                facts.alias_columns[alias] = registry.get(name).full_columns
            elif name == CLOCK_TABLE:
                facts.clock_aliases.add(alias)
                facts.alias_columns[alias] = ["ts"]
            else:
                facts.db_tables[alias] = name
                if database is not None and database.has_table(name):
                    facts.alias_columns[alias] = list(
                        database.table(name).schema.column_names
                    )
                else:
                    facts.alias_columns[alias] = []
        elif isinstance(item, ast.SubqueryRef):
            facts.subqueries[alias] = [
                analyze_structure(block, registry, database)
                for block in _selects_of(item.query)
            ]
            facts.alias_columns[alias] = _subquery_output_names(item.query)
        else:  # pragma: no cover - parser yields only these
            raise PolicySyntaxError(f"unsupported FROM item {type(item).__name__}")

    tables = dict.fromkeys(
        node.name.lower()
        for node in select.walk()
        if isinstance(node, ast.TableRef)
    )
    facts.tables = tuple(tables)
    facts.log_relations = frozenset(
        name for name in tables if registry.is_log_relation(name)
    )
    facts.monotone = is_monotone(select)
    facts.can_interleave = can_interleave(select)
    facts.conjuncts = ast.conjuncts(select.where)
    _compute_ts_components(facts)
    occurrences = set(facts.log_occurrences)
    facts.single_ts_component = bool(occurrences) and all(
        component == occurrences for component in facts.ts_components.values()
    )
    facts.clock_predicates = _normalize_clock_predicates(facts)
    facts.window_limiting = facts.clock_predicates is not None and all(
        predicate.op in ("<", "<=", "=")
        for predicate in facts.clock_predicates
    )
    facts.uid_pins = _uid_pins(facts)
    facts.current_aliases = _ts_joined_with_clock(facts)
    facts.groups_by_log_ts = any(
        isinstance(expr, ast.ColumnRef)
        and expr.name == "ts"
        and qualifier_for(expr, facts) in facts.log_occurrences
        for expr in select.group_by
    )
    return facts


def floor_history(facts: PolicyFacts, floor: int) -> ast.Select:
    """The block ``facts`` describes, with its history starting after
    ``floor``.

    The paper's rule for a policy registered mid-stream (§4.1.2
    footnote): it only sees log entries from then on, so ``alias.ts >
    floor`` is conjoined for every log occurrence — in this block and in
    every block of its FROM subqueries.
    """

    def floored(item: ast.FromItem) -> ast.FromItem:
        if not isinstance(item, ast.SubqueryRef):
            return item
        blocks = iter(facts.subqueries[item.binding_name().lower()])
        return item.replace(query=_floor_blocks(item.query, blocks, floor))

    select = facts.select.replace(
        from_items=tuple(floored(item) for item in facts.select.from_items)
    )
    extra = [
        ast.BinaryOp(">", ast.col(alias, "ts"), ast.lit(floor))
        for alias in sorted(facts.log_occurrences)
    ]
    if not extra:
        return select
    return select.replace(
        where=ast.conjoin(ast.conjuncts(select.where) + extra)
    )


def _floor_blocks(query: ast.Query, blocks, floor: int) -> ast.Query:
    """Floor each SELECT block of a subquery, in :func:`_selects_of`
    order (``blocks`` yields their facts)."""
    if isinstance(query, ast.SetOp):
        left = _floor_blocks(query.left, blocks, floor)
        right = _floor_blocks(query.right, blocks, floor)
        return query.replace(left=left, right=right)
    return floor_history(next(blocks), floor)


def qualifier_for(
    ref: ast.ColumnRef, facts: PolicyFacts
) -> Optional[str]:
    """Alias a column ref belongs to, or None when unresolvable."""
    if ref.table is not None:
        alias = ref.table.lower()
        return alias if alias in facts.alias_columns else None
    matches = [
        alias
        for alias, columns in facts.alias_columns.items()
        if ref.name in columns
    ]
    return matches[0] if len(matches) == 1 else None


def aliases_of(expr: ast.Expr, facts: PolicyFacts) -> set[str]:
    """All aliases an expression's column refs resolve to.

    Unresolvable refs map to the pseudo-alias ``"?"`` so callers can treat
    them conservatively.
    """
    aliases: set[str] = set()
    for ref in ast.column_refs(expr):
        alias = qualifier_for(ref, facts)
        aliases.add(alias if alias is not None else "?")
    return aliases


def fresh_alias(select: ast.Select, base: str) -> str:
    """``base`` or ``base<n>``: an alias no FROM binding or column
    qualifier anywhere in ``select`` uses."""
    taken = set()
    for node in select.walk():
        if isinstance(node, (ast.TableRef, ast.SubqueryRef)):
            taken.add(node.binding_name().lower())
        elif isinstance(node, ast.ColumnRef) and node.table is not None:
            taken.add(node.table.lower())
    alias, suffix = base, 0
    while alias in taken:
        suffix += 1
        alias = f"{base}{suffix}"
    return alias


def _selects_of(query: ast.Query) -> list[ast.Select]:
    if isinstance(query, ast.SetOp):
        return _selects_of(query.left) + _selects_of(query.right)
    assert isinstance(query, ast.Select)
    return [query]


def _subquery_output_names(query: ast.Query) -> list[str]:
    if isinstance(query, ast.SetOp):
        return _subquery_output_names(query.left)
    assert isinstance(query, ast.Select)
    names: list[str] = []
    for position, item in enumerate(query.items):
        if isinstance(item.expr, ast.Star):
            continue  # unknown expansion without a catalog; skip
        if item.alias:
            names.append(item.alias.lower())
        elif isinstance(item.expr, ast.ColumnRef):
            names.append(item.expr.name)
        elif isinstance(item.expr, ast.FuncCall):
            names.append(item.expr.name)
        else:
            names.append(f"col{position + 1}")
    return names


def _compute_ts_components(facts: PolicyFacts) -> None:
    """Union-find over ``X.ts = Y.ts`` conjuncts between log occurrences."""
    parents: dict[str, str] = {
        alias: alias for alias in facts.log_occurrences
    }

    def find(alias: str) -> str:
        while parents[alias] != alias:
            parents[alias] = parents[parents[alias]]
            alias = parents[alias]
        return alias

    def union(a: str, b: str) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parents[root_a] = root_b

    for conjunct in facts.conjuncts:
        pair = _ts_equijoin_pair(conjunct, facts)
        if pair is not None:
            union(*pair)

    components: dict[str, set[str]] = {}
    for alias in facts.log_occurrences:
        components.setdefault(find(alias), set()).add(alias)
    facts.ts_components = {
        alias: components[find(alias)] for alias in facts.log_occurrences
    }


def _ts_equijoin_pair(
    conjunct: ast.Expr, facts: PolicyFacts
) -> Optional[tuple[str, str]]:
    """If ``conjunct`` is ``a.ts = b.ts`` between two log occurrences,
    return the alias pair."""
    if not (
        isinstance(conjunct, ast.BinaryOp)
        and conjunct.op == "="
        and isinstance(conjunct.left, ast.ColumnRef)
        and isinstance(conjunct.right, ast.ColumnRef)
    ):
        return None
    left, right = conjunct.left, conjunct.right
    if left.name != "ts" or right.name != "ts":
        return None
    left_alias = qualifier_for(left, facts)
    right_alias = qualifier_for(right, facts)
    if (
        left_alias in facts.log_occurrences
        and right_alias in facts.log_occurrences
        and left_alias != right_alias
    ):
        return left_alias, right_alias
    return None


def _ts_joined_with_clock(facts: PolicyFacts) -> set[str]:
    """Log aliases whose ts is equated with some clock alias's ts."""
    direct: set[str] = set()
    for conjunct in facts.conjuncts:
        if not (
            isinstance(conjunct, ast.BinaryOp)
            and conjunct.op == "="
            and isinstance(conjunct.left, ast.ColumnRef)
            and isinstance(conjunct.right, ast.ColumnRef)
        ):
            continue
        left_alias = qualifier_for(conjunct.left, facts)
        right_alias = qualifier_for(conjunct.right, facts)
        if (
            left_alias in facts.clock_aliases
            and conjunct.left.name == "ts"
            and right_alias in facts.log_occurrences
            and conjunct.right.name == "ts"
        ):
            direct.add(right_alias)
        if (
            right_alias in facts.clock_aliases
            and conjunct.right.name == "ts"
            and left_alias in facts.log_occurrences
            and conjunct.left.name == "ts"
        ):
            direct.add(left_alias)
    # Transitive through ts components.
    joined: set[str] = set()
    for alias in direct:
        joined |= facts.ts_components.get(alias, {alias})
    return joined


def _uid_pins(facts: PolicyFacts) -> "dict[str, int]":
    """Log aliases pinned by an ``alias.uid = <int literal>`` conjunct."""
    pins: dict[str, int] = {}
    for conjunct in facts.conjuncts:
        pair = _pin_pair(conjunct, facts)
        if pair is not None:
            alias, value = pair
            pins[alias] = value
    return pins


def _pin_pair(
    conjunct: ast.Expr, facts: PolicyFacts
) -> "Optional[tuple[str, int]]":
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return None
    for ref, other in (
        (conjunct.left, conjunct.right),
        (conjunct.right, conjunct.left),
    ):
        if not (isinstance(ref, ast.ColumnRef) and ref.name == "uid"):
            continue
        if not (
            isinstance(other, ast.Literal)
            and isinstance(other.value, int)
            and not isinstance(other.value, bool)
        ):
            continue
        alias = ref.table.lower() if ref.table else None
        if alias is None:
            candidates = [
                a
                for a, columns in facts.alias_columns.items()
                if "uid" in columns and a in facts.log_occurrences
            ]
            alias = candidates[0] if len(candidates) == 1 else None
        if (
            alias in facts.log_occurrences
            and "uid" in facts.alias_columns.get(alias, [])
        ):
            return alias, other.value
    return None


def _normalize_clock_predicates(
    facts: PolicyFacts,
) -> Optional[list[ClockPredicate]]:
    """Normalize every clock-referencing conjunct to ``c.ts op bound``.

    Supported shapes (op any of ``= < <= > >=``)::

        c.ts op expr          expr op c.ts
        c.ts ± k op expr      expr op c.ts ± k

    where ``expr`` does not reference the clock and ``k`` is a numeric
    literal. Anything else (``<>`` on the clock, clock-to-clock joins,
    nonlinear uses) returns None — compaction then retains everything, per
    the paper's restriction.
    """
    predicates: list[ClockPredicate] = []
    for index, conjunct in enumerate(facts.conjuncts):
        clock_refs = [
            ref
            for ref in ast.column_refs(conjunct)
            if qualifier_for(ref, facts) in facts.clock_aliases
        ]
        if not clock_refs:
            continue
        normalized = _normalize_one_clock_conjunct(conjunct, facts, index)
        if normalized is None:
            return None
        predicates.append(normalized)
    return predicates


def _normalize_one_clock_conjunct(
    conjunct: ast.Expr, facts: PolicyFacts, index: int
) -> Optional[ClockPredicate]:
    if not isinstance(conjunct, ast.BinaryOp):
        return None
    op = conjunct.op
    if op not in ("=", "<", "<=", ">", ">="):
        return None

    left_clock = _clock_side(conjunct.left, facts)
    right_clock = _clock_side(conjunct.right, facts)
    if (left_clock is None) == (right_clock is None):
        return None  # clock on both sides or neither side in linear form

    if left_clock is not None:
        shift = left_clock
        other = conjunct.right
        oriented_op = op
    else:
        assert right_clock is not None
        shift = right_clock
        other = conjunct.left
        oriented_op = ast.FLIP[op]

    # Now: (c.ts + shift) oriented_op other, with `other` clock-free.
    if _references_clock(other, facts):
        return None
    bound: ast.Expr = other
    if shift != _ZERO:
        bound = ast.BinaryOp("-", other, shift)
    return ClockPredicate(op=oriented_op, bound=bound, conjunct_index=index)


_ZERO = ast.Literal(0)


def _references_clock(expr: ast.Expr, facts: PolicyFacts) -> bool:
    return any(
        qualifier_for(ref, facts) in facts.clock_aliases
        for ref in ast.column_refs(expr)
    )


def _clock_side(
    expr: ast.Expr, facts: PolicyFacts
) -> Optional[ast.Expr]:
    """If ``expr`` is linear in the clock — ``c.ts`` or ``c.ts ± shift``
    with a clock-free shift — return the shift expression, else None.

    The shift may reference relation attributes (a unified policy's window
    lives in a constants-table column), not just literals.
    """

    def is_clock_ts(node: ast.Expr) -> bool:
        return (
            isinstance(node, ast.ColumnRef)
            and node.name == "ts"
            and qualifier_for(node, facts) in facts.clock_aliases
        )

    if is_clock_ts(expr):
        return _ZERO
    if isinstance(expr, ast.BinaryOp) and expr.op in ("+", "-"):
        if is_clock_ts(expr.left) and not _references_clock(
            expr.right, facts
        ):
            if expr.op == "+":
                return expr.right
            return ast.UnaryOp("-", expr.right)
        if (
            expr.op == "+"
            and is_clock_ts(expr.right)
            and not _references_clock(expr.left, facts)
        ):
            return expr.left
    return None
