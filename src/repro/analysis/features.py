"""Structural analysis of a policy query.

Everything in §4 of the paper reasons over the same handful of facts about
a policy: which FROM items are usage-log relations (vs. database tables vs.
the Clock), which conjuncts equi-join timestamps (the *neighborhood*
relation of Lemma 4.1), and how predicates mention the clock. This module
extracts those facts once into a :class:`PolicyStructure`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..engine import Database
from ..errors import PolicySyntaxError
from ..log import LogRegistry
from ..log.store import CLOCK_TABLE
from ..sql import ast

#: Sentinel substituted for the paper's ``currenttime`` constant when
#: witness queries are instantiated (Lemma 4.3). Executing a query that
#: still contains it fails loudly with an unknown-table error.
CURRENT_TIME_PARAM = ast.ColumnRef("__currenttime__", "value")


def substitute_current_time(query: ast.Node, now: int) -> ast.Node:
    """Replace the ``currenttime`` sentinel with a literal timestamp."""

    def replace(node: ast.Node) -> Optional[ast.Node]:
        if node == CURRENT_TIME_PARAM:
            return ast.Literal(now)
        return None

    return ast.transform(query, replace)


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
class PolicyStructure:
    """Facts about one SELECT block needed by the §4 algorithms."""

    select: ast.Select
    #: alias → log relation name, for FROM items that are log relations.
    log_occurrences: dict[str, str] = field(default_factory=dict)
    #: alias → table name, for other base tables (excluding Clock).
    db_tables: dict[str, str] = field(default_factory=dict)
    #: aliases bound to the Clock relation.
    clock_aliases: set[str] = field(default_factory=set)
    #: alias → subquery AST for FROM subqueries.
    subqueries: dict[str, ast.Query] = field(default_factory=dict)
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

    def neighborhood(self, alias: str) -> set[str]:
        """Other log occurrences ts-joined with ``alias`` (N(Ri))."""
        return self.ts_components.get(alias, {alias}) - {alias}

    def log_relation_names(self) -> set[str]:
        return set(self.log_occurrences.values())

    def references_clock(self) -> bool:
        return bool(self.clock_aliases)

    def window_limiting(self) -> bool:
        """True when every clock predicate shrinks (or fixes) the matched
        window as time passes (``c.ts </≤/= bound``), so no violation can
        appear without a new increment — what §4.3's improved partials
        and uid-pinned shard placement both rely on."""
        return self.clock_predicates is not None and all(
            predicate.op in ("<", "<=", "=")
            for predicate in self.clock_predicates
        )


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
) -> PolicyStructure:
    """Build the :class:`PolicyStructure` for one SELECT block.

    ``database`` (when available) supplies column lists of database tables
    so that unqualified column references can be attributed to an alias;
    without it, only log relations and subqueries are resolvable.
    """
    structure = PolicyStructure(select=select)

    for item in select.from_items:
        alias = item.binding_name().lower()
        if alias in structure.alias_columns:
            raise PolicySyntaxError(f"duplicate FROM alias {alias!r}")
        if isinstance(item, ast.TableRef):
            name = item.name.lower()
            if registry.is_log_relation(name):
                structure.log_occurrences[alias] = name
                structure.alias_columns[alias] = registry.get(name).full_columns
            elif name == CLOCK_TABLE:
                structure.clock_aliases.add(alias)
                structure.alias_columns[alias] = ["ts"]
            else:
                structure.db_tables[alias] = name
                if database is not None and database.has_table(name):
                    structure.alias_columns[alias] = list(
                        database.table(name).schema.column_names
                    )
                else:
                    structure.alias_columns[alias] = []
        elif isinstance(item, ast.SubqueryRef):
            structure.subqueries[alias] = item.query
            structure.alias_columns[alias] = _subquery_output_names(item.query)
        else:  # pragma: no cover - parser yields only these
            raise PolicySyntaxError(f"unsupported FROM item {type(item).__name__}")

    structure.conjuncts = ast.conjuncts(select.where)
    _compute_ts_components(structure)
    structure.clock_predicates = _normalize_clock_predicates(structure)
    return structure


def floor_history(
    select: ast.Select, registry: LogRegistry, floor: int
) -> ast.Select:
    """``select`` with its history starting after ``floor``.

    The paper's rule for a policy registered mid-stream (§4.1.2
    footnote): it only sees log entries from then on, so ``alias.ts >
    floor`` is conjoined for every log occurrence.
    """
    structure = analyze_structure(select, registry)
    extra = [
        ast.BinaryOp(">", ast.col(alias, "ts"), ast.lit(floor))
        for alias in sorted(structure.log_occurrences)
    ]
    if not extra:
        return select
    return select.replace(
        where=ast.conjoin(ast.conjuncts(select.where) + extra)
    )


def qualifier_for(
    ref: ast.ColumnRef, structure: PolicyStructure
) -> Optional[str]:
    """Alias a column ref belongs to, or None when unresolvable."""
    if ref.table is not None:
        alias = ref.table.lower()
        return alias if alias in structure.alias_columns else None
    matches = [
        alias
        for alias, columns in structure.alias_columns.items()
        if ref.name in columns
    ]
    return matches[0] if len(matches) == 1 else None


def aliases_of(expr: ast.Expr, structure: PolicyStructure) -> set[str]:
    """All aliases an expression's column refs resolve to.

    Unresolvable refs map to the pseudo-alias ``"?"`` so callers can treat
    them conservatively.
    """
    aliases: set[str] = set()
    for ref in ast.column_refs(expr):
        alias = qualifier_for(ref, structure)
        aliases.add(alias if alias is not None else "?")
    return aliases


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


def _compute_ts_components(structure: PolicyStructure) -> None:
    """Union-find over ``X.ts = Y.ts`` conjuncts between log occurrences."""
    parents: dict[str, str] = {
        alias: alias for alias in structure.log_occurrences
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

    for conjunct in structure.conjuncts:
        pair = _ts_equijoin_pair(conjunct, structure)
        if pair is not None:
            union(*pair)

    components: dict[str, set[str]] = {}
    for alias in structure.log_occurrences:
        components.setdefault(find(alias), set()).add(alias)
    structure.ts_components = {
        alias: components[find(alias)] for alias in structure.log_occurrences
    }


def _ts_equijoin_pair(
    conjunct: ast.Expr, structure: PolicyStructure
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
    left_alias = qualifier_for(left, structure)
    right_alias = qualifier_for(right, structure)
    if (
        left_alias in structure.log_occurrences
        and right_alias in structure.log_occurrences
        and left_alias != right_alias
    ):
        return left_alias, right_alias
    return None


def ts_joined_with_clock(structure: PolicyStructure) -> set[str]:
    """Log aliases whose ts is equated with some clock alias's ts."""
    direct: set[str] = set()
    for conjunct in structure.conjuncts:
        if not (
            isinstance(conjunct, ast.BinaryOp)
            and conjunct.op == "="
            and isinstance(conjunct.left, ast.ColumnRef)
            and isinstance(conjunct.right, ast.ColumnRef)
        ):
            continue
        left_alias = qualifier_for(conjunct.left, structure)
        right_alias = qualifier_for(conjunct.right, structure)
        if (
            left_alias in structure.clock_aliases
            and conjunct.left.name == "ts"
            and right_alias in structure.log_occurrences
            and conjunct.right.name == "ts"
        ):
            direct.add(right_alias)
        if (
            right_alias in structure.clock_aliases
            and conjunct.right.name == "ts"
            and left_alias in structure.log_occurrences
            and conjunct.left.name == "ts"
        ):
            direct.add(left_alias)
    # Transitive through ts components.
    joined: set[str] = set()
    for alias in direct:
        joined |= structure.ts_components.get(alias, {alias})
    return joined


def _normalize_clock_predicates(
    structure: PolicyStructure,
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
    for index, conjunct in enumerate(structure.conjuncts):
        clock_refs = [
            ref
            for ref in ast.column_refs(conjunct)
            if qualifier_for(ref, structure) in structure.clock_aliases
        ]
        if not clock_refs:
            continue
        normalized = _normalize_one_clock_conjunct(conjunct, structure, index)
        if normalized is None:
            return None
        predicates.append(normalized)
    return predicates


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


def _normalize_one_clock_conjunct(
    conjunct: ast.Expr, structure: PolicyStructure, index: int
) -> Optional[ClockPredicate]:
    if not isinstance(conjunct, ast.BinaryOp):
        return None
    op = conjunct.op
    if op not in ("=", "<", "<=", ">", ">="):
        return None

    left_clock = _clock_side(conjunct.left, structure)
    right_clock = _clock_side(conjunct.right, structure)
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
        oriented_op = _FLIP[op]

    # Now: (c.ts + shift) oriented_op other, with `other` clock-free.
    if _references_clock(other, structure):
        return None
    bound: ast.Expr = other
    if shift != _ZERO:
        bound = ast.BinaryOp("-", other, shift)
    return ClockPredicate(op=oriented_op, bound=bound, conjunct_index=index)


_ZERO = ast.Literal(0)


def _references_clock(expr: ast.Expr, structure: PolicyStructure) -> bool:
    return any(
        qualifier_for(ref, structure) in structure.clock_aliases
        for ref in ast.column_refs(expr)
    )


def _clock_side(
    expr: ast.Expr, structure: PolicyStructure
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
            and qualifier_for(node, structure) in structure.clock_aliases
        )

    if is_clock_ts(expr):
        return _ZERO
    if isinstance(expr, ast.BinaryOp) and expr.op in ("+", "-"):
        if is_clock_ts(expr.left) and not _references_clock(
            expr.right, structure
        ):
            if expr.op == "+":
                return expr.right
            return ast.UnaryOp("-", expr.right)
        if (
            expr.op == "+"
            and is_clock_ts(expr.right)
            and not _references_clock(expr.left, structure)
        ):
            return expr.left
    return None
