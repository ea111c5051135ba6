"""Log compaction: absolute-witness queries (§4.1.2, Lemmas 4.1–4.3).

For every policy π and every log relation occurrence ``Ri`` in it, we build
a *witness query* whose answer is a subset of ``Ri`` sufficient to evaluate
π now and at every future time. The log is compacted to the union of all
witnesses (Algorithm 2). Construction is purely syntactic:

- **Full queries** (policies with GROUP BY/HAVING, and FROM-subqueries):
  ``SELECT DISTINCT Ri.* FROM Ri, N(Ri), D1..Dq WHERE <kept preds>`` —
  a semi-join reduction against the timestamp-neighborhood N(Ri) and the
  database tables (Lemma 4.1).
- **Boolean policies** (no HAVING): ``SELECT DISTINCT ON (Ri.X) Ri.*``
  where X is every attribute of Ri used in a join predicate or a clock
  bound — one representative per X-group suffices (Lemma 4.2).
- **Clock predicates** are normalized to ``c.ts op bound``; ``>``/``>=``
  forms are dropped (they only relax in the future) and ``<``/``<=``/``=``
  forms become ``currenttime + 1 op bound`` (Lemma 4.3). Policies whose
  clock predicates don't fit the supported shapes opt out: their relations
  are marked *retain-all*, which is always sound.

``currenttime`` is read from the one-row Clock relation, which the log
store refreshes to the check's timestamp before anything runs: a witness
that keeps a window-limiting predicate gets a ``clock`` atom of its own,
first in FROM under an alias no policy name collides with, and the
predicate reads ``<alias>.ts + 1 op bound``. Witness queries are therefore
static ASTs, planned once per plan epoch and executed as they are at
every compaction. The *mark* phase runs them with lineage tracking: the
tids of the witness relation appearing in any output row's lineage are
exactly the tuples to retain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..engine import Engine
from ..log import LogRegistry
from ..log.store import CLOCK_TABLE
from ..sql import ast
from .features import PolicyFacts, aliases_of, fresh_alias, qualifier_for


@dataclass
class WitnessSet:
    """The compaction plan for one policy."""

    #: log relation name → witness query templates (one per occurrence).
    per_relation: dict[str, list[ast.Select]] = field(default_factory=dict)
    #: log relations whose tuples must all be retained (no compaction).
    retain_all: set[str] = field(default_factory=set)

    def relations(self) -> set[str]:
        return set(self.per_relation) | set(self.retain_all)

    def merge(self, other: "WitnessSet") -> None:
        for name, selects in other.per_relation.items():
            self.per_relation.setdefault(name, []).extend(selects)
        self.retain_all |= other.retain_all


def witness_queries(facts: PolicyFacts) -> WitnessSet:
    """Build the witness set for one policy (Algorithm 2 for a single π)."""
    result = WitnessSet()
    _compact_block(facts, result, force_full=False)
    # Relations that are retain-all don't need witness queries as well.
    for name in result.retain_all:
        result.per_relation.pop(name, None)
    return result


def _compact_block(
    facts: PolicyFacts, result: WitnessSet, force_full: bool
) -> None:
    # Subqueries in FROM are compacted separately, as full queries
    # (Algorithm 2 line 3).
    for blocks in facts.subqueries.values():
        for block in blocks:
            _compact_block(block, result, force_full=True)

    if not facts.log_occurrences:
        return

    if facts.clock_predicates is None:
        # Unsupported clock shape: retain everything this block touches.
        result.retain_all |= facts.log_relation_names()
        return

    select = facts.select
    boolean = (
        not force_full
        and select.having is None
        and select.distinct
        and not select.group_by
    )

    clock_indexes = {
        predicate.conjunct_index for predicate in facts.clock_predicates
    }
    now = fresh_alias(select, "now")

    for alias in facts.log_occurrences:
        witness = _witness_for_occurrence(
            alias, facts, clock_indexes, boolean, now
        )
        relation = facts.log_occurrences[alias]
        result.per_relation.setdefault(relation, []).append(witness)


def _witness_for_occurrence(
    alias: str,
    facts: PolicyFacts,
    clock_indexes: set[int],
    boolean: bool,
    now: str,
) -> ast.Select:
    kept_aliases = {alias} | facts.neighborhood(alias)
    kept_aliases |= set(facts.db_tables)

    from_items: list[ast.FromItem] = []
    for item in facts.select.from_items:
        name = item.binding_name().lower()
        if name in kept_aliases and isinstance(item, ast.TableRef):
            from_items.append(item)

    conjuncts: list[ast.Expr] = []
    for index, conjunct in enumerate(facts.conjuncts):
        if index in clock_indexes:
            continue
        referenced = aliases_of(conjunct, facts)
        if referenced and referenced <= kept_aliases:
            conjuncts.append(conjunct)

    # Clock predicates (Lemma 4.3): drop the future-relaxing ones, pin the
    # window-limiting ones to currenttime + 1, read from a clock atom of
    # the witness's own. The atom goes first: the planner joins FROM items
    # left-deep in order, so the one clock row meets each log row at the
    # first join and the window filter runs before any wider join.
    assert facts.clock_predicates is not None
    current_plus_one = ast.BinaryOp("+", ast.ColumnRef(now, "ts"), ast.Literal(1))
    window: list[ast.Expr] = []
    for predicate in facts.clock_predicates:
        ops = ["<=", ">="] if predicate.op == "=" else [predicate.op]
        for op in ops:
            if op in (">", ">="):
                continue
            bound_aliases = aliases_of(predicate.bound, facts)
            if not bound_aliases <= kept_aliases:
                continue  # bound mentions dropped relations: relax it away
            window.append(ast.BinaryOp(op, current_plus_one, predicate.bound))
    if window:
        from_items.insert(0, ast.TableRef(CLOCK_TABLE, now))
        conjuncts.extend(window)

    where = ast.conjoin(conjuncts)
    items = (ast.SelectItem(ast.Star(alias)),)

    if not boolean:
        return ast.Select(
            items=items,
            from_items=tuple(from_items),
            where=where,
            distinct=True,
        )

    join_attrs = _join_attributes(alias, facts)
    if not join_attrs:
        # Any single satisfying tuple is a witness.
        return ast.Select(
            items=items, from_items=tuple(from_items), where=where, limit=1
        )
    distinct_on = tuple(
        ast.ColumnRef(alias, attr) for attr in sorted(join_attrs)
    )
    return ast.Select(
        items=items,
        from_items=tuple(from_items),
        where=where,
        distinct=True,
        distinct_on=distinct_on,
    )


def _join_attributes(alias: str, facts: PolicyFacts) -> set[str]:
    """X of Lemma 4.2: attributes of ``alias`` in any predicate that also
    references another alias, the clock, or something unresolvable.

    Computed over *all* of the policy's conjuncts (including ones the
    witness drops): a representative must be swappable into every context
    the original tuple appeared in, now or in the future.
    """
    attrs: set[str] = set()
    for conjunct in facts.conjuncts:
        own_refs = [
            ref
            for ref in ast.column_refs(conjunct)
            if qualifier_for(ref, facts) == alias
        ]
        if not own_refs:
            continue
        others = aliases_of(conjunct, facts) - {alias}
        if others:
            attrs.update(ref.name for ref in own_refs)
    return attrs


# ---------------------------------------------------------------------------
# Evaluation: the mark phase
# ---------------------------------------------------------------------------


def evaluate_witness_marks(
    witness: WitnessSet,
    engine: Engine,
    marks: Optional[dict[str, set[int]]] = None,
) -> dict[str, set[int]]:
    """Run the witness queries and collect the tids to retain.

    ``currenttime`` is whatever the Clock relation holds (set it with
    :meth:`~repro.log.store.LogStore.set_time`). Lineage does the tid
    bookkeeping: each witness query selects ``Ri.*``, and the lineage
    entries of its output rows tagged with Ri's table name are precisely
    the witness tuples (for self-joins this may retain tuples from both
    occurrences, a sound over-approximation).
    """
    if marks is None:
        marks = {}
    for relation, selects in witness.per_relation.items():
        collected = marks.setdefault(relation, set())
        for template in selects:
            result = engine.execute(template, lineage=True)
            collected.update(result.lineage_tids(relation))
    for relation in witness.retain_all:
        marks.setdefault(relation, set()).update(
            engine.database.table(relation).tids()
        )
    return marks


def partial_witness_probe(
    template: ast.Select,
    available: set[str],
    structure_registry: LogRegistry,
) -> Optional[ast.Select]:
    """Preemptive log compaction (§4.3): an emptiness probe over the
    already-generated logs.

    Drops FROM atoms of log relations outside ``available`` (and conjuncts
    referencing them), yielding a relaxation LCQ' of the witness query: if
    LCQ' is empty then the witness is empty and the missing log increments
    need not be generated. Returns None when nothing would be dropped (the
    probe is pointless — just run the witness), and when only the
    witness's clock atom would be left."""
    dropped_aliases: set[str] = set()
    kept_items: list[ast.FromItem] = []
    for item in template.from_items:
        if (
            isinstance(item, ast.TableRef)
            and structure_registry.is_log_relation(item.name)
            and item.name.lower() not in available
        ):
            dropped_aliases.add(item.binding_name().lower())
        else:
            kept_items.append(item)
    if not dropped_aliases:
        return None
    if all(
        isinstance(item, ast.TableRef) and item.name.lower() == CLOCK_TABLE
        for item in kept_items
    ):
        return None  # every relation dropped: probe cannot say anything

    def references_dropped(expr: ast.Expr) -> bool:
        return any(
            ref.table is not None and ref.table.lower() in dropped_aliases
            for ref in ast.column_refs(expr)
        )

    conjuncts = [
        conjunct
        for conjunct in ast.conjuncts(template.where)
        if not references_dropped(conjunct)
    ]
    return ast.Select(
        items=(ast.SelectItem(ast.Literal(1)),),
        from_items=tuple(kept_items),
        where=ast.conjoin(conjuncts),
        limit=1,
    )
