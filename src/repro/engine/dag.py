"""Cross-policy shared-subplan DAG execution.

The enforcer checks every policy on every submitted query, and the
policies of one deployment overwhelmingly read the same usage-log
relations: the paper's P1-P6 all join ``Users`` with ``Provenance`` /
``Schema`` / ``Clock`` under near-identical pushed filters. Planned
independently, each policy re-scans, re-filters, and re-builds the same
hash joins — up to six times per check.

This module turns a set of independently planned policy branches into a
single DAG:

1. :func:`fingerprint` canonicalizes each plan subtree into a hashable
   key. Scans hash by table, index scans by (table, column, probe
   value), filters and group-bys by the planner-recorded ``origin``
   (normalized predicate / key expressions plus resolved column
   positions), joins by child fingerprints plus key positions. A node
   whose behavior cannot be proven from structure (arbitrary closures,
   projections) fingerprints to ``None`` and is never shared.
2. :class:`PolicyDag` counts fingerprints across all branches and
   rewrites each branch plan, replacing every subtree whose fingerprint
   appears more than once with a single :class:`SharedNode`. Rewrites
   clone operators shallowly (the ``instrument_plan`` idiom) so the
   engine's cached plans stay untouched; shared filters and joins carry
   the *union* of their consumers' ``out_needed`` columns so plan
   narrowing never starves a sibling branch.
3. :class:`SharedNode` executes its subtree at most once per check: the
   first consumer materializes the full output (keyed by the mutation
   versions of every base table underneath), later consumers replay the
   memoized batches. Memos self-invalidate when any underlying table
   mutates — the enforcer bumps the clock and log tables every check,
   while genuinely static subtrees stay warm across checks.

:meth:`PolicyDag.evaluate` additionally orders branches cheapest-first
(estimated by base-table rows plus operator count, deterministic across
engines) and short-circuits the check on the first firing policy.
"""

from __future__ import annotations

import copy
import time
from typing import Optional

from .operators import (
    DistinctOp,
    FilterOp,
    GroupOp,
    HashJoinOp,
    IndexScanOp,
    NestedLoopOp,
    Operator,
    ScanOp,
)

#: Sentinel distinguishing "no consumer recorded yet" from "a consumer
#: needs every column" (``out_needed is None``) during accumulation.
_UNSET = object()

_CHILD_ATTRS = ("child", "left", "right")


def fingerprint(op: Operator, memo: Optional[dict] = None) -> Optional[tuple]:
    """A hashable canonical key for ``op``'s subtree, or ``None``.

    Two operators with equal fingerprints are behaviorally
    interchangeable: same output rows, same column layout, for every
    database state. ``None`` means "cannot prove it" — such nodes are
    simply never shared. ``memo`` (keyed by operator identity) makes
    repeated calls over one tree linear.
    """
    if memo is None:
        memo = {}
    key = id(op)
    if key not in memo:
        memo[key] = _fingerprint(op, memo)
    return memo[key]


def _fingerprint(op: Operator, memo: dict) -> Optional[tuple]:
    if isinstance(op, ScanOp):
        return ("scan", op.table_name)
    if isinstance(op, IndexScanOp):
        try:
            value = op.value_fn(())
            hash(value)
        except Exception:
            return None
        return ("iscan", op.table_name, op.column, value)
    if isinstance(op, FilterOp):
        origin = getattr(op, "origin", None)
        child = fingerprint(op.child, memo)
        if origin is None or child is None:
            return None
        return ("filter", child, origin)
    if isinstance(op, HashJoinOp):
        if op.left_positions is None or op.right_positions is None:
            return None
        left = fingerprint(op.left, memo)
        right = fingerprint(op.right, memo)
        if left is None or right is None:
            return None
        return (
            "join",
            left,
            right,
            tuple(op.left_positions),
            tuple(op.right_positions),
        )
    if isinstance(op, NestedLoopOp):
        if op.predicate is not None:
            return None
        left = fingerprint(op.left, memo)
        right = fingerprint(op.right, memo)
        if left is None or right is None:
            return None
        return ("nloop", left, right)
    if isinstance(op, GroupOp):
        origin = getattr(op, "origin", None)
        child = fingerprint(op.child, memo)
        if origin is None or child is None:
            return None
        return ("group", child, origin)
    if isinstance(op, DistinctOp):
        child = fingerprint(op.child, memo)
        if child is None:
            return None
        return ("distinct", child)
    return None


def base_tables(op: Operator) -> frozenset:
    """Names of every base table scanned anywhere under ``op``."""
    tables: set = set()
    stack = [op]
    while stack:
        node = stack.pop()
        inner = getattr(node, "inner", None)  # TracedOp wrapper
        if isinstance(inner, Operator):
            stack.append(inner)
            continue
        if isinstance(node, (ScanOp, IndexScanOp)):
            tables.add(node.table_name)
        for attr in _CHILD_ATTRS:
            child = getattr(node, attr, None)
            if isinstance(child, Operator):
                stack.append(child)
    return frozenset(tables)


def operator_count(op: Operator) -> int:
    """Number of operators under (and including) ``op``."""
    count = 0
    stack = [op]
    while stack:
        node = stack.pop()
        count += 1
        for attr in _CHILD_ATTRS:
            child = getattr(node, attr, None)
            if isinstance(child, Operator):
                stack.append(child)
    return count


class SharedNode(Operator):
    """A memoized subtree consumed by several policy branches.

    The first execution under a given database state materializes the
    subtree's *entire* output before yielding anything: consumers such
    as ``Engine.plan_is_empty`` abandon their iterator after the first
    batch, and a partially-built memo would corrupt every later
    consumer. Memos are keyed by the mutation versions of the base
    tables underneath, so any table change (the enforcer touches the
    clock and staged logs every check) invalidates them automatically.
    """

    def __init__(self, child: Operator, engine, tables: frozenset):
        self.child = child
        self.engine = engine
        self.tables = tuple(sorted(tables))
        #: Number of branch plans referencing this node (EXPLAIN shows it
        #: as ``[shared=N]``).
        self.consumers = 1
        #: Discipline → (table versions, materialized output).
        self._memo: dict[str, tuple[tuple, list]] = {}

    def _materialize(self, discipline: str, database, produce) -> list:
        versions = tuple(database.table(name).version for name in self.tables)
        memo = self._memo.get(discipline)
        if memo is not None and memo[0] == versions:
            self.engine.dag_saved_execs += 1
            return memo[1]
        output = list(produce())
        self._memo[discipline] = (versions, output)
        return output

    def execute(self, database, lineage):
        discipline = "lineage" if lineage else "row"
        yield from self._materialize(
            discipline, database, lambda: self.child.execute(database, lineage)
        )

    def execute_columnar(self, database):
        yield from self._materialize(
            "columnar", database, lambda: self.child.execute_columnar(database)
        )


class _Branch:
    """One policy branch of a :class:`PolicyDag`."""

    __slots__ = ("key", "root", "tables", "op_count", "index")

    def __init__(self, key, root, tables, op_count, index):
        self.key = key
        self.root = root
        self.tables = tables
        self.op_count = op_count
        self.index = index


class PolicyDag:
    """The full policy set as one DAG of (partially shared) branch plans.

    ``branches`` is a list of ``(key, plan)`` pairs — the key is opaque
    to this module (the enforcer passes its runtime policy records).
    Plans are rewritten via shallow clones; the originals (typically the
    engine's cached plans) are never mutated.
    """

    def __init__(self, engine, branches):
        self.engine = engine
        self.nodes: dict = {}
        fp_memo: dict = {}
        counts: dict = {}
        needed: dict = {}
        for _, plan in branches:
            self._collect(plan.op, fp_memo, counts, needed)
        self.entries: list[_Branch] = []
        for index, (key, plan) in enumerate(branches):
            root = self._rewrite(plan.op, fp_memo, counts, needed)
            self.entries.append(
                _Branch(
                    key,
                    root,
                    base_tables(plan.op),
                    operator_count(plan.op),
                    index,
                )
            )
        self.shared_count = len(self.nodes)

    def _collect(self, op, fp_memo, counts, needed):
        fp = fingerprint(op, fp_memo)
        if fp is not None:
            counts[fp] = counts.get(fp, 0) + 1
            if isinstance(op, (FilterOp, HashJoinOp)):
                out = op.out_needed
                current = needed.get(fp, _UNSET)
                if current is _UNSET:
                    needed[fp] = out
                elif current is not None:
                    needed[fp] = None if out is None else current | out
        for attr in _CHILD_ATTRS:
            child = getattr(op, attr, None)
            if isinstance(child, Operator):
                self._collect(child, fp_memo, counts, needed)

    def _rewrite(self, op, fp_memo, counts, needed):
        fp = fingerprint(op, fp_memo)
        shared = fp is not None and counts.get(fp, 0) >= 2
        if shared:
            node = self.nodes.get(fp)
            if node is not None:
                node.consumers += 1
                return node
        clone = copy.copy(op)
        for attr in _CHILD_ATTRS:
            child = getattr(clone, attr, None)
            if isinstance(child, Operator):
                setattr(
                    clone, attr, self._rewrite(child, fp_memo, counts, needed)
                )
        if not shared:
            return clone
        if isinstance(clone, (FilterOp, HashJoinOp)):
            out = needed.get(fp, _UNSET)
            if out is not _UNSET:
                # The union of every consumer's narrowed column set: the
                # shared output must satisfy its hungriest consumer.
                clone.out_needed = out
        node = SharedNode(clone, self.engine, base_tables(op))
        self.nodes[fp] = node
        return node

    def evaluate(self):
        """Check all branches, cheapest first, short-circuiting.

        Returns ``(fired_key_or_None, timings)`` where ``timings`` is
        ``[(key, seconds), ...]`` for the branches actually evaluated,
        in evaluation order. The cost estimate (base-table rows plus
        operator count, original order as tie-break) depends only on
        table sizes, so the evaluation order — and therefore which
        firing policy is reported — is deterministic across engines.
        """
        database = self.engine.database

        def cost(entry):
            rows = sum(len(database.table(name)) for name in entry.tables)
            return (rows + entry.op_count, entry.index)

        timings: list[tuple] = []
        for entry in sorted(self.entries, key=cost):
            started = time.perf_counter()
            empty = self.engine.plan_is_empty(entry.root)
            timings.append((entry.key, time.perf_counter() - started))
            if not empty:
                return entry.key, timings
        return None, timings
