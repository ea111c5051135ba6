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

The branches are the enforcer's *checkpoints* — every partial policy of
every staged policy plus every full policy — so sharing spans policies
and stages alike. :meth:`PolicyDag.evaluate` answers, for the branches
due at one step of the round, which are non-empty.
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
        if isinstance(node, (ScanOp, IndexScanOp)):
            tables.add(node.table_name)
        for attr in _CHILD_ATTRS:
            child = getattr(node, attr, None)
            if isinstance(child, Operator):
                stack.append(child)
    return frozenset(tables)


class SharedNode(Operator):
    """A memoized subtree consumed by several policy branches.

    The first execution under a given database state materializes the
    subtree's *entire* output before yielding anything: consumers such
    as ``Engine.plan_is_empty`` abandon their iterator after the first
    batch, and a partially-built memo would corrupt every later
    consumer. Memos are keyed by the mutation versions of the base
    tables underneath, so any table change (the enforcer touches the
    clock and staged logs every check) invalidates them automatically.
    Executions with and without lineage keep separate memos: a
    lineage-free consumer never pays for tid vectors.
    """

    def __init__(self, child: Operator, engine, tables: frozenset):
        self.child = child
        self.engine = engine
        self.tables = tuple(sorted(tables))
        #: Number of branch plans referencing this node (EXPLAIN shows it
        #: as ``[shared=N]``).
        self.consumers = 1
        #: Lineage flag → (table versions, materialized output).
        self._memo: dict[bool, tuple[tuple, list]] = {}

    def _materialize(self, lineage: bool, database, produce) -> list:
        versions = tuple(database.table(name).version for name in self.tables)
        memo = self._memo.get(lineage)
        if memo is not None and memo[0] == versions:
            self.engine.dag_saved_execs += 1
            return memo[1]
        output = list(produce())
        self._memo[lineage] = (versions, output)
        return output

    def execute(self, database, lineage):
        yield from self._materialize(
            lineage, database, lambda: self.child.execute(database, lineage)
        )


class PolicyDag:
    """A set of branch plans as one DAG of (partially shared) subtrees.

    ``branches`` is a list of ``(key, plan)`` pairs — the key is opaque
    to this module (the enforcer passes its checkpoint records). Plans
    are rewritten via shallow clones; the originals (typically the
    engine's cached plans) are never mutated. ``share=False`` builds the
    same structure with nothing merged: every branch runs its own
    subtrees, as independently planned statements would.
    """

    def __init__(self, engine, branches, share: bool = True):
        self.engine = engine
        #: The plan epoch the branch plans belong to; a holder compares
        #: it with the engine's to decide whether this DAG is stale.
        self.epoch = engine.plan_epoch
        self.nodes: dict = {}
        fp_memo: dict = {}
        counts: dict = {}
        needed: dict = {}
        if share:
            for _, plan in branches:
                self._collect(plan.op, fp_memo, counts, needed)
        #: Branch key → rewritten plan root.
        self.roots = {
            key: self._rewrite(plan.op, fp_memo, counts, needed)
            for key, plan in branches
        }
        engine.dag_shared_nodes = len(self.nodes)

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

    def evaluate(self, keys) -> dict:
        """Which of the due branches are non-empty.

        Returns ``{key: (non_empty, seconds)}`` for every key in
        ``keys``, evaluated in the order given; subtrees the branches
        share execute once and are replayed from their memo.
        """
        outcomes = {}
        for key in keys:
            started = time.perf_counter()
            empty = self.engine.plan_is_empty(self.roots[key])
            outcomes[key] = (not empty, time.perf_counter() - started)
        return outcomes
