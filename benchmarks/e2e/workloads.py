"""Pure builders for the four benchmark workloads.

Nothing here starts a process, opens a socket or reads the clock: the
server child calls :func:`build_enforcer`, the harness calls
:func:`make_stream` and :func:`build_oracle`, and the only thing that
crosses from one to the other is the generated request list.

Streams are built by *exact composition per block*: every block of
:data:`BLOCK` consecutive requests holds the same multiset of
``(class, uid)`` pairs, shuffled by the seed. A percentile of the
latency vector therefore never straddles a class boundary differently
between two seeds, and a 25-request block of one replica is the same
work as that block of another replica. ``random.Random`` is seeded with
strings, which hash through SHA-512, so ``PYTHONHASHSEED`` is
irrelevant to the stream.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core import Enforcer, EnforcerOptions, Policy
from repro.core.templates import BUILTIN_TEMPLATES
from repro.log import SimulatedClock
from repro.workloads import (
    MarketplaceConfig,
    MimicConfig,
    PolicyParams,
    build_marketplace_database,
    build_mimic_database,
    make_all_policies,
    make_marketplace_workload,
    make_workload,
    sharded_contract,
)

#: Requests per block: the unit of stream composition and of the
#: fastest-replica composite.
BLOCK = 25

MIMIC = MimicConfig(n_patients=500)
MARKET = MarketplaceConfig()
METERED = MarketplaceConfig(
    rate_limit=12, rate_window=1000, free_tier_tuples=100, free_tier_window=3000
)


@dataclass(frozen=True)
class Request:
    sql: str
    uid: int
    cls: str


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload: sizes, server cadence, and its per-block mix.

    ``mix`` maps ``(class, uid)`` to its count per block (summing to
    :data:`BLOCK`). Why each workload exists is written down once, in
    ``BENCHMARK.json`` and the README.
    ``warmup`` is never scaled: it must outlast the longest policy
    window (or fill the decision cache), after which per-request cost
    and log size are level. ``window`` requests outlast the longest
    policy window: the seed-independent ledger stream is two of them.
    """

    name: str
    warmup: int
    measured: int
    window: int
    checkpoint_every: int
    clock_step_ms: int
    mix: "dict[tuple[str, int], int]"


def _check_mix(mix: dict) -> dict:
    if sum(mix.values()) != BLOCK:
        raise ValueError(f"block mix sums to {sum(mix.values())}, not {BLOCK}")
    return mix


# W1:W2:W3:W4 = 10:8:5:2 per block (4:3:2:1 rounded), uid 0 : uid 1 = 8:17
# (1:2 rounded).
_MIMIC_MIX = _check_mix({
    ("W1", 0): 3, ("W1", 1): 7,
    ("W2", 0): 3, ("W2", 1): 5,
    ("W3", 0): 1, ("W3", 1): 4,
    ("W4", 0): 1, ("W4", 1): 1,
})

# 24 repeated (sql, uid) keys: six shapes for each of four subscribers,
# plus one more of the cheapest so the block is full.
_HOT_SHAPES = ("M1a", "M1b", "M1c", "M2a", "M2b", "M3")
_HOT_MIX = {(shape, uid): 1 for shape in _HOT_SHAPES for uid in (1, 2, 3, 4)}
_HOT_MIX[("M1a", 1)] = 2
_check_mix(_HOT_MIX)

# The same shapes with free parameters; M1:M2:M3 = 13:8:4 over four uids.
_ADHOC_MIX = _check_mix({
    ("M1", 1): 4, ("M1", 2): 3, ("M1", 3): 3, ("M1", 4): 3,
    ("M2", 1): 2, ("M2", 2): 2, ("M2", 3): 2, ("M2", 4): 2,
    ("M3", 1): 1, ("M3", 2): 1, ("M3", 3): 1, ("M3", 4): 1,
})

# Zipf(1) over uids 1..8 → 9,5,3,2,2,2,1,1 per block; M1:M2 = 6:4 within
# each uid as nearly as whole requests allow (15:10 per block).
_METERED_MIX = _check_mix({
    ("M1", 1): 5, ("M2", 1): 4,
    ("M1", 2): 3, ("M2", 2): 2,
    ("M1", 3): 2, ("M2", 3): 1,
    ("M1", 4): 1, ("M2", 4): 1,
    ("M1", 5): 1, ("M2", 5): 1,
    ("M1", 6): 1, ("M2", 6): 1,
    ("M1", 7): 1,
    ("M1", 8): 1,
})

SPECS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="mimic_audit",
            warmup=75, measured=225, window=75,
            checkpoint_every=250, clock_step_ms=50, mix=_MIMIC_MIX,
        ),
        WorkloadSpec(
            name="market_hot",
            warmup=50, measured=1500, window=25,
            checkpoint_every=1000, clock_step_ms=25, mix=_HOT_MIX,
        ),
        WorkloadSpec(
            name="market_adhoc",
            warmup=1050, measured=500, window=25,
            checkpoint_every=1250, clock_step_ms=25, mix=_ADHOC_MIX,
        ),
        WorkloadSpec(
            name="market_metered",
            warmup=125, measured=500, window=125,
            checkpoint_every=500, clock_step_ms=25, mix=_METERED_MIX,
        ),
    )
}


# ---------------------------------------------------------------------------
# Policies and enforcers
# ---------------------------------------------------------------------------


def hot_contract() -> "list[Policy]":
    """Four time-independent terms; the third joins ``subscribers``."""
    return [
        BUILTIN_TEMPLATES.instantiate(
            "no-aggregation", policy_name="no-blending", relation="ratings"
        ),
        BUILTIN_TEMPLATES.instantiate(
            "no-joins", policy_name="vendors-standalone", relation="vendors"
        ),
        Policy.from_sql(
            "free-plan-bulk",
            """SELECT DISTINCT 'Free-plan subscribers may not read more
               than 150 listings in one query'
               FROM users u, provenance p, subscribers s
               WHERE u.ts = p.ts AND u.uid = s.uid AND s.plan = 'free'
                 AND p.irid = 'listings'
               GROUP BY p.ts
               HAVING COUNT(DISTINCT p.otid) > 150""",
            description="Per-query output cap for the free plan.",
        ),
        Policy.from_sql(
            "no-geo-ratings",
            """SELECT DISTINCT 'Zip codes may not be combined with ratings'
               FROM schema s1, schema s2
               WHERE s1.ts = s2.ts AND s1.irid = 'listings'
                 AND s1.icid = 'zip' AND s2.irid = 'ratings'""",
            description="Re-identification guard on the premium table.",
        ),
    ]


def _parts(name: str):
    """(database, policies) for one workload, freshly built."""
    if name == "mimic_audit":
        params = PolicyParams.for_config(MIMIC)
        return build_mimic_database(MIMIC), make_all_policies(params)
    if name in ("market_hot", "market_adhoc"):
        return build_marketplace_database(MARKET), hot_contract()
    if name == "market_metered":
        return build_marketplace_database(METERED), sharded_contract(METERED)
    raise KeyError(f"unknown workload {name!r}")


def make_clock(name: str) -> SimulatedClock:
    return SimulatedClock(default_step_ms=SPECS[name].clock_step_ms)


def build_enforcer(name: str) -> Enforcer:
    """The enforcer the gateway serves (the paper's DataLawyer profile;
    the service config layers its cache / incremental defaults on top)."""
    database, policies = _parts(name)
    return Enforcer(
        database,
        policies,
        clock=make_clock(name),
        options=EnforcerOptions.datalawyer(),
    )


def build_oracle(name: str) -> Enforcer:
    """A NoOpt enforcer: Eq. (1) evaluated literally.

    Every policy is run as its own statement over the full, uncompacted
    log plus the tentative increment; nothing is cached, folded, shared
    or rewritten. ``serial`` evaluation names each violated policy.
    """
    database, policies = _parts(name)
    return Enforcer(
        database,
        policies,
        clock=make_clock(name),
        options=EnforcerOptions.noopt(
            eval_strategy="serial", tracing=False, execute_queries=False
        ),
    )


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------


def _mimic_sql() -> Callable[[str, random.Random], str]:
    workload = make_workload(MIMIC)
    return lambda cls, rng: workload[cls]


def _hot_sql() -> Callable[[str, random.Random], str]:
    n = MARKET.n_listings
    texts = {
        "M1a": f"SELECT name, category FROM listings WHERE biz_id = {n // 3}",
        "M1b": f"SELECT name, category FROM listings WHERE biz_id = {n // 2}",
        "M1c": f"SELECT name, vendor_id FROM listings WHERE biz_id = {n // 5}",
        "M2a": _display_join(n // 3),
        "M2b": _display_join(n // 7),
        "M3": "SELECT category, COUNT(*) FROM listings "
        "WHERE vendor_id = 3 GROUP BY category",
    }
    return lambda cls, rng: texts[cls]


def _display_join(biz_id: int, extra: str = "") -> str:
    return (
        "SELECT l.name, r.stars, r.review_count FROM listings l, ratings r "
        f"WHERE l.biz_id = r.biz_id AND l.biz_id = {biz_id}{extra}"
    )


def _adhoc_sql() -> Callable[[str, random.Random], str]:
    n = MARKET.n_listings

    def render(cls: str, rng: random.Random) -> str:
        biz = rng.randrange(1, n + 1)
        floor = rng.randrange(1, 100_000)
        if cls == "M1":
            return (
                "SELECT name, category FROM listings "
                f"WHERE biz_id = {biz} AND vendor_id + {floor} > 0"
            )
        if cls == "M2":
            return _display_join(biz, f" AND r.review_count + {floor} > 0")
        return (
            "SELECT category, COUNT(*) FROM listings "
            f"WHERE vendor_id = {1 + biz % MARKET.n_vendors} "
            f"AND biz_id + {floor} > 0 GROUP BY category"
        )

    return render


def _metered_sql() -> Callable[[str, random.Random], str]:
    workload = make_marketplace_workload(METERED)
    return lambda cls, rng: workload[cls]


_SQL = {
    "mimic_audit": _mimic_sql,
    "market_hot": _hot_sql,
    "market_adhoc": _adhoc_sql,
    "market_metered": _metered_sql,
}


def make_stream(name: str, seed, total: Optional[int] = None) -> "list[Request]":
    """``total`` requests of one workload, drawn from ``seed`` (an int,
    or a label for a fixed stream such as the ledger's).

    ``total`` defaults to the spec's warm-up + measured count and is
    rounded up to whole blocks. On ``market_adhoc`` every text is
    distinct.
    """
    spec = SPECS[name]
    if total is None:
        total = spec.warmup + spec.measured
    blocks = -(-total // BLOCK)
    rng = random.Random(f"{name}/{seed}")
    render = _SQL[name]()
    slots = [key for key, count in sorted(spec.mix.items()) for _ in range(count)]
    distinct = name == "market_adhoc"
    seen: set = set()
    stream: "list[Request]" = []
    for _ in range(blocks):
        order = slots[:]
        rng.shuffle(order)
        for cls, uid in order:
            sql = render(cls, rng)
            while distinct and sql in seen:
                sql = render(cls, rng)
            seen.add(sql)
            stream.append(Request(sql, uid, cls))
    return stream


def stream_digest(items: Sequence) -> str:
    """A stable digest of any JSON-able sequence: request streams (as
    ``[sql, uid]`` pairs) and response sequences (as ``[status, allowed,
    violated policy names]`` triples) both go through here."""
    blob = json.dumps(list(items), separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
