"""The offline phase analyses each policy once.

Every §4 consumer (time-independence, partials, witnesses, the
decision-cache profile, the incremental classifier, shard placement)
reads one :class:`~repro.analysis.PolicyFacts` per select block instead
of re-deriving it. These tests count the derivations: ``analyze_structure``
calls per ``Enforcer._prepare`` on the four e2e workloads, and placement
classifications on a sharded service.
"""

from __future__ import annotations

import sys

import pytest
from test_offline_golden import e2e_workloads

import repro.incremental.classify as incremental_classify
import repro.service.placement as placement
from repro.analysis import features
from repro.core import Enforcer, EnforcerOptions
from repro.core.templates import BUILTIN_TEMPLATES
from repro.log import SimulatedClock
from repro.service import ServiceConfig, ShardedEnforcerService
from repro.workloads import (
    MarketplaceConfig,
    build_marketplace_database,
    sharded_contract,
    standard_contract,
)


class Counter:
    """Wraps a function wherever a loaded ``repro`` module binds it."""

    def __init__(self, monkeypatch, function):
        self.calls = 0
        original = function

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attribute, counted)

    def take(self) -> int:
        calls, self.calls = self.calls, 0
        return calls


#: One analysis per runtime policy, one per time-independent rewrite,
#: one per FROM-subquery block.
PREPARE_BUDGET = {
    "mimic_audit": 9,
    "market_hot": 8,
    "market_adhoc": 8,
    "market_metered": 4,
}


@pytest.mark.parametrize("workload", sorted(PREPARE_BUDGET))
def test_prepare_analyses_each_block_once(monkeypatch, workload):
    enforcer = e2e_workloads().build_enforcer(workload)
    analyses = Counter(monkeypatch, features.analyze_structure)
    enforcer._prepare()
    assert analyses.take() <= PREPARE_BUDGET[workload]


def test_sharded_service_classifies_each_policy_once(monkeypatch):
    placements = Counter(monkeypatch, placement.classify_policy)
    folds = Counter(monkeypatch, incremental_classify.classify_policy)
    policies = sharded_contract(MarketplaceConfig())
    enforcer = Enforcer(
        build_marketplace_database(MarketplaceConfig()),
        policies,
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(),
    )
    folds.take()
    service = ShardedEnforcerService(
        enforcer, ServiceConfig(shards=4, global_tier="async")
    )
    try:
        assert placements.take() == len(policies) == 17
        service.add_policy(
            BUILTIN_TEMPLATES.instantiate(
                "rate-limit", uid=99, max_requests=5, window=1000
            )
        )
        assert placements.take() == 1
        folds.take()
        assert len(service.placements()) == 18
        assert placements.take() == 0
        assert folds.take() == 0
    finally:
        service.drain()


def test_global_tier_prepares_only_the_global_policies(monkeypatch):
    """The tier's enforcer holds exactly the global set: of the standard
    contract it analyses ``free-tier`` and none of the local policies."""
    analysed = []
    analyze = Enforcer._analyze

    def recording(self, runtime):
        analysed.append((self, runtime.name))
        return analyze(self, runtime)

    monkeypatch.setattr(Enforcer, "_analyze", recording)
    config = MarketplaceConfig()
    enforcer = Enforcer(
        build_marketplace_database(config),
        standard_contract(config),
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(),
    )
    service = ShardedEnforcerService(
        enforcer, ServiceConfig(shards=4, global_tier="async")
    )
    try:
        tier = service.global_tier.enforcer
        assert [r.name for r in tier.runtime_policies()] == ["free-tier"]
        assert [name for owner, name in analysed if owner is tier] == [
            "free-tier"
        ]
    finally:
        service.drain()
