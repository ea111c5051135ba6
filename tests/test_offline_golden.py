"""The offline phase's verdicts, pinned for every policy set the repo ships.

``tests/golden/offline_phase.json`` records what §4's offline analyses
decide for the paper's P1–P6, the e2e benchmark's ``hot_contract`` and
metered contract, the default ``standard_contract`` and
``sharded_contract`` and the template instantiations the service tests
use:

- per runtime policy (under three option profiles): time-independence,
  monotonicity, the printed checkpoints, the printed witness templates,
  the decision-cache profile and the incremental verdict and plan;
- per raw policy: the shard placement (scope, reason, pinned uid);
- the ``GET /v1/policies`` listing of a one-shard service, and of a
  four-shard service whose strict global tier hosts the global policies.

A refactor of the analyses must leave the file byte-identical. After an
intended verdict change, regenerate it with
``PYTHONPATH=src python tests/test_offline_golden.py --write`` and say
why in the change.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from repro.analysis import analyze_structure
from repro.core import Enforcer, EnforcerOptions, Policy
from repro.core.templates import BUILTIN_TEMPLATES
from repro.engine import Database
from repro.incremental import plan_summary
from repro.log import SimulatedClock
from repro.service import ServiceConfig, ShardedEnforcerService
from repro.service.placement import classify_policy
from repro.sql import print_query
from repro.workloads import (
    MarketplaceConfig,
    PolicyParams,
    build_marketplace_database,
    build_mimic_database,
    make_all_policies,
    sharded_contract,
    standard_contract,
)

GOLDEN = Path(__file__).parent / "golden" / "offline_phase.json"
E2E_WORKLOADS = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "workloads.py"
)

PROFILES = {
    "datalawyer": {},
    "improved_partial": {"improved_partial": True},
    "no_unification": {"unification": False},
}


def e2e_workloads():
    """``benchmarks/e2e/workloads.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("e2e_workloads", E2E_WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _service_test_db() -> Database:
    db = Database()
    db.load_table("items", ["id", "price"], [(1, 10), (2, 20), (3, 30)])
    db.load_table("extras", ["id"], [(1,), (2,)])
    return db


def _template_policies() -> "list[Policy]":
    instantiate = BUILTIN_TEMPLATES.instantiate
    return [
        instantiate("rate-limit", uid=7, max_requests=3, window=1000),
        instantiate("rate-limit", uid=1, max_requests=100, window=10_000),
        instantiate(
            "user-volume-quota",
            relation="items", uid=2, max_tuples=10, window=1000,
        ),
        instantiate("no-joins", policy_name="fence", relation="items"),
        instantiate("no-aggregation", relation="items"),
        instantiate("k-anonymity", relation="items", k=3),
        instantiate(
            "volume-quota", relation="items", max_tuples=100, window=1000
        ),
        instantiate(
            "group-access-window",
            relation="items", group="analysts", max_users=2, window=1000,
        ),
    ]


def policy_sets() -> "dict[str, tuple]":
    """name → (database factory, policies)."""
    e2e = e2e_workloads()
    return {
        "mimic": (
            lambda: build_mimic_database(e2e.MIMIC),
            make_all_policies(PolicyParams.for_config(e2e.MIMIC)),
        ),
        "hot_contract": (
            lambda: build_marketplace_database(e2e.MARKET),
            e2e.hot_contract(),
        ),
        "metered_contract": (
            lambda: build_marketplace_database(e2e.METERED),
            sharded_contract(e2e.METERED),
        ),
        "standard_contract": (
            lambda: build_marketplace_database(MarketplaceConfig()),
            standard_contract(MarketplaceConfig()),
        ),
        "sharded_contract": (
            lambda: build_marketplace_database(MarketplaceConfig()),
            sharded_contract(MarketplaceConfig()),
        ),
        "templates": (_service_test_db, _template_policies()),
    }


def _runtime_entry(runtime) -> dict:
    profile = runtime.cache_profile
    return {
        "time_independent": runtime.time_independent,
        "monotone": runtime.monotone,
        "checkpoints": [
            {
                "stage": (
                    None if checkpoint.stage is None
                    else sorted(checkpoint.stage)
                ),
                "query": print_query(checkpoint.query),
                "decisive": checkpoint.decisive,
                "lineage": checkpoint.lineage,
            }
            for checkpoint in runtime.checkpoints
        ],
        "witness_templates": [
            [relation, print_query(template), sorted(reads)]
            for relation, template, reads in runtime.witness_templates
        ],
        "witness_retain_all": (
            None if runtime.witness is None
            else sorted(runtime.witness.retain_all)
        ),
        "cache_profile": {
            "kind": profile.kind,
            "reason": profile.reason,
            "relations": sorted(profile.relations),
            "min_ts_bound": profile.min_ts_bound,
        },
        "incremental_reason": runtime.incremental_reason,
        "plan_summary": (
            None if runtime.incremental_plan is None
            else plan_summary(runtime.incremental_plan)
        ),
    }


def _enforcer(make_db, policies, **options) -> Enforcer:
    return Enforcer(
        make_db(),
        list(policies),
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(**options),
    )


def offline_snapshot() -> dict:
    snapshot: dict = {}
    for set_name, (make_db, policies) in policy_sets().items():
        entry: dict = {}
        for profile, options in PROFILES.items():
            enforcer = _enforcer(make_db, policies, **options)
            entry[profile] = {
                runtime.name: _runtime_entry(runtime)
                for runtime in enforcer.runtime_policies()
            }
        reference = _enforcer(make_db, policies)
        entry["placement"] = {}
        for policy in policies:
            placement = classify_policy(
                policy.name,
                analyze_structure(
                    policy.select, reference.registry, reference.database
                ),
            )
            entry["placement"][policy.name] = {
                "scope": placement.scope,
                "reason": placement.reason,
                "pinned_uid": placement.pinned_uid,
            }
        for key, config in (
            ("v1_policies", ServiceConfig(shards=1)),
            (
                "v1_policies_sharded",
                ServiceConfig(shards=4, global_tier="strict"),
            ),
        ):
            service = ShardedEnforcerService(
                _enforcer(make_db, policies), config
            )
            try:
                entry[key] = service.policies()
            finally:
                service.drain()
        snapshot[set_name] = entry
    return snapshot


def render(snapshot: dict) -> str:
    return json.dumps(snapshot, indent=1, sort_keys=True) + "\n"


def test_offline_phase_matches_the_golden_snapshot():
    assert render(offline_snapshot()) == GOLDEN.read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_offline_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(offline_snapshot()))
