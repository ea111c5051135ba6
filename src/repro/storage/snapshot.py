"""Snapshots: persist and restore databases and enforcer state.

Two levels:

- :func:`save_database` / :func:`load_database` — all tables of a catalog
  as one directory of ``.jsonl`` files plus a manifest;
- :func:`save_enforcer_state` / :func:`restore_enforcer` — everything an
  enforcement deployment needs to survive a restart: the data tables, the
  usage-log tables *with their tuple ids* (compaction marks reference
  tids) — which are the log store's persisted image — the clock, and the
  policy texts. Restoring rebuilds an :class:`~repro.core.Enforcer` whose
  subsequent decisions are exactly those the original would have made.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from ..core import Enforcer, EnforcerOptions, Policy
from ..engine import Database
from ..log import Clock, LogRegistry, SimulatedClock, standard_registry
from ..log.store import CLOCK_TABLE
from .format import StorageError, read_table, write_table

MANIFEST = "manifest.json"
FORMAT_VERSION = 1
#: Incremental-maintainer state rides alongside the snapshot. Optional on
#: restore: a missing/stale file just means the maintainer rebuilds from
#: the restored disk image (its own format/signature markers are checked
#: by :meth:`repro.incremental.IncrementalMaintainer.restore`).
INCREMENTAL_STATE = "incremental.json"


def save_database(database: Database, directory: Path) -> None:
    """Write every table of ``database`` under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = database.table_names()
    for name in names:
        write_table(database.table(name), directory / f"{name}.jsonl")
    manifest = {"version": FORMAT_VERSION, "tables": names}
    (directory / MANIFEST).write_text(json.dumps(manifest, indent=2))


def load_database(directory: Path) -> Database:
    """Rebuild a database saved with :func:`save_database`."""
    directory = Path(directory)
    manifest = _read_manifest(directory)
    database = Database()
    for name in manifest["tables"]:
        database.attach(read_table(directory / f"{name}.jsonl"))
    return database


def _read_manifest(directory: Path) -> dict:
    path = directory / MANIFEST
    if not path.exists():
        raise StorageError(f"{directory}: no {MANIFEST}")
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if manifest.get("version") != FORMAT_VERSION:
        raise StorageError(
            f"{directory}: unsupported snapshot version "
            f"{manifest.get('version')!r}"
        )
    return manifest


# ---------------------------------------------------------------------------
# Whole-enforcer state
# ---------------------------------------------------------------------------


def save_enforcer_state(
    enforcer: Enforcer, directory: Path, extra: Optional[dict] = None
) -> None:
    """Persist an enforcer's full state.

    Must be called between queries (nothing staged). Unified-constants
    tables are rebuilt by the offline phase on restore, so they are not
    stored. ``extra`` entries are merged into the manifest (the WAL
    checkpoint records its covered sequence number this way).
    """
    if enforcer.store.staged_relations():
        raise StorageError("cannot snapshot with staged log increments")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    log_names = set(enforcer.registry.names())
    skip = log_names | {CLOCK_TABLE} | {
        name for name in enforcer.database.table_names()
        if name.startswith("__consts_")
    }
    data_tables = [
        name for name in enforcer.database.table_names() if name not in skip
    ]
    for name in data_tables:
        write_table(enforcer.database.table(name), directory / f"{name}.jsonl")
    for name in sorted(log_names):
        write_table(
            enforcer.database.table(name),
            directory / f"__log_{name}.jsonl",
            keep_tids=True,
        )

    maintainer = enforcer.incremental
    if maintainer is not None and maintainer.warm:
        (directory / INCREMENTAL_STATE).write_text(
            json.dumps(maintainer.to_json(), indent=2)
        )

    manifest = {
        "version": FORMAT_VERSION,
        "tables": data_tables,
        "log_relations": sorted(log_names),
        "clock_now": enforcer.clock.now(),
        "policies": [
            {
                "name": policy.name,
                "sql": policy.sql,
                "description": policy.description,
            }
            for policy in enforcer.policies
        ],
        "options": _options_to_dict(enforcer.options),
        "queries_since_compaction": enforcer._queries_since_compaction,  # noqa: SLF001
    }
    if extra:
        manifest.update(extra)
    (directory / MANIFEST).write_text(json.dumps(manifest, indent=2))


def restore_enforcer(
    directory: Path,
    registry: Optional[LogRegistry] = None,
    clock: Optional[Clock] = None,
) -> Enforcer:
    """Rebuild an enforcer from :func:`save_enforcer_state` output.

    A custom ``registry`` must be passed when the snapshot used custom log
    functions (functions are code; only their data is stored). The clock
    defaults to a :class:`SimulatedClock` resuming at the stored time.
    """
    directory = Path(directory)
    manifest = _read_manifest(directory)
    registry = registry or standard_registry()
    stored_logs = set(manifest.get("log_relations", []))
    if stored_logs - set(registry.names()):
        missing = sorted(stored_logs - set(registry.names()))
        raise StorageError(
            f"snapshot uses log relations {missing} not in the registry; "
            "pass the matching LogRegistry"
        )

    database = Database()
    for name in manifest["tables"]:
        database.attach(read_table(directory / f"{name}.jsonl"))
    # The stored log tables join the catalog before the enforcer exists,
    # so its log store adopts them: the table is the persisted image.
    # (Older manifests also list each relation's persisted tids; nothing
    # is staged in a snapshot, so that only repeats the tables' tids.)
    for name in sorted(stored_logs):
        stored = read_table(directory / f"__log_{name}.jsonl")
        expected = registry.get(name).full_columns
        if stored.schema.column_names != expected:
            raise StorageError(
                f"snapshot log relation {name!r} has columns "
                f"{stored.schema.column_names}, the registry expects "
                f"{expected}; pass the matching LogRegistry"
            )
        database.attach(stored)

    policies = [
        Policy.from_sql(p["name"], p["sql"], p.get("description", ""))
        for p in manifest["policies"]
    ]
    options = EnforcerOptions(**manifest["options"])
    clock = clock or SimulatedClock(start_ms=int(manifest["clock_now"]))

    enforcer = Enforcer(
        database, policies, registry=registry, clock=clock, options=options
    )
    enforcer.store.set_time(int(manifest["clock_now"]))
    enforcer._queries_since_compaction = int(  # noqa: SLF001
        manifest.get("queries_since_compaction", 0)
    )

    state_path = directory / INCREMENTAL_STATE
    if enforcer.options.incremental and state_path.exists():
        try:
            payload = json.loads(state_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            payload = None
        if payload is not None:
            # False (stale format/signatures) leaves the lazy rebuild path
            # in charge — never trust unvalidated state.
            enforcer.load_incremental_state(payload)
    return enforcer


def _options_to_dict(options: EnforcerOptions) -> dict:
    import dataclasses

    return dataclasses.asdict(options)
