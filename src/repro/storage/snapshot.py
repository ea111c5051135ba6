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

Incremental-maintainer state is not part of a snapshot: it is a view of
the usage log, and the restored enforcer folds it from the restored log
tables on first use. A state file left by an older checkpoint is
ignored, and the next checkpoint's directory swap drops it.
"""

from __future__ import annotations

import dataclasses
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
#: Manifest keys :func:`restore_enforcer` cannot do without.
ENFORCER_KEYS = ("tables", "policies", "options", "clock_now")
#: Options older manifests carry that no longer exist, dropped (whatever
#: their value) before the rest are validated. ``engine`` selected the
#: removed row interpreter; decisions never depended on it.
RETIRED_OPTIONS = frozenset({"engine"})


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
        "options": dataclasses.asdict(enforcer.options),
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
    missing = [key for key in ENFORCER_KEYS if key not in manifest]
    if missing:
        raise StorageError(f"{directory}: manifest lacks keys {missing}")
    stored_options = {
        name: value
        for name, value in manifest["options"].items()
        if name not in RETIRED_OPTIONS
    }
    unknown = sorted(
        set(stored_options)
        - {field.name for field in dataclasses.fields(EnforcerOptions)}
    )
    if unknown:
        raise StorageError(
            f"{directory}: manifest options {unknown} are not "
            "EnforcerOptions fields"
        )
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
    try:
        options = EnforcerOptions(**stored_options)
    except (TypeError, ValueError) as error:
        raise StorageError(f"{directory}: manifest options: {error}") from None
    clock = clock or SimulatedClock(start_ms=int(manifest["clock_now"]))

    enforcer = Enforcer(
        database, policies, registry=registry, clock=clock, options=options
    )
    enforcer.store.set_time(int(manifest["clock_now"]))
    enforcer._queries_since_compaction = int(  # noqa: SLF001
        manifest.get("queries_since_compaction", 0)
    )
    return enforcer

