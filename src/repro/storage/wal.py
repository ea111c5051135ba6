"""Write-ahead logging, checkpointing, and crash recovery.

The usage log is the enforcement semantics' memory (§5.2): every
volume/recency policy is only as strong as the record of what was already
admitted. This module makes that record durable:

- :class:`WriteAheadLog` — an append-only JSONL file of crc32-framed
  records. :meth:`~repro.log.store.LogStore.commit` appends one ``commit``
  record per admitted query (the inserted increment, the tids the mark/
  delete compaction phases removed, the per-relation tid counters) and
  :meth:`~repro.log.store.LogStore.discard_staged` appends one ``reject``
  record per refused query (clock and tid-counter advance only). The
  fsync'ed append *is* the commit point: a record torn mid-write is
  detected by its checksum and the whole query simply never happened.
- :func:`checkpoint` — persists the full enforcer state (via
  :mod:`repro.storage.snapshot`) under a crash-safe rename protocol and
  truncates the WAL. Records carry monotone sequence numbers and the
  checkpoint stores the last one it covers, so replay is idempotent no
  matter where in the protocol a crash lands.
- :func:`recover_enforcer` — repairs a half-finished checkpoint swap,
  restores the latest checkpoint, replays the WAL suffix on top, and
  truncates any torn tail. The recovered enforcer's subsequent decisions
  are bit-identical to an enforcer that never crashed (the fault-injection
  suite proves this for mid-commit, mid-checkpoint, and torn-tail
  crashes).

Directory layout (one per enforcer / service shard)::

    <dir>/wal.jsonl        append-only record log
    <dir>/checkpoint/      latest complete snapshot (manifest.json last)
    <dir>/checkpoint.tmp/  snapshot being written (incomplete ↔ no manifest)
    <dir>/checkpoint.old/  previous snapshot, mid-swap only
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from ..core import Enforcer
from ..log import Clock, LogRegistry
from .faults import FaultPlan, FaultyFile, tear
from .format import StorageError
from .snapshot import MANIFEST, restore_enforcer, save_enforcer_state

WAL_NAME = "wal.jsonl"
CHECKPOINT_DIR = "checkpoint"
CHECKPOINT_TMP = "checkpoint.tmp"
CHECKPOINT_OLD = "checkpoint.old"
WAL_FORMAT_VERSION = 1


class WalError(StorageError):
    """Raised for structurally invalid write-ahead logs."""


# ---------------------------------------------------------------------------
# Record framing
# ---------------------------------------------------------------------------


def _encode(record: dict) -> bytes:
    """One record line: ``<crc32 hex> <compact json>\\n``."""
    payload = json.dumps(record, separators=(",", ":"), sort_keys=True)
    data = payload.encode("utf-8")
    return b"%08x " % zlib.crc32(data) + data + b"\n"


def _decode(chunk: bytes) -> Optional[dict]:
    """Parse one framed line; ``None`` for anything torn or corrupt."""
    if len(chunk) < 10 or chunk[8:9] != b" ":
        return None
    try:
        expected = int(chunk[:8], 16)
    except ValueError:
        return None
    payload = chunk[9:]
    if zlib.crc32(payload) != expected:
        return None
    try:
        record = json.loads(payload.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    return record if isinstance(record, dict) else None


#: Public framing aliases: the process-shard IPC layer
#: (:mod:`repro.service.ipc`) frames its request/response messages with
#: the same ``<crc32 hex> <compact json>`` discipline the WAL uses, so a
#: corrupted pipe read is detected exactly like a torn WAL record.
encode_record = _encode
decode_record = _decode


@dataclass
class WalScan:
    """The readable prefix of one WAL file."""

    records: list
    valid_bytes: int
    total_bytes: int
    torn: bool


def read_wal(path) -> WalScan:
    """Read every intact record; stop (without raising) at a torn tail.

    A record is accepted even without its trailing newline as long as the
    checksum holds — a crash exactly between the payload and the ``\\n``
    must not discard an acknowledged commit.
    """
    data = Path(path).read_bytes()
    records: list = []
    pos = 0
    torn = False
    while pos < len(data):
        newline = data.find(b"\n", pos)
        end = len(data) if newline == -1 else newline
        record = _decode(data[pos:end])
        if record is None:
            torn = True
            break
        records.append(record)
        pos = len(data) if newline == -1 else newline + 1
    if records and records[0].get("type") != "header":
        raise WalError(f"{path}: missing WAL header record")
    if records and records[0].get("version") != WAL_FORMAT_VERSION:
        raise WalError(
            f"{path}: unsupported WAL version {records[0].get('version')!r}"
        )
    return WalScan(
        records=records, valid_bytes=pos, total_bytes=len(data), torn=torn
    )


# ---------------------------------------------------------------------------
# The append side
# ---------------------------------------------------------------------------


class WriteAheadLog:
    """Append-only, fsync-able record log with monotone sequence numbers.

    ``sync=False`` trades durability of the newest records for speed (an
    OS crash may lose the un-fsynced tail; recovery still gets a
    consistent prefix). ``fault_plan`` threads a
    :class:`~repro.storage.faults.FaultPlan` under every write so tests
    can kill the "process" mid-record.
    """

    def __init__(
        self,
        path,
        sync: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        start_seq: int = 0,
    ):
        self.path = Path(path)
        self.sync = sync
        self.fault_plan = fault_plan
        self._seq = start_seq
        self._file = None
        #: Open group-commit window (see :meth:`batch`); frames appended
        #: while it is a list are buffered instead of written.
        self._batch: Optional[list] = None
        #: Lifetime I/O tallies (exported at ``GET /v1/metrics``); they
        #: survive :meth:`reset` — counters, not segment state.
        self.appends = 0
        self.fsyncs = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._open()

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently appended record."""
        return self._seq

    def _open(self) -> None:
        raw = self.path.open("ab")
        self._file = (
            FaultyFile(raw, self.fault_plan) if self.fault_plan else raw
        )
        if self.path.stat().st_size == 0:
            self._write_line(
                _encode({"type": "header", "version": WAL_FORMAT_VERSION})
            )

    def append(self, record: dict) -> int:
        """Durably append one record; returns its sequence number.

        The sequence number counts queries (one record per checked query),
        so a checkpoint's ``wal_last_seq`` and a recovery report's
        ``last_seq`` both read as "queries processed so far".
        """
        self._seq += 1
        stamped = dict(record)
        stamped["seq"] = self._seq
        self._write_line(_encode(stamped))
        self.appends += 1
        return self._seq

    @contextmanager
    def batch(self):
        """Group commit: buffer every append inside the block and write
        them all with one flush — and at most one fsync — on exit.

        Record framing and sequence numbering are unchanged (``appends``
        still counts records; ``fsyncs`` counts real fsyncs), so a WAL
        written under batching is byte-identical to one written without.
        The buffered frames are flushed even when the block raises:
        their sequence numbers are already handed out, and dropping them
        would leave a gap recovery must refuse. Nested windows are
        no-ops — the outermost one owns the flush. :meth:`reset` and
        :func:`checkpoint` must not run inside an open window.
        """
        if self._batch is not None:
            yield self
            return
        self._batch = []
        try:
            yield self
        finally:
            buffered, self._batch = self._batch, None
            if buffered:
                self._file.write(b"".join(buffered))
                self._file.flush()
                if self.sync:
                    self._fsync()

    def _write_line(self, data: bytes) -> None:
        if self._batch is not None:
            self._batch.append(data)
            return
        self._file.write(data)
        self._file.flush()
        if self.sync:
            self._fsync()

    def _fsync(self) -> None:
        if self.fault_plan is not None and self.fault_plan.drop_fsync:
            return
        os.fsync(self._file.fileno())
        self.fsyncs += 1

    def reset(self) -> None:
        """Start a fresh (empty) segment after a checkpoint.

        Sequence numbers continue — they are never reused — so records
        from a segment that survived a crash-before-reset are recognized
        as already covered by the checkpoint and skipped on replay. The
        swap is a write-to-temp + atomic rename, crash-safe at any point.
        """
        if self._batch is not None:
            raise WalError("cannot reset the WAL inside a batch window")
        self.close()
        tmp = self.path.with_name(self.path.name + ".reset")
        raw = tmp.open("wb")
        handle = (
            FaultyFile(raw, self.fault_plan) if self.fault_plan else raw
        )
        try:
            handle.write(
                _encode({"type": "header", "version": WAL_FORMAT_VERSION})
            )
            handle.flush()
            if self.sync and not (
                self.fault_plan is not None and self.fault_plan.drop_fsync
            ):
                os.fsync(handle.fileno())
        finally:
            handle.close()
        os.replace(tmp, self.path)
        _fsync_dir(self.path.parent)
        self._open()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def checkpoint(
    enforcer: Enforcer,
    directory,
    wal: WriteAheadLog,
    fault_plan: Optional[FaultPlan] = None,
    sync: bool = True,
) -> None:
    """Persist the enforcer's full state and truncate the WAL.

    Protocol (each step leaves a recoverable layout; ``fault_plan`` may
    crash at the named points and the fault-injection suite covers all of
    them):

    1. write the snapshot to ``checkpoint.tmp/`` — the manifest is
       written last, so a manifest-less directory is recognizably
       incomplete                       [crash point ``checkpoint:after-save``]
    2. rename ``checkpoint/`` → ``checkpoint.old/``     [``checkpoint:mid-swap``]
    3. rename ``checkpoint.tmp/`` → ``checkpoint/``  [``checkpoint:before-clean``]
    4. remove ``checkpoint.old/``                   [``checkpoint:before-reset``]
    5. reset the WAL (safe even if skipped by a crash: the checkpoint
       records the last sequence number it covers, and replay skips
       records at or below it)

    Must be called between queries (nothing staged).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tmp = directory / CHECKPOINT_TMP
    current = directory / CHECKPOINT_DIR
    old = directory / CHECKPOINT_OLD

    if tmp.exists():
        shutil.rmtree(tmp)
    save_enforcer_state(
        enforcer, tmp, extra={"wal_last_seq": wal.last_seq}
    )
    if sync:
        _fsync_tree(tmp)
    if fault_plan is not None:
        fault_plan.check("checkpoint:after-save")

    if old.exists():
        shutil.rmtree(old)
    if current.exists():
        current.rename(old)
        if fault_plan is not None:
            fault_plan.check("checkpoint:mid-swap")
    tmp.rename(current)
    _fsync_dir(directory)
    if fault_plan is not None:
        fault_plan.check("checkpoint:before-clean")
    if old.exists():
        shutil.rmtree(old)
    if fault_plan is not None:
        fault_plan.check("checkpoint:before-reset")
    wal.reset()


def _repair_checkpoints(directory: Path) -> None:
    """Finish or roll back a checkpoint swap a crash interrupted."""
    tmp = directory / CHECKPOINT_TMP
    current = directory / CHECKPOINT_DIR
    old = directory / CHECKPOINT_OLD

    def complete(path: Path) -> bool:
        return (path / MANIFEST).exists()

    if complete(current):
        # Normal case; any leftovers are strictly older or incomplete.
        if old.exists():
            shutil.rmtree(old)
        if tmp.exists():
            shutil.rmtree(tmp)
        return
    if current.exists():  # pragma: no cover - renames are atomic
        shutil.rmtree(current)
    if old.exists():
        if complete(tmp):
            # Crashed mid-swap: the new snapshot is complete — promote it.
            tmp.rename(current)
            shutil.rmtree(old)
        else:
            if tmp.exists():
                shutil.rmtree(tmp)
            old.rename(current)
        return
    if complete(tmp):
        # Crashed between save and swap with no prior checkpoint.
        tmp.rename(current)
    elif tmp.exists():
        shutil.rmtree(tmp)


# ---------------------------------------------------------------------------
# Lifecycle: initialize / recover
# ---------------------------------------------------------------------------


def has_state(directory) -> bool:
    """Whether ``directory`` holds durable enforcement state."""
    directory = Path(directory)
    return (
        (directory / CHECKPOINT_DIR / MANIFEST).exists()
        or (directory / CHECKPOINT_OLD / MANIFEST).exists()
        or (directory / CHECKPOINT_TMP / MANIFEST).exists()
        or (directory / WAL_NAME).exists()
    )


def initialize_durability(
    enforcer: Enforcer,
    directory,
    sync: bool = True,
    fault_plan: Optional[FaultPlan] = None,
) -> WriteAheadLog:
    """Attach a fresh WAL to ``enforcer`` and write its genesis checkpoint.

    The genesis checkpoint makes recovery unconditional: any later crash
    has a complete snapshot to replay on top of.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    wal = WriteAheadLog(
        directory / WAL_NAME, sync=sync, fault_plan=fault_plan, start_seq=0
    )
    enforcer.store.attach_wal(wal)
    checkpoint(enforcer, directory, wal, sync=sync)
    return wal


@dataclass
class RecoveryReport:
    """What one recovery pass found and did."""

    directory: str
    #: Queries covered by the checkpoint (its ``wal_last_seq``).
    checkpoint_seq: int
    #: Queries durable in total after replay (checkpoint + WAL suffix).
    last_seq: int
    replayed: int
    commits: int
    rejects: int
    #: Records at or below the checkpoint's sequence (crash before the
    #: post-checkpoint WAL reset); skipped to keep replay idempotent.
    skipped: int
    torn_tail: bool
    truncated_bytes: int

    def as_dict(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        tail = (
            f"; torn tail truncated ({self.truncated_bytes} bytes)"
            if self.torn_tail
            else ""
        )
        return (
            f"checkpoint at seq {self.checkpoint_seq}, replayed "
            f"{self.replayed} record(s) ({self.commits} commit, "
            f"{self.rejects} reject) to seq {self.last_seq}{tail}"
        )


def recover_enforcer(
    directory,
    registry: Optional[LogRegistry] = None,
    clock: Optional[Clock] = None,
    sync: bool = True,
    fault_plan: Optional[FaultPlan] = None,
) -> "tuple[Enforcer, WriteAheadLog, RecoveryReport]":
    """Rebuild an enforcer from its durability directory.

    Repairs any interrupted checkpoint swap, restores the latest complete
    checkpoint, replays the WAL records it does not cover, truncates a
    torn tail, and re-attaches the WAL so the enforcer continues journaling
    where the crashed instance stopped. Pass the same ``registry``/``clock``
    kinds the original deployment used (see
    :func:`~repro.storage.snapshot.restore_enforcer`).
    """
    directory = Path(directory)
    _repair_checkpoints(directory)
    checkpoint_dir = directory / CHECKPOINT_DIR
    manifest_path = checkpoint_dir / MANIFEST
    if not manifest_path.exists():
        raise StorageError(f"{directory}: no durable enforcer state")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))

    enforcer = restore_enforcer(checkpoint_dir, registry=registry, clock=clock)
    enforcer.clock.seek(int(manifest["clock_now"]))
    base_seq = int(manifest.get("wal_last_seq", 0))

    wal_file = directory / WAL_NAME
    applied = commits = rejects = skipped = 0
    last_seq = base_seq
    torn = False
    truncated = 0
    if wal_file.exists():
        scan = read_wal(wal_file)
        for record in scan.records:
            kind = record.get("type")
            if kind == "header":
                continue
            seq = int(record["seq"])
            if seq <= base_seq:
                skipped += 1
                continue
            if seq != last_seq + 1:
                raise WalError(
                    f"{wal_file}: sequence gap ({last_seq} -> {seq})"
                )
            _apply_record(enforcer, record)
            last_seq = seq
            applied += 1
            if kind == "commit":
                commits += 1
            else:
                rejects += 1
        torn = scan.torn
        if torn:
            truncated = scan.total_bytes - scan.valid_bytes
            tear(wal_file, scan.valid_bytes)

    wal = WriteAheadLog(
        wal_file, sync=sync, fault_plan=fault_plan, start_seq=last_seq
    )
    enforcer.store.attach_wal(wal)
    report = RecoveryReport(
        directory=str(directory),
        checkpoint_seq=base_seq,
        last_seq=last_seq,
        replayed=applied,
        commits=commits,
        rejects=rejects,
        skipped=skipped,
        torn_tail=torn,
        truncated_bytes=truncated,
    )
    return enforcer, wal, report


def _apply_record(enforcer: Enforcer, record: dict) -> None:
    """Re-apply one WAL record to a restored enforcer."""
    kind = record.get("type")
    if kind not in ("commit", "reject"):
        raise WalError(f"unknown WAL record type {kind!r}")
    if kind == "commit":
        for name, tids in record.get("delete", {}).items():
            enforcer.database.table(name).delete_tids(
                {int(tid) for tid in tids}
            )
        inserted: dict[str, list[tuple]] = {}
        for name, payload in record.get("insert", {}).items():
            rows = [tuple(row) for row in payload["rows"]]
            tids = [int(tid) for tid in payload["tids"]]
            enforcer.database.table(name).insert_with_tids(rows, tids)
            inserted[name] = rows
        # A restored maintainer replays folds from the same rows the live
        # commit folded; without one, the lazy bootstrap rebuilds from the
        # fully replayed disk image instead.
        maintainer = enforcer.incremental
        if maintainer is not None and inserted:
            maintainer.on_commit(int(record["ts"]), inserted)
        if record.get("compacted"):
            enforcer._queries_since_compaction = 0  # noqa: SLF001
        elif enforcer.options.log_compaction:
            enforcer._queries_since_compaction += 1  # noqa: SLF001
    for name, value in record.get("next_tid", {}).items():
        enforcer.database.table(name).advance_tid(int(value))
    timestamp = int(record["ts"])
    enforcer.clock.seek(timestamp)
    enforcer.store.set_time(timestamp)


# ---------------------------------------------------------------------------
# fsync helpers
# ---------------------------------------------------------------------------


def _fsync_tree(directory: Path) -> None:
    """Best-effort fsync of every file under ``directory``, then itself."""
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
    _fsync_dir(directory)


def _fsync_dir(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)
