"""Framed JSON messaging between the coordinator and shard processes.

Each message is one JSON object framed with the WAL's checksum
discipline (:func:`repro.storage.wal.encode_record`): a crc32 prefix
over the compact-JSON payload. The :class:`multiprocessing.connection`
pipe already length-prefixes each ``send_bytes`` chunk, so the frame
layer's job is *integrity* — a corrupted or half-written chunk decodes
to ``None`` exactly like a torn WAL record, and the receiver treats it
as a dead peer instead of acting on garbage.

Wire protocol (all messages carry a ``type``; requests carry an ``id``
the response echoes):

========================  ============================================
coordinator → worker
========================  ============================================
``query``                 ``{id, sql, uid, execute, attributes,
                          timestamp}`` — ``timestamp`` is the
                          coordinator-assigned logical time when a
                          global tier owns the clock (else ``null``)
``call``                  ``{id, method, args}`` — run
                          ``Shard.<method>(*args)`` in the worker for
                          a name in :data:`~repro.service.shard.FORWARDED`
                          (policy changes, epoch, extras, log dumps,
                          stats/export and the other inspections,
                          explain); the result carries its ``value``,
                          and any other name is refused
``drain``                 flush the backlog, checkpoint, exit
========================  ============================================

========================  ============================================
worker → coordinator
========================  ============================================
``hello``                 one per boot: ``{pid, policies, recovery}``
                          (or ``{error}`` when the enforcer could not
                          be built — the spawn fails loudly)
``result``                ``{id, ok: true, decision | value}`` or
                          ``{id, ok: false, kind, error}`` with
                          ``kind`` ∈ overloaded/closed/crash/repro/
                          internal mapped back onto the matching
                          exception coordinator-side
``delta``                 unsolicited: ``{ts, rows}`` — one committed
                          usage-log increment streamed to the global
                          tier (rows keyed by relation, each row
                          ``[ts, ...]``), in timestamp order
========================  ============================================
"""

from __future__ import annotations

from typing import Optional

from ..storage.wal import decode_record, encode_record


def send_message(conn, message: dict) -> None:
    """Frame and send one message on a multiprocessing connection.

    Callers serialize sends themselves (the worker shares one pipe
    between its IPC loop and its completion callbacks).
    """
    conn.send_bytes(encode_record(message))


def recv_message(conn) -> Optional[dict]:
    """Receive and verify one message; ``None`` for a corrupt frame."""
    chunk = conn.recv_bytes()
    # encode_record appends the WAL's newline terminator; the pipe is
    # already message-oriented, so strip it before checksum validation.
    return decode_record(chunk.rstrip(b"\n"))
