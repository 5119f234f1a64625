"""File-backed stable storage: one real ``fsync`` per physical log I/O.

:class:`FileStableStorage` keeps the in-memory contract of
:class:`repro.log.storage.StableStorage` (the rest of the system reads
through the same API) while also persisting every appended batch to an
append-only JSONL file and fsyncing it.  Because
``LogManager._flush_to`` calls ``stable.append`` exactly once per
physical I/O completion, ``fsync_count`` equals the metrics
collector's ``physical_ios`` for the node — group commit batches
physical fsyncs exactly as it batches simulated I/Os, and the twin
gate asserts that equality.

Two durability edge cases this module owns:

* **Torn tail.**  A crash mid-append can leave a truncated final JSONL
  line.  ``recover=True`` (the restart path) detects it, drops exactly
  that record, truncates the file back to the last complete line, and
  surfaces the loss via :attr:`FileStableStorage.torn_tail`.  A torn
  tail is *correct* WAL behaviour, not corruption: the force for that
  record never completed, so the protocol never acted on it — exactly
  the "record still volatile" crash-site semantics of the torture
  matrix.  A malformed line anywhere *before* the tail has no such
  excuse and raises :class:`WalCorruptionError`.

* **Compaction.**  After a forced CHECKPOINT record the log prefix
  before it is dead weight (the checkpoint payload carries everything
  restart needs).  :meth:`compact` rewrites the file to the checkpoint
  record + suffix via write-new-then-rename, fsyncing both the new
  file and the directory, so long-running ``serve`` nodes stop growing
  their WAL unboundedly.  Compaction fsyncs are maintenance, not log
  forces, and deliberately do not count in ``fsync_count``.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Sequence, Tuple

from repro.log.records import LogRecord, LogRecordType
from repro.log.storage import StableStorage
from repro.transport.wire import encode_json, record_from_wire, \
    record_to_wire


class WalCorruptionError(RuntimeError):
    """A WAL line *before* the tail failed to parse — torn-tail rules
    cannot explain it, so recovery must not silently continue."""


def _encode(records: Sequence[LogRecord]) -> bytes:
    return "".join(encode_json(record_to_wire(r)) + "\n"
                   for r in records).encode("utf-8")


def scan_wal(path: str) -> Tuple[List[LogRecord], Optional[str], int]:
    """Parse a WAL file tolerating a torn final line.

    Returns ``(records, torn_tail_note, valid_byte_length)`` where
    ``torn_tail_note`` is None for a clean file and a human-readable
    description of the dropped tail otherwise, and
    ``valid_byte_length`` is the offset the file must be truncated to
    so appends resume after the last complete record.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    records: List[LogRecord] = []
    offset = 0
    index = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        line = data[offset:] if newline < 0 else data[offset:newline]
        last = newline < 0 or newline == len(data) - 1
        try:
            parsed = json.loads(line)
            record = record_from_wire(parsed)
        except (ValueError, KeyError, TypeError) as error:
            if last:
                # Only the final line may legally be incomplete: the
                # crash tore it mid-append.  Drop exactly this record.
                note = (f"dropped torn final WAL line {index} "
                        f"({len(line)} bytes): {error}")
                return records, note, offset
            raise WalCorruptionError(
                f"{path}: line {index} is malformed mid-file: {error}")
        records.append(record)
        index += 1
        offset = len(data) if newline < 0 else newline + 1
    return records, None, len(data)


class FileStableStorage(StableStorage):
    """Append-only JSONL write-ahead log with real fsync semantics."""

    def __init__(self, path: str, fsync: bool = True,
                 recover: bool = False) -> None:
        super().__init__()
        self.path = str(path)
        self.fsync_enabled = fsync
        #: Physical fsync calls issued for appended batches; the twin
        #: gate checks this is exactly the node's physical I/O count.
        self.fsync_count = 0
        #: Maintenance fsyncs (compaction file + directory syncs),
        #: kept separate so append accounting stays exact.
        self.maintenance_fsyncs = 0
        #: Set by ``recover=True`` when a torn final line was dropped.
        self.torn_tail: Optional[str] = None
        #: Records loaded from disk by ``recover=True``.
        self.recovered_count = 0
        if recover and os.path.exists(self.path):
            records, torn, valid_len = scan_wal(self.path)
            if torn is not None:
                with open(self.path, "r+b") as fh:
                    fh.truncate(valid_len)
                self.torn_tail = torn
            elif valid_len > 0:
                # A crash can tear off just the final newline while the
                # record itself survived complete; repair the separator
                # so the next append starts a fresh line.
                with open(self.path, "r+b") as fh:
                    fh.seek(-1, os.SEEK_END)
                    if fh.read(1) != b"\n":
                        fh.write(b"\n")
            if records:
                super().append(records)
            self.recovered_count = len(records)
        self._fh = open(self.path, "ab")

    def append(self, records: Sequence[LogRecord]) -> None:
        records = list(records)
        # Validate + mirror in memory first: a batch the base class
        # rejects must not reach the disk either.
        super().append(records)
        if not records:
            return
        self._fh.write(_encode(records))
        self._fh.flush()
        if self.fsync_enabled:
            os.fsync(self._fh.fileno())
            self.fsync_count += 1

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> bool:
        """Truncate the WAL past the most recent durable CHECKPOINT.

        Keeps the checkpoint record and everything after it (restart
        reads exactly that), dropping the prefix.  Write-new-then-
        rename: the old file stays intact until the replacement is
        durable, and the directory entry swap is fsynced too.  Returns
        False (and leaves the file alone) when no checkpoint is
        durable yet.
        """
        checkpoint_at = self.last_position_of(LogRecordType.CHECKPOINT)
        if not checkpoint_at:
            return False
        kept = self.records(checkpoint_at)
        tmp_path = self.path + ".compact"
        with open(tmp_path, "wb") as tmp:
            tmp.write(_encode(kept))
            tmp.flush()
            if self.fsync_enabled:
                os.fsync(tmp.fileno())
        self._fh.close()
        os.replace(tmp_path, self.path)
        if self.fsync_enabled:
            dir_fd = os.open(os.path.dirname(os.path.abspath(self.path))
                             or ".", os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
            self.maintenance_fsyncs += 2
        self.truncate_before(checkpoint_at)
        self._fh = open(self.path, "ab")
        return True

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


def load_records(path: str,
                 allow_torn_tail: bool = False) -> List[LogRecord]:
    """Read a WAL file back into records (restart recovery scan).

    Strict by default: a torn final line raises unless
    ``allow_torn_tail`` (the crash-recovery path) is set.
    """
    records, torn, _valid_len = scan_wal(path)
    if torn is not None and not allow_torn_tail:
        raise WalCorruptionError(f"{path}: {torn}")
    return records
