"""A versioned key-value store with per-transaction undo.

Uncommitted writes are applied in place (locks keep them isolated) and
recorded in an undo list so abort can roll them back — the same
steal/no-force shape as the WAL systems the paper's LRMs stand for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional


_MISSING = object()


@dataclass
class UndoEntry:
    key: str
    previous: Any          # _MISSING sentinel when the key did not exist


class KVStore:
    """The data state one resource manager owns."""

    def __init__(self, initial: Optional[Dict[str, Any]] = None) -> None:
        self._data: Dict[str, Any] = dict(initial or {})
        self._undo: Dict[str, List[UndoEntry]] = {}
        self.commits = 0
        self.aborts = 0

    # ------------------------------------------------------------------
    # Data access (caller is responsible for holding locks)
    # ------------------------------------------------------------------
    def read(self, txn_id: str, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)

    def write(self, txn_id: str, key: str, value: Any) -> None:
        undo = self._undo.setdefault(txn_id, [])
        previous = self._data.get(key, _MISSING)
        undo.append(UndoEntry(key=key, previous=previous))
        self._data[key] = value

    def delete(self, txn_id: str, key: str) -> None:
        if key not in self._data:
            return
        undo = self._undo.setdefault(txn_id, [])
        undo.append(UndoEntry(key=key, previous=self._data[key]))
        del self._data[key]

    # ------------------------------------------------------------------
    # Transaction termination
    # ------------------------------------------------------------------
    def commit(self, txn_id: str) -> None:
        self._undo.pop(txn_id, None)
        self.commits += 1

    def abort(self, txn_id: str) -> None:
        for entry in reversed(self._undo.pop(txn_id, [])):
            if entry.previous is _MISSING:
                self._data.pop(entry.key, None)
            else:
                self._data[entry.key] = entry.previous
        self.aborts += 1

    def redo_write(self, key: str, value: Any) -> None:
        """Apply a committed value during crash recovery (no undo kept)."""
        self._data[key] = value

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        """Read outside any transaction (for assertions in tests)."""
        return self._data.get(key, default)

    def has_uncommitted(self, txn_id: str) -> bool:
        return bool(self._undo.get(txn_id))

    def snapshot(self) -> Dict[str, Any]:
        return dict(self._data)

    def __len__(self) -> int:
        return len(self._data)
