"""Append-only persistent cache for structure constants.

One JSON record per line, {"k": [...], "v": ...}, keyed by quiver content
hash, field size, operation tag and canonical argument keys, all strings:
callers pass the key as a tuple of strings, the form it is loaded in.  Other
processes may append to the same file: appends take an advisory file lock,
and readers load once at open and skip every line that is not a record,
such as a truncated final line from such a writer.  Audit mode recomputes
on every hit and raises on disagreement.
"""

from __future__ import annotations

import json

try:
    import fcntl
except ImportError:  # non-posix; advisory locking degrades to nothing
    fcntl = None


class CacheStore:
    def __init__(self, path, audit: bool = False):
        self.path = path
        self.audit = audit
        self._mem: dict[tuple, object] = {}
        # an unusable path raises OSError here, before any work is done
        open(path, "a", encoding="utf-8").close()
        self._load()

    def _load(self):
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail write from another process
                if not (isinstance(rec, dict) and isinstance(rec.get("k"), list)
                        and "v" in rec):
                    continue  # valid JSON, but not a record
                try:
                    self._mem[tuple(rec["k"])] = rec["v"]
                except TypeError:  # a key part that cannot be hashed
                    continue

    def get(self, key):
        return self._mem.get(key)

    def put(self, key, value):
        if key in self._mem:
            return
        self._mem[key] = value
        line = json.dumps({"k": list(key), "v": value}, sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            if fcntl is not None:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                fh.write(line + "\n")
                fh.flush()
            finally:
                if fcntl is not None:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    def __len__(self):
        return len(self._mem)
