"""Append-only persistent cache for structure constants.

One record per line, `<key>\\t<value>\\n`: the key is the canonical JSON
text (`json.dumps`) of a list of strings, the value is JSON.  `key_head`
and `key` lead every key with the record-format tag `FORMAT`; the caller's
parts follow (for `RepCategory`: the id of the canonical-form algorithm,
the quiver content hash, the field size, the operation and its arguments).
A record written under another format or algorithm therefore has another
key and is never returned.  `key` encodes parts with `json.dumps`'s own
string encoder, after a `key_head` encoded once, so keys are its text.

Opening a store only splits each line at its first tab: values stay text
until a `get` reads them, and each `get` decodes the text it returns, so a
session decodes only what it reads.  A line without a tab (a line of the
older `{"k": [...], "v": ...}` format, or any other line that is not a
record) or without its closing newline (a torn last write) is skipped and
counted in `rejected`; old files are ignored, never migrated.  Before an
append, a last line that lacks its newline is closed with a NUL, which no
JSON text holds, so that line too reads as a miss.  A value is one JSON
text that ends just before the line's newline; anything else (cut short,
or followed by stray text) is dropped on its first `get` and reads as a
miss, so the recomputed value is appended again; so is a stored `null`,
which no caller stores and `get` could not tell from a miss.  Other
processes may append to the same file: appends take an advisory file lock.
Audit mode recomputes on every hit and raises on disagreement.  A `get`
returns the value as stored: the store knows no op, so its reader checks
the value's shape (`RepCategory` refuses a record that cannot be its op's
value).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from json.scanner import make_scanner

try:
    import fcntl
except ImportError:  # non-posix; advisory locking degrades to nothing
    fcntl = None

FORMAT = "hallq-cache/2"

# json.loads's parse, without its checks; it raises StopIteration where no
# value starts (JSONDecoder.raw_decode's own frame only renames that error)
_scan = make_scanner(json.JSONDecoder())


class CacheStore:
    def __init__(self, path, audit: bool = False):
        self.path = path
        self.audit = audit
        self.rejected = 0
        self._mem: dict[str, str] = {}
        # an unusable path raises OSError here, before any work is done
        open(path, "a", encoding="utf-8").close()
        self._load()

    @staticmethod
    def key_head(*parts: str) -> str:
        """`json.dumps([FORMAT, *parts])` without its closing `]`."""
        return json.dumps([FORMAT, *parts])[:-1]

    @staticmethod
    def key(head: str, parts: tuple) -> str:
        """`json.dumps([FORMAT, *head's parts, *map(str, parts)])`, reusing `head`."""
        for part in parts:
            head = f"{head}, {encode_basestring_ascii(str(part))}"
        return head + "]"

    def _load(self):
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                key, tab, text = line.partition("\t")
                if tab and text.endswith("\n"):
                    self._mem[key] = text
                else:
                    self.rejected += 1

    def get(self, key: str):
        text = self._mem.get(key)
        if text is None:
            return None
        try:
            value, end = _scan(text, 0)
        except (json.JSONDecodeError, StopIteration):
            end = None
        if end != len(text) - 1 or value is None:
            # torn, corrupt or a JSON null: a miss, recomputed and appended
            del self._mem[key]
            return None
        return value

    def put(self, key: str, value):
        if key in self._mem:
            return
        # kept as _load keeps a line's value, newline included, so it reads back
        text = self._mem[key] = json.dumps(value, sort_keys=True) + "\n"
        with open(self.path, "a+b") as fh:
            if fcntl is not None:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                end = fh.seek(0, 2)
                fh.seek(max(end - 1, 0))
                # close a torn last line with a NUL, which no JSON text holds
                head = b"" if fh.read(1) in (b"", b"\n") else b"\x00\n"
                fh.write(head + f"{key}\t{text}".encode())
                fh.flush()
            finally:
                if fcntl is not None:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
