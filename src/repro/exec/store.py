"""Sharded, content-addressed, size-bounded on-disk result store.

A single-file cache cannot survive millions of entries: every load parses
the whole file, every save rewrites it, and two writers clobber each
other's entries. This store keeps **one file per entry**, sharded by the
first two hex characters of the digest so no directory ever holds more
than ~1/256th of the population::

    <root>/
      objects/v<SIM_VERSION>/<2-hex>/<digest>.json   one entry per file
      ledger.json          advisory totals + policy
      quarantine/          corrupt entries are moved here, never parsed again

Properties the serving layer (and concurrent sweeps) rely on:

* **Atomic writes** — every entry (and the ledger) is written to a
  ``*.tmp`` sibling and ``os.replace``'d into place, so a killed worker
  or daemon can never leave a half-written entry behind.
* **Corruption is a miss, not a crash** — an unparseable entry file is
  moved to ``quarantine/`` with a warning and treated as absent.
* **The filesystem is the source of truth** — ``ledger.json`` is an
  advisory summary, recomputed from a shard scan on every
  :meth:`save_ledger`, so two processes writing and evicting the same
  root cannot double-count bytes or lose entries: whichever ledger write
  lands last describes the actual files. Deriving it walks the whole
  store, so callers derive it when they finish (the serve daemon at
  drain and close, one-shot sweeps on ``save()``), not per chunk.
* **Writes cost the entry, not the store** — :meth:`write` touches one
  file and adds its digest to the per-generation digest set, which is
  scanned lazily at most once per :meth:`refresh` and then kept current
  by this process's own writes (an eviction that removed entries
  refreshes it).
* **LRU eviction** — when ``max_entries``/``max_bytes`` bounds are set,
  the oldest entries (by file mtime; reads refresh it) are unlinked
  until the store fits. Stale ``SIM_VERSION`` generations age out the
  same way since nothing ever reads (or touches) them again.
"""

from __future__ import annotations

import json
import os
import warnings

OBJECTS_DIR = "objects"
QUARANTINE_DIR = "quarantine"
LEDGER_NAME = "ledger.json"
ENTRY_SUFFIX = ".json"
LEDGER_VERSION = 1


def _atomic_write_json(path: str, payload: dict, *, indent=None) -> int:
    """Write JSON via ``*.tmp`` + ``os.replace``; returns bytes written."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    data = json.dumps(payload, indent=indent, sort_keys=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return len(data)


class ShardedStore:
    """The on-disk half of :class:`~repro.exec.cache.ResultCache`.

    Versions are kept as separate subtrees (``objects/v2/…``) so the set
    of *servable* entries — the current ``SIM_VERSION`` generation — is
    enumerable without opening a single entry file, and a version bump
    makes the whole previous generation invisible at once instead of
    poisoning lookups.
    """

    def __init__(self, root: str | os.PathLike, *,
                 max_entries: int | None = None,
                 max_bytes: int | None = None) -> None:
        self.root = os.fspath(root)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        # ``evictions``/``quarantined`` fold into the on-disk ledger on
        # every save_ledger() and reset; the ``*_total`` counters keep
        # the whole-lifetime view a long-lived daemon scrapes.
        self.evictions = 0
        self.quarantined = 0
        self.evictions_total = 0
        self.quarantined_total = 0
        # {version: set(digests)} — lazily scanned, incrementally updated
        # by our own writes/evictions; external writers are picked up on
        # the next refresh() / save_ledger().
        self._digests: dict[int, set[str]] = {}

    # -- paths ------------------------------------------------------------

    def objects_root(self, version: int) -> str:
        return os.path.join(self.root, OBJECTS_DIR, f"v{version}")

    def entry_path(self, version: int, digest: str) -> str:
        return os.path.join(self.objects_root(version), digest[:2],
                            digest + ENTRY_SUFFIX)

    @property
    def ledger_path(self) -> str:
        return os.path.join(self.root, LEDGER_NAME)

    @property
    def quarantine_root(self) -> str:
        return os.path.join(self.root, QUARANTINE_DIR)

    # -- entry I/O --------------------------------------------------------

    def read(self, version: int, digest: str) -> dict | None:
        """Load one entry; corrupt or truncated files become a miss and
        are moved to ``quarantine/`` with a warning."""
        path = self.entry_path(version, digest)
        try:
            with open(path) as fh:
                entry = json.load(fh)
            if not isinstance(entry, dict) or "latency_s" not in entry:
                raise ValueError("entry missing 'latency_s'")
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, ValueError, UnicodeDecodeError,
                OSError) as exc:
            self.quarantine(path, str(exc))
            self._digests.get(version, set()).discard(digest)
            return None
        try:
            os.utime(path)  # refresh LRU recency on every hit
        except OSError:  # pragma: no cover - raced with an eviction
            pass
        return entry

    def write(self, version: int, digest: str, entry: dict) -> str:
        """Atomically persist one entry; returns its path."""
        path = self.entry_path(version, digest)
        _atomic_write_json(path, entry)
        self.digests(version).add(digest)
        return path

    def contains(self, version: int, digest: str) -> bool:
        return digest in self.digests(version)

    # -- enumeration ------------------------------------------------------

    def _scan_digests(self, version: int) -> set[str]:
        found: set[str] = set()
        base = self.objects_root(version)
        try:
            shards = os.scandir(base)
        except FileNotFoundError:
            return found
        with shards:
            for shard in shards:
                if not shard.is_dir():
                    continue
                for name in os.listdir(shard.path):
                    if name.endswith(ENTRY_SUFFIX) \
                            and not name.endswith(".tmp"):
                        found.add(name[:-len(ENTRY_SUFFIX)])
        return found

    def digests(self, version: int) -> set[str]:
        """Digests of the ``version`` generation (cached scan)."""
        if version not in self._digests:
            self._digests[version] = self._scan_digests(version)
        return self._digests[version]

    def refresh(self) -> None:
        """Drop scan caches (pick up entries other processes wrote)."""
        self._digests.clear()

    def count(self, version: int) -> int:
        return len(self.digests(version))

    def scan(self) -> "list[tuple[str, os.stat_result]]":
        """``(path, stat)`` of every entry file across all generations."""
        out: list[tuple[str, os.stat_result]] = []
        base = os.path.join(self.root, OBJECTS_DIR)
        if not os.path.isdir(base):
            return out
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in filenames:
                if not name.endswith(ENTRY_SUFFIX):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    out.append((path, os.stat(path)))
                except FileNotFoundError:
                    continue  # raced with a concurrent eviction
        return out

    def totals(self) -> tuple[int, int]:
        """(entry count, total bytes) over every generation, by scan."""
        entries = self.scan()
        return len(entries), sum(st.st_size for _p, st in entries)

    # -- eviction ---------------------------------------------------------

    def evict(self) -> int:
        """Unlink least-recently-used entries until the store fits the
        ``max_entries``/``max_bytes`` bounds; returns how many went."""
        if self.max_entries is None and self.max_bytes is None:
            return 0
        entries = self.scan()
        count = len(entries)
        size = sum(st.st_size for _p, st in entries)
        over_entries = (self.max_entries is not None
                        and count > self.max_entries)
        over_bytes = self.max_bytes is not None and size > self.max_bytes
        if not (over_entries or over_bytes):
            return 0
        # Oldest first; ties broken by path so two processes evicting
        # concurrently converge on the same victims.
        entries.sort(key=lambda ps: (ps[1].st_mtime_ns, ps[0]))
        removed = 0
        for path, st in entries:
            fits = ((self.max_entries is None or count <= self.max_entries)
                    and (self.max_bytes is None or size <= self.max_bytes))
            if fits:
                break
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass  # another process got it first; still gone
            count -= 1
            size -= st.st_size
            removed += 1
        if removed:
            self.evictions += removed
            self.evictions_total += removed
            self.refresh()
            bounds = ", ".join(
                part for part in (
                    f"max {self.max_entries} entries"
                    if self.max_entries is not None else "",
                    f"max {self.max_bytes} bytes"
                    if self.max_bytes is not None else "") if part)
            warnings.warn(
                f"evicted {removed} result-cache entr"
                f"{'y' if removed == 1 else 'ies'} from {self.root!r} "
                f"to fit {bounds} ({self.evictions_total} total this "
                f"process)", RuntimeWarning, stacklevel=2)
        return removed

    # -- quarantine -------------------------------------------------------

    def quarantine(self, path: str, reason: str) -> str | None:
        """Move an unreadable file aside so it is never parsed again."""
        os.makedirs(self.quarantine_root, exist_ok=True)
        dest = os.path.join(self.quarantine_root,
                            os.path.basename(path) + ".corrupt")
        n = 0
        while os.path.exists(dest):
            n += 1
            dest = os.path.join(self.quarantine_root,
                                f"{os.path.basename(path)}.corrupt.{n}")
        try:
            os.replace(path, dest)
        except FileNotFoundError:  # pragma: no cover - raced
            return None
        self.quarantined += 1
        self.quarantined_total += 1
        warnings.warn(
            f"quarantined corrupt cache entry {path!r} -> {dest!r} "
            f"({reason}); treating as a miss "
            f"({self.quarantined_total} total this process)",
            RuntimeWarning, stacklevel=3)
        return dest

    # -- ledger -----------------------------------------------------------

    def load_ledger(self) -> dict:
        try:
            with open(self.ledger_path) as fh:
                ledger = json.load(fh)
            if isinstance(ledger, dict):
                return ledger
        except FileNotFoundError:
            pass
        except (json.JSONDecodeError, OSError):
            self.quarantine(self.ledger_path, "unreadable ledger")
        return {}

    def save_ledger(self) -> dict:
        """Recompute totals from the filesystem and persist the summary.

        Totals are *derived*, never incremented, so concurrent writers
        cannot double-count: the last ledger written describes the files
        that actually exist.
        """
        previous = self.load_ledger()
        count, size = self.totals()
        ledger = {
            "ledger_version": LEDGER_VERSION,
            "entries": count,
            "bytes": size,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "evictions": int(previous.get("evictions", 0)) + self.evictions,
            "quarantined": (int(previous.get("quarantined", 0))
                            + self.quarantined),
        }
        self.evictions = 0
        self.quarantined = 0
        _atomic_write_json(self.ledger_path, ledger, indent=1)
        return ledger
