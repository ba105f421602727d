"""Cross-process disk cache for compiled artifacts.

The bench runner memoizes :func:`~repro.simdize.driver.simdize` results
per process and the jit engine memoizes compiled kernels per process —
but ``measure_many`` fans work out over a ``ProcessPoolExecutor``, and
repeated CLI invocations are separate processes, so identical lowering
work is redone everywhere.  This module gives those memos a shared
disk tier: a content-addressed pickle store under ``~/.cache/repro``
(overridable with ``REPRO_CACHE_DIR`` or ``--cache-dir``).

Design rules:

* **Versioned keys.** Every key embeds the package version plus a
  per-artifact schema version (see :data:`CACHE_SCHEMA_VERSION` and the
  artifact modules), so entries written by older code are simply never
  hit — a stale code version means a recompute, not a wrong answer.
* **Silent misses.** Any I/O or unpickling failure — missing file,
  truncated write, corrupted or hostile bytes, unwritable directory —
  degrades to a cache miss.  The cache can only make runs faster,
  never make them fail.
* **Quarantined corruption.** An entry that fails to unpickle — or
  that a caller finds bad on use (:meth:`DiskCache.quarantine`) — is
  renamed to ``*.corrupt`` (bounded count, oldest dropped) instead of
  being silently re-missed forever: the bad bytes stay available for
  diagnosis, the key's slot is freed so the next ``put`` repairs it,
  and ``stats()`` counts ``corrupt_quarantined``.
* **Unwritable degradation.** When writes keep failing (read-only
  directory, wrong owner, full disk), the disk tier turns itself off
  after :data:`WRITE_FAILURE_LIMIT` consecutive failures with a single
  recorded warning; reads keep working and the in-process memos carry
  on alone.  Nothing ever raises.
* **Atomic writes.** Entries are written to a temp file and renamed,
  so concurrent ``measure_many`` workers sharing one directory never
  observe half-written pickles.
* **Self-checking entries.** Each entry stores ``(key, value)`` and a
  ``get`` whose stored key differs (hash collision, foreign file) is a
  miss.
* **Bounded size.** The store holds at most ``max_bytes`` of entries
  (``REPRO_CACHE_MAX_BYTES``, default 1 GiB, ``0`` = unlimited); the
  write that crosses the budget evicts least-recently-*used* entries
  first — every file is its own LRU unit, and a hit touches the one
  file it read — down to 7/8 of the budget, so long sweep campaigns
  cannot grow the cache without limit, the hot working set survives,
  and the writes after an eviction do not cross the budget again at
  once.  Each instance charges its writes to a running byte tally and
  lists the directory only when that tally is unknown, would cross the
  budget, or has grown by ``max_bytes // 16`` since its last scan.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import warnings
from pathlib import Path

from repro import faults

#: Bump when the on-disk entry layout itself changes.
CACHE_SCHEMA_VERSION = 1

#: Most ``*.corrupt`` quarantine files kept around for diagnosis.
QUARANTINE_MAX = 32

#: Consecutive ``put`` failures before the disk tier disables itself.
WRITE_FAILURE_LIMIT = 3

#: Default size budget for the disk tier when neither the constructor
#: nor ``REPRO_CACHE_MAX_BYTES`` says otherwise.
DEFAULT_CACHE_MAX_BYTES = 1 << 30  # 1 GiB


def _env_max_bytes() -> int:
    """The size budget from ``REPRO_CACHE_MAX_BYTES`` (0 = unlimited)."""
    env = os.environ.get("REPRO_CACHE_MAX_BYTES")
    if env is None:
        return DEFAULT_CACHE_MAX_BYTES
    try:
        value = int(env)
    except ValueError:
        return DEFAULT_CACHE_MAX_BYTES
    return max(0, value)


class DiskCache:
    """A content-addressed pickle store with never-fail semantics."""

    def __init__(self, root: str | Path, max_bytes: int | None = None):
        self.root = Path(root)
        self.max_bytes = _env_max_bytes() if max_bytes is None else max_bytes
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.errors = 0
        self.evictions = 0
        self.corrupt_quarantined = 0
        self.write_failures = 0
        self.scans = 0
        self.disabled = False
        # Bytes on disk as of this instance's last scan plus its own
        # writes since (None: unknown, scan on the next write), and the
        # bytes written since that scan.
        self._tally: int | None = None
        self._unscanned = 0

    def _path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return self.root / digest[:2] / f"{digest}.pkl"

    def get(self, key: str):
        """The cached value for ``key``, or None (silently) on any miss."""
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        data = faults.mangle("cache", data)
        try:
            stored_key, value = pickle.loads(data)
            if stored_key != key:
                raise ValueError("key mismatch")
        except Exception:
            # Corrupted, truncated, or foreign entry: a miss, not a
            # crash — but quarantine the bytes so the slot frees up and
            # the corruption stays diagnosable instead of re-missing on
            # every lookup forever.
            self.errors += 1
            self.misses += 1
            self.quarantine(key)
            return None
        self._touch(path)
        self.hits += 1
        return value

    def _touch(self, path: Path) -> None:
        """Refresh the mtime of the file a hit read (best-effort)."""
        try:
            os.utime(path)
        except OSError:
            pass

    def quarantine(self, key: str) -> None:
        """Move ``key``'s corrupted entry aside as ``*.corrupt``.

        ``get`` calls this for an entry that fails to unpickle; callers
        call it for a value that unpickles fine yet proves bad on use
        (a native ``.so`` entry whose bytes miss their digest or fail
        ``dlopen``), so the next ``put`` repairs the slot instead of
        re-serving the same bytes.  Best-effort, and bounded: past
        :data:`QUARANTINE_MAX` the entry is simply unlinked, so a
        corruption storm cannot grow the directory without limit.
        """
        path = self._path(key)
        try:
            kept = sum(1 for _ in self.root.glob("??/*.corrupt"))
            if kept >= QUARANTINE_MAX:
                path.unlink()
            else:
                path.rename(path.with_suffix(".corrupt"))
            self.corrupt_quarantined += 1
        except OSError:
            pass

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key``; failures are silently dropped.

        The write is atomic (temp file plus rename) and charged to the
        size budget.  Persistent write failure (read-only directory,
        full disk) degrades the whole disk tier to read-only after
        :data:`WRITE_FAILURE_LIMIT` consecutive misfires, with one
        recorded warning — in-process memos keep the run correct.
        """
        if self.disabled:
            return
        path = self._path(key)
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                pickle.dump((key, value), handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
                written = handle.tell()
            os.replace(tmp, path)
            tmp = None
            self.puts += 1
            self.write_failures = 0
        except Exception:
            self.errors += 1
            self.write_failures += 1
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            if self.write_failures >= WRITE_FAILURE_LIMIT:
                self.disabled = True
                warnings.warn(
                    f"repro disk cache at {self.root} is unwritable after "
                    f"{self.write_failures} attempts; continuing with "
                    f"in-process caching only",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return
        self._evict_if_needed(written)

    def _evict_if_needed(self, written: int) -> None:
        """Charge ``written`` bytes to the tally; scan and evict when due.

        A full scan runs only when the tally is unknown (first write,
        after a ``max_bytes == 0`` stretch or a failed scan), when this
        write takes it past ``max_bytes``, or once this instance has
        written ``max_bytes // 16`` since its last scan — so N writers
        sharing a directory, each blind to the others' writes between
        its scans, overshoot the budget by at most N × ``max_bytes``/16.

        The scan sizes every file and resets the tally to the true
        total.  Over budget, it drops the least-recently-used files
        until the total is at most 7/8 of ``max_bytes``; the freed eighth
        lets the next writes land without crossing the budget and
        rescanning at once.  Best-effort and never-fail like everything
        else here: entries racing with concurrent workers may vanish
        mid-scan (fine — the goal was deletion), and any other error
        leaves the tally unknown.
        """
        if not self.max_bytes:
            self._tally = None
            return
        # One read of the tally: threads sharing this instance may race
        # a scan that resets it.  A charge lost to such a race only
        # delays the next scan, which recounts the true total.
        tally = self._tally
        self._unscanned += written
        if (tally is not None and tally + written <= self.max_bytes
                and self._unscanned < self.max_bytes // 16):
            self._tally = tally + written
            return
        self.scans += 1
        self._tally, self._unscanned = None, 0
        try:
            files = []
            total = 0
            for path in self.root.glob("??/*"):
                if path.name.endswith((".tmp", ".corrupt")):
                    continue
                try:
                    stat = path.stat()
                except OSError:
                    continue
                files.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
            if total > self.max_bytes:
                low_water = self.max_bytes * 7 // 8
                for _, size, path in sorted(files):
                    try:
                        path.unlink()
                    except OSError:
                        continue
                    self.evictions += 1
                    total -= size
                    if total <= low_water:
                        break
            self._tally = total
        except Exception:
            self.errors += 1

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "puts": self.puts, "errors": self.errors,
                "evictions": self.evictions,
                "corrupt_quarantined": self.corrupt_quarantined,
                "write_failures": self.write_failures,
                "scans": self.scans,
                "disabled": int(self.disabled)}


# ---------------------------------------------------------------------------
# Process-global cache selection
# ---------------------------------------------------------------------------

_UNSET = object()
_cache: DiskCache | None | object = _UNSET


def default_cache_dir() -> Path | None:
    """The directory ``get_cache`` uses when none was set explicitly.

    ``REPRO_CACHE_DIR`` overrides the default of ``~/.cache/repro``;
    setting it to an empty string disables disk caching entirely.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env is not None:
        return Path(env) if env else None
    return Path.home() / ".cache" / "repro"


def get_cache() -> DiskCache | None:
    """The process-wide disk cache, or None when disk caching is off."""
    global _cache
    if _cache is _UNSET:
        root = default_cache_dir()
        _cache = DiskCache(root) if root is not None else None
    return _cache  # type: ignore[return-value]


def set_cache_dir(path: str | Path | None) -> None:
    """Point the process-wide cache at ``path`` (None disables it)."""
    global _cache
    _cache = DiskCache(path) if path is not None else None


def reset_cache_dir() -> None:
    """Forget any explicit choice; resolve the default again lazily."""
    global _cache
    _cache = _UNSET


def current_cache_dir() -> Path | None:
    """The directory the process-wide cache writes to (None when off)."""
    cache = get_cache()
    return cache.root if cache is not None else None
