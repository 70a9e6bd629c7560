"""Persistent on-disk result cache (the L2 under the in-memory dicts).

The harness keeps two in-memory caches: per-(design, workload) core
measurements in :mod:`repro.harness.measure` and per-rate tail latencies
in :mod:`repro.harness.experiment`.  Both are process-local, so every
pytest/benchmark invocation used to re-simulate the whole evaluation
matrix from scratch.  This module adds a disk layer underneath them:

* **Content-addressed keys.**  A cache key is the SHA-256 of a canonical
  token built from every parameter that determines the result — the full
  design and workload dataclasses (not just their names), every fidelity
  knob, the root seed, a schema-version salt and a digest of the
  simulator sources (:func:`source_digest`).  Changing any knob or any
  source file (or bumping :data:`SCHEMA_VERSION`) yields a different
  key, so stale entries can never be served.
* **Atomic writes.**  Entries are written to a temporary file in the
  destination directory and published with :func:`os.replace`, so readers
  — including concurrent worker processes — never observe a partially
  written entry.
* **Corruption tolerance.**  A truncated, garbled, or wrong-typed entry
  is treated as a miss (and unlinked best-effort), never as an error.
* **Size-bounded eviction.**  When the cache grows past ``max_bytes``,
  the least-recently-used entries (by mtime; hits touch the file) are
  evicted until it fits.

Configuration (environment variables, read lazily on first use):

``REPRO_CACHE_DIR``
    Cache root.  Defaults to ``$XDG_CACHE_HOME/repro-duplexity`` (or
    ``~/.cache/repro-duplexity``).
``REPRO_CACHE_DISABLE``
    Set to ``1`` to disable the disk layer entirely.
``REPRO_CACHE_MAX_BYTES``
    Eviction budget in bytes (default 256 MiB).

Programmatic configuration via :func:`configure` takes precedence over
the environment; worker processes of the parallel runner receive the
parent's configuration explicitly so both layers agree.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro import obs

#: Bump whenever a simulator/model change alters cached values without a
#: corresponding parameter change.  Old entries become unreachable (their
#: keys no longer match) and age out through eviction.
#: v2: M/G/1 warmup trimming made consistent (busy/duration/idle windows)
#: and FanOutMax mean estimation re-budgeted — queue-derived values moved.
SCHEMA_VERSION = 2

DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: The simulator sources whose content salts every key.
_SOURCE_ROOT = Path(__file__).resolve().parent.parent

_PICKLE_PROTOCOL = 4


# ----------------------------------------------------------------------
# Canonical key tokens
# ----------------------------------------------------------------------


def canonical_token(obj: Any) -> str:
    """A deterministic, content-complete string token for ``obj``.

    Dataclasses expand to every field (so two fidelities that share a
    ``name`` but differ in any knob produce different tokens), floats use
    ``float.hex`` (exact — no rounding collisions), and containers recurse.
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return repr(obj)
    if isinstance(obj, float):
        return float(obj).hex()
    if isinstance(obj, np.floating):
        return float(obj).hex()
    if isinstance(obj, np.integer):
        return repr(int(obj))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ",".join(
            f"{f.name}={canonical_token(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
        )
        return f"{type(obj).__name__}({fields})"
    if isinstance(obj, dict):
        items = ",".join(
            f"{canonical_token(k)}:{canonical_token(v)}"
            for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_token(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()
        return f"ndarray({obj.dtype},{obj.shape},{digest})"
    return repr(obj)


@functools.cache
def source_digest() -> str:
    """SHA-256 over every ``*.py`` and ``*.c`` file of the ``repro``
    package, in sorted path order (computed once per process): a
    result-changing edit that forgets to bump :data:`SCHEMA_VERSION`
    still gets fresh keys."""
    h = hashlib.sha256()
    files = {
        path.relative_to(_SOURCE_ROOT).as_posix(): path
        for pattern in ("*.py", "*.c")
        for path in _SOURCE_ROOT.rglob(pattern)
    }
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].read_bytes() + b"\0")
    return h.hexdigest()


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss accounting for one disk-cache instance (or a merge).

    Besides the aggregate counters, hits and misses are broken down by
    entry *kind* (``measure`` vs ``tail``), so the ``--stats`` table can
    show which cache population is actually warming.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    errors: int = 0
    kind_hits: dict = field(default_factory=dict)
    kind_misses: dict = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def kinds(self) -> list[str]:
        """All entry kinds seen, sorted."""
        return sorted(set(self.kind_hits) | set(self.kind_misses))

    def kind_hit_rate(self, kind: str) -> float:
        hits = self.kind_hits.get(kind, 0)
        lookups = hits + self.kind_misses.get(kind, 0)
        return hits / lookups if lookups else 0.0

    def record_lookup(self, kind: str | None, hit: bool) -> None:
        if kind is None:
            return
        target = self.kind_hits if hit else self.kind_misses
        target[kind] = target.get(kind, 0) + 1

    def snapshot(self) -> "CacheStats":
        # dataclasses.replace would share the kind dicts with the live
        # instance — copy them so a snapshot is actually frozen.
        return dataclasses.replace(
            self,
            kind_hits=dict(self.kind_hits),
            kind_misses=dict(self.kind_misses),
        )

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.writes += other.writes
        self.evictions += other.evictions
        self.errors += other.errors
        for kind, n in other.kind_hits.items():
            self.kind_hits[kind] = self.kind_hits.get(kind, 0) + n
        for kind, n in other.kind_misses.items():
            self.kind_misses[kind] = self.kind_misses.get(kind, 0) + n

    def since(self, before: "CacheStats") -> "CacheStats":
        """The counter deltas accumulated after ``before`` was taken."""
        return CacheStats(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            writes=self.writes - before.writes,
            evictions=self.evictions - before.evictions,
            errors=self.errors - before.errors,
            kind_hits=_dict_delta(self.kind_hits, before.kind_hits),
            kind_misses=_dict_delta(self.kind_misses, before.kind_misses),
        )


def _dict_delta(after: dict, before: dict) -> dict:
    out = {}
    for kind, n in after.items():
        d = n - before.get(kind, 0)
        if d:
            out[kind] = d
    return out


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------


class DiskCache:
    """A content-addressed pickle store with LRU size-bounded eviction."""

    def __init__(
        self,
        root: str | os.PathLike[str],
        max_bytes: int | None = DEFAULT_MAX_BYTES,
        schema_version: int = SCHEMA_VERSION,
    ) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.schema_version = schema_version
        self.stats = CacheStats()

    # -- keys -----------------------------------------------------------

    def key(self, kind: str, **parts: Any) -> str:
        """Content-addressed key: SHA-256 over kind, schema, the source
        digest, and parts."""
        token = canonical_token(
            {
                "kind": kind,
                "schema": self.schema_version,
                "source": source_digest(),
                **parts,
            }
        )
        return hashlib.sha256(token.encode()).hexdigest()

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # -- lookup / store -------------------------------------------------

    def get(
        self,
        key: str,
        expect: type | tuple[type, ...] | None = None,
        kind: str | None = None,
    ):
        """The cached value, or ``None`` on miss/corruption.

        ``expect`` guards the unpickled type: a wrong-typed entry (e.g. a
        hash collision across kinds or a partially migrated cache) is
        treated as corruption, not returned.  ``kind`` (the same label
        passed to :meth:`key`) attributes the lookup to a per-kind
        hit/miss series in :attr:`stats`.
        """
        path = self.path_for(key)
        try:
            with path.open("rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            self._miss(kind)
            return None
        except Exception:
            # Truncated/garbage entry: drop it and treat as a miss.
            self.stats.errors += 1
            obs.add("cache.disk.errors")
            self._miss(kind)
            _unlink_quietly(path)
            return None
        if expect is not None and not isinstance(value, expect):
            self.stats.errors += 1
            obs.add("cache.disk.errors")
            self._miss(kind)
            _unlink_quietly(path)
            return None
        self.stats.hits += 1
        self.stats.record_lookup(kind, hit=True)
        obs.add("cache.disk.lookups")
        obs.add("cache.disk.hits")
        _touch_quietly(path)  # keep LRU order honest
        return value

    def _miss(self, kind: str | None) -> None:
        self.stats.misses += 1
        self.stats.record_lookup(kind, hit=False)
        obs.add("cache.disk.lookups")
        obs.add("cache.disk.misses")

    def put(self, key: str, value: Any) -> None:
        """Atomically publish ``value`` under ``key``."""
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = pickle.dumps(value, protocol=_PICKLE_PROTOCOL)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".pkl"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(payload)
                os.replace(tmp, path)
            except BaseException:
                _unlink_quietly(Path(tmp))
                raise
        except OSError:
            # A full or read-only disk must never fail an experiment.
            self.stats.errors += 1
            obs.add("cache.disk.errors")
            return
        self.stats.writes += 1
        obs.add("cache.disk.writes")
        self._evict_if_needed()

    # -- maintenance ----------------------------------------------------

    def _entries(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        for sub in self.root.iterdir():
            if sub.is_dir():
                yield from sub.glob("*.pkl")

    def entry_count(self) -> int:
        return sum(1 for _ in self._entries())

    def total_bytes(self) -> int:
        total = 0
        for path in self._entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def _evict_if_needed(self) -> None:
        if self.max_bytes is None:
            return
        entries = []
        total = 0
        for path in self._entries():
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        if total <= self.max_bytes:
            return
        for _, size, path in sorted(entries):  # oldest mtime first
            _unlink_quietly(path)
            self.stats.evictions += 1
            obs.add("cache.disk.evictions")
            total -= size
            if total <= self.max_bytes:
                break

    def clear(self) -> None:
        for path in self._entries():
            _unlink_quietly(path)


def _unlink_quietly(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


def _touch_quietly(path: Path) -> None:
    try:
        os.utime(path, None)
    except OSError:
        pass


# ----------------------------------------------------------------------
# Process-wide default instance
# ----------------------------------------------------------------------

#: Unset sentinel: the default cache is built lazily from the environment.
_UNSET = object()
_default_cache: Any = _UNSET


def default_root() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-duplexity"


def _env_max_bytes() -> int:
    raw = os.environ.get("REPRO_CACHE_MAX_BYTES")
    try:
        return int(raw) if raw else DEFAULT_MAX_BYTES
    except ValueError:
        return DEFAULT_MAX_BYTES


def get_cache() -> DiskCache | None:
    """The process-wide disk cache, or ``None`` when disabled."""
    global _default_cache
    if _default_cache is _UNSET:
        if os.environ.get("REPRO_CACHE_DISABLE") == "1":
            _default_cache = None
        else:
            _default_cache = DiskCache(default_root(), _env_max_bytes())
    return _default_cache


def configure(
    root: str | os.PathLike[str] | None = None,
    max_bytes: int | None = DEFAULT_MAX_BYTES,
    enabled: bool = True,
) -> DiskCache | None:
    """Replace the process-wide cache (CLI flags, tests, pool workers)."""
    global _default_cache
    if not enabled:
        _default_cache = None
    else:
        _default_cache = DiskCache(
            root if root is not None else default_root(), max_bytes
        )
    return _default_cache


def reset() -> None:
    """Forget any explicit configuration; re-read the environment lazily."""
    global _default_cache
    _default_cache = _UNSET


def current_config() -> dict[str, Any]:
    """The active configuration, in :func:`configure` keyword form.

    Used to replicate the parent's cache setup inside pool workers (which
    may have been configured programmatically, invisible to the child's
    environment).
    """
    active = get_cache()
    if active is None:
        return {"enabled": False}
    return {
        "root": str(active.root),
        "max_bytes": active.max_bytes,
        "enabled": True,
    }


def stats_snapshot() -> CacheStats:
    """Counters of the active cache (zeros when disabled)."""
    active = get_cache()
    return active.stats.snapshot() if active is not None else CacheStats()


__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_MAX_BYTES",
    "CacheStats",
    "DiskCache",
    "canonical_token",
    "configure",
    "current_config",
    "default_root",
    "get_cache",
    "reset",
    "source_digest",
    "stats_snapshot",
]
