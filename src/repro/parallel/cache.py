"""Content-addressed on-disk cache: the sweep engine's shared store.

A cached entry is keyed by the *task spec* (callable path + canonical
JSON of its keyword arguments) and a *code fingerprint* (a hash of
every ``.py`` file in the installed ``repro`` package).  Editing any
source file therefore invalidates the whole cache — the conservative
choice, since a change to the event loop or a congestion controller
can perturb any simulation output.

Runners may share one directory (one ``REPRO_CACHE_DIR`` on shared
storage) with no locking, because:

* writes are atomic — payload to a tempfile in the destination
  directory, ``fsync``, then ``os.replace`` — so a reader can never
  observe a torn entry, and a crashed writer leaves at most a
  ``.tmp`` orphan that ``gc()`` sweeps up;
* reads are checksummed, so a damaged entry is a miss, never a
  wrong answer;
* every result is deterministic, so two runners that compute one key
  write the same value — a duplicate computation costs time, not
  correctness, and there is no lock to wait on or to strand.

``python -m repro.parallel cache stats|gc|clear`` administers the
store from the command line.

Environment knobs:

``REPRO_CACHE_DIR``
    Cache directory (default ``~/.cache/repro-sweep``).
``REPRO_CACHE``
    Set to ``0``/``false``/``no``/``off`` to disable caching entirely.
"""

import dataclasses
import functools
import hashlib
import json
import os
import pickle
import tempfile
import time
import warnings
from typing import Any, Dict, Optional, Tuple

from repro.core import env
from repro.core.errors import ConfigurationError

__all__ = ["ResultCache", "cache_enabled_by_env", "canonical_spec",
           "code_fingerprint", "default_cache_dir", "spec_key"]


def default_cache_dir() -> str:
    """The cache directory honouring ``REPRO_CACHE_DIR``."""
    return env.text(env.CACHE_DIR) or os.path.join(
        os.path.expanduser("~"), ".cache", "repro-sweep")


def cache_enabled_by_env() -> bool:
    """False when ``REPRO_CACHE`` disables caching."""
    return env.flag(env.CACHE, True)


_SCALARS = frozenset((bool, int, float, str))


def canonical_spec(obj: Any) -> Any:
    """Reduce ``obj`` to a canonical JSON-serialisable structure.

    Objects exposing a ``canonical_dict()`` (the workload spec types)
    are asked for their own canonical form, tagged with their type so
    two spec kinds can never collide.  Other dataclasses become tagged
    dicts (so two specs differing only in dataclass type hash
    differently); dict keys are sorted by ``json.dumps``; tuples and
    lists coincide (both are JSON arrays).  Anything else that JSON
    cannot express raises ``TypeError`` — task kwargs must stay
    declarative and picklable anyway.
    """
    # Almost every call lands on a leaf or a plain container: settle
    # those by exact type before probing for the spec protocols.  The
    # isinstance tests further down still catch their subclasses.
    kind = type(obj)
    if obj is None or kind in _SCALARS:
        return obj
    if kind is dict:
        return {str(key): canonical_spec(value) for key, value in obj.items()}
    if kind is list or kind is tuple:
        return [canonical_spec(item) for item in obj]
    if not isinstance(obj, type) and hasattr(obj, "canonical_dict"):
        spec = canonical_spec(obj.canonical_dict())
        spec["__spec__"] = f"{type(obj).__module__}.{type(obj).__qualname__}"
        return spec
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        spec = {
            field.name: canonical_spec(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
        spec["__dataclass__"] = f"{type(obj).__module__}.{type(obj).__qualname__}"
        return spec
    if isinstance(obj, dict):
        return {str(key): canonical_spec(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical_spec(item) for item in obj]
    if isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(
        f"task kwargs must be JSON/dataclass-representable, got {type(obj)!r}"
    )


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every ``.py`` file under the ``repro`` package.

    Computed once per process; any source edit yields a new
    fingerprint and hence a cold cache.
    """
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    entries = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, "rb") as handle:
                file_hash = hashlib.sha256(handle.read()).hexdigest()
            entries.append((os.path.relpath(path, root), file_hash))
    for relpath, file_hash in entries:
        digest.update(relpath.encode())
        digest.update(file_hash.encode())
    return digest.hexdigest()


def spec_hash(fn: str, kwargs: dict) -> str:
    """Fingerprint-free identity of one task; canonicalises its kwargs.

    Taken at most once per task per sweep: the manifest carries it and
    the cache address derives from it (:meth:`ResultCache.key_of`).  A
    sweep without a cache takes it only when a manifest's ``spec_hash``
    is read.
    """
    payload = json.dumps(
        {"fn": fn, "kwargs": canonical_spec(kwargs)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _address(identity: str, fingerprint: str) -> str:
    return hashlib.sha256(f"{identity}.{fingerprint}".encode()).hexdigest()


def spec_key(fn: str, kwargs: dict, fingerprint: Optional[str] = None) -> str:
    """The content address of one task result."""
    if fingerprint is None:
        fingerprint = code_fingerprint()
    return _address(spec_hash(fn, kwargs), fingerprint)


#: Entry header: magic + sha256(payload).  The digest makes corruption
#: (truncation, bit rot, partial writes from a killed process) a
#: *detected* condition rather than a pickle parse lottery.
_ENTRY_MAGIC = b"RSC1"
_DIGEST_BYTES = hashlib.sha256().digest_size
_HEADER_BYTES = len(_ENTRY_MAGIC) + _DIGEST_BYTES

#: Files no entry owns: a crashed writer's ``.tmp``, and the per-key
#: ``.lock`` that older versions of this store took before computing.
_ORPHANS = (".tmp", ".lock")

_corruption_warned = False


def _warn_corruption_once(path: str, reason: str) -> None:
    """Warn about the first corrupt entry seen this process.

    One warning, not one per entry: a damaged cache directory can hold
    thousands of bad files and the sweep recomputes them all anyway.
    """
    global _corruption_warned
    if _corruption_warned:
        return
    _corruption_warned = True
    warnings.warn(
        f"sweep cache entry {path} is corrupt ({reason}); recomputing "
        f"(further corrupt entries will be recomputed silently)",
        RuntimeWarning,
        stacklevel=4,
    )


class ResultCache:
    """Pickle-on-disk store addressed by :func:`spec_key` hashes.

    Filesystem failures (read-only home, corrupt entries) degrade to
    cache misses rather than errors: the sweep must never fail because
    of its cache.  Entries are checksummed (sha256 over the pickle
    payload) so truncated or bit-flipped files are detected and
    recomputed — with a single process-wide warning — instead of
    surfacing as ``EOFError``/``UnpicklingError`` or, worse, silently
    deserializing garbage.
    """

    def __init__(self, root: Optional[str] = None,
                 fingerprint: Optional[str] = None) -> None:
        self.root = root if root is not None else default_cache_dir()
        self._fingerprint = fingerprint

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = code_fingerprint()
        return self._fingerprint

    def key_for(self, fn: str, kwargs: dict) -> str:
        return self.key_of(spec_hash(fn, kwargs))

    def key_of(self, identity: str) -> str:
        """The address of the task whose :func:`spec_hash` is ``identity``."""
        return _address(identity, self.fingerprint)

    def _path(self, key: str) -> str:
        # Two-level fan-out keeps directory listings manageable.
        return os.path.join(self.root, key[:2], key + ".pkl")

    def get(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; a miss is ``(False, None)``.

        A missing file is a silent miss; a *present but damaged* file
        (bad magic, checksum mismatch, unpicklable payload) is also a
        miss, but warns once per process so an ailing disk does not go
        unnoticed.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return False, None
        if len(blob) < _HEADER_BYTES or not blob.startswith(_ENTRY_MAGIC):
            _warn_corruption_once(path, "bad or missing header")
            return False, None
        digest = blob[len(_ENTRY_MAGIC):_HEADER_BYTES]
        payload = blob[_HEADER_BYTES:]
        if hashlib.sha256(payload).digest() != digest:
            _warn_corruption_once(path, "checksum mismatch")
            return False, None
        try:
            return True, pickle.loads(payload)
        except Exception:
            # Checksum passed but the payload does not deserialize in
            # this process (e.g. a class moved between versions with
            # the same fingerprint override): still just a miss.
            _warn_corruption_once(path, "unpicklable payload")
            return False, None

    def put(self, key: str, value: Any) -> bool:
        """Store ``value`` atomically; returns whether it was written.

        The payload goes to a tempfile *in the destination directory*
        (same filesystem, so the final ``os.replace`` is atomic), is
        ``fsync``\\ ed, and only then renamed into place.  A process
        killed mid-``put`` therefore leaves either the old state or
        the complete new entry — never a torn file — and a crash
        before the rename leaves only a ``.tmp`` orphan that
        :meth:`gc` removes.
        """
        path = self._path(key)
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            blob = _ENTRY_MAGIC + hashlib.sha256(payload).digest() + payload
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PickleError):
            return False
        return True

    # ------------------------------------------------------------------
    # Administration (python -m repro.parallel cache ...)
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Counts and sizes of the store's current contents."""
        entries = 0
        total_bytes = 0
        orphan_tmp = 0
        oldest: Optional[float] = None
        newest: Optional[float] = None
        for path in self._walk():
            if path.endswith(".pkl"):
                try:
                    info = os.stat(path)
                except OSError:
                    continue
                entries += 1
                total_bytes += info.st_size
                mtime = info.st_mtime
                # An mtime of 0 (an archive restored with normalised
                # times) is an entry, not "none seen yet".
                oldest = mtime if oldest is None else min(oldest, mtime)
                newest = mtime if newest is None else max(newest, mtime)
            elif path.endswith(_ORPHANS):
                orphan_tmp += 1
        now = time.time()
        return {
            "root": self.root,
            "entries": entries,
            "total_bytes": total_bytes,
            "orphan_tmp": orphan_tmp,
            "oldest_age_s": None if oldest is None else round(now - oldest, 1),
            "newest_age_s": None if newest is None else round(now - newest, 1),
        }

    def gc(self, max_age_s: Optional[float] = None) -> Dict[str, int]:
        """Collect garbage: orphan files, then (optionally) old entries.

        An orphan (see ``_ORPHANS``) goes once it is a minute old: by
        then it is a crashed writer's tempfile, not a ``put`` in
        progress.  ``max_age_s`` additionally removes entries not
        modified within that window (``None`` keeps all entries).
        Fresh files are never touched, so gc is safe to run while
        sweeps are in flight; a negative or non-finite window is a
        :class:`ConfigurationError`, not "everything is stale".
        """
        if max_age_s is not None and not 0.0 <= max_age_s < float("inf"):
            raise ConfigurationError(
                f"max_age_s must be a finite number >= 0: {max_age_s}"
            )
        removed = {"entries": 0, "tmp": 0}
        now = time.time()
        for path in self._walk():
            try:
                if path.endswith(_ORPHANS):
                    if now - os.path.getmtime(path) > 60.0:
                        os.unlink(path)
                        removed["tmp"] += 1
                elif path.endswith(".pkl") and max_age_s is not None:
                    if now - os.path.getmtime(path) > max_age_s:
                        os.unlink(path)
                        removed["entries"] += 1
            except OSError:
                continue
        return removed

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        for path in self._walk():
            if path.endswith(".pkl"):
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    pass
        return removed

    def _walk(self):
        if not os.path.isdir(self.root):
            return
        for dirpath, _, filenames in os.walk(self.root):
            for filename in filenames:
                yield os.path.join(dirpath, filename)
