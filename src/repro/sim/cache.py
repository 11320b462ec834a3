"""Crash-safe, multi-process-safe disk cache for simulation results.

One JSON file per (config, tracker, workload) key. Safety properties:

- **Atomic writes**: results are serialized to a temporary file in the
  cache directory and moved into place with :func:`os.replace`, so a
  crash mid-write can never leave a truncated entry, and a reader can
  never observe a half-written file.
- **Corrupt-entry eviction**: a file that fails to parse (e.g. left by
  a pre-atomic-write version of this cache, or by disk trouble) is
  unlinked on load so it is re-simulated once rather than failing
  every run.
- **Idempotent fills**: two processes racing to fill the same key both
  succeed — each writes its own temp file and the ``os.replace`` calls
  serialize arbitrarily. Simulation is deterministic, so whichever
  write lands last is byte-identical to the other.

This makes a single ``REPRO_CACHE_DIR`` safe to share between the
worker processes of one parallel sweep and between independent
benchmark invocations running concurrently.

Leases (the sweep service's in-flight markers): racing *fills* were
always safe, but they were also wasted work — two brokers (or two
workers of one broker) that both miss on a key would both simulate it.
:meth:`ResultCache.lease` adds a best-effort claim: an atomically
created ``<key>.lease`` file naming an owner and an expiry. A worker
that wins the lease simulates and stores; one that loses polls the
cache until the entry lands — or until the lease goes stale, at which
point the lease is reclaimed instead of wedging the grid. A lease is
stale once its TTL runs out, or at once when its owner names a
process on this host that no longer exists (a ``kill -9``'d sweep).
Leases are an *optimization*, never a correctness
gate: if the protocol ever double-grants under a pathological race,
both winners simulate the same deterministic cell and the atomic
``store`` keeps the cache consistent.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

#: How long a lease protects a key before other workers may reclaim
#: it. Generous relative to a cell simulation (seconds) so a healthy
#: worker never loses its claim, small enough that a crashed worker on
#: another host delays a grid by at most this. A dead holder on this
#: host is reclaimed at once (see :func:`_holder_dead`).
DEFAULT_LEASE_TTL_S = 300.0


@dataclass(frozen=True)
class LeaseInfo:
    """What a lease file records about its holder."""

    key: str
    owner: str
    expires_at: float

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


class ResultCache:
    """Directory of ``<key>.json`` payloads with atomic replacement."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        #: Corrupt entries evicted by this process (observability).
        self.evictions = 0
        #: Payloads written by this process (the service's dedup
        #: assertions count these: a grid submitted twice must fill
        #: each unique key exactly once).
        self.stores = 0
        #: Stale leases this process reclaimed from crashed holders.
        self.leases_reclaimed = 0

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the stored payload, or None on miss or corruption.

        A corrupt file is unlinked so the next fill replaces it.
        """
        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            self._evict(path)
            return None
        if not isinstance(payload, dict):
            self._evict(path)
            return None
        return payload

    def store(self, key: str, payload: Dict[str, Any]) -> None:
        """Atomically publish a payload under ``key``.

        The temp file lives in the cache directory itself so the
        ``os.replace`` is a same-filesystem rename (atomic on POSIX
        and Windows).
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{key}.", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, path)
            self.stores += 1
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Leases: best-effort in-flight markers for racing fillers
    # ------------------------------------------------------------------

    def lease_path(self, key: str) -> Path:
        return self.directory / f"{key}.lease"

    def lease(
        self,
        key: str,
        owner: str,
        ttl_s: float = DEFAULT_LEASE_TTL_S,
        now: Optional[float] = None,
    ) -> bool:
        """Try to claim ``key`` for ``owner``; True on success.

        The claim is an ``O_CREAT | O_EXCL`` file create — atomic on
        every platform the cache's ``os.replace`` already relies on.
        An existing live lease means someone else is filling the key
        (returns False); a *stale* one — expired, or held by a dead
        process on this host — is reclaimed: the stale file is
        unlinked and the create retried once. The
        unlink+create pair is not atomic, so under a pathological
        interleaving two reclaimers can both believe they won — see
        the module docstring for why that is harmless here.
        """
        clock = time.time if now is None else (lambda: now)
        self.directory.mkdir(parents=True, exist_ok=True)
        for attempt in range(2):
            if self._try_create_lease(key, owner, ttl_s, clock()):
                return True
            holder = self.lease_info(key)
            if holder is None:
                continue  # holder released between our create and read
            if not holder.expired(clock()) and not _holder_dead(holder.owner):
                return False
            # Stale: the holder crashed (or stalled past its TTL).
            # Reclaim by unlinking the stale file, then retry the
            # atomic create; a racing reclaimer may beat us to it.
            try:
                self.lease_path(key).unlink()
                self.leases_reclaimed += 1
            except OSError:
                pass
        return self._try_create_lease(key, owner, ttl_s, clock())

    def release(self, key: str, owner: str) -> None:
        """Drop ``owner``'s lease on ``key`` (a stranger's survives)."""
        info = self.lease_info(key)
        if info is None or info.owner != owner:
            return
        try:
            self.lease_path(key).unlink()
        except OSError:
            pass

    def lease_info(self, key: str) -> Optional[LeaseInfo]:
        """The current lease on ``key``, or None (corrupt = none)."""
        try:
            text = self.lease_path(key).read_text()
        except OSError:
            return None
        try:
            data = json.loads(text)
            return LeaseInfo(
                key=key,
                owner=str(data["owner"]),
                expires_at=float(data["expires_at"]),
            )
        except (ValueError, KeyError, TypeError):
            # A torn or foreign lease file: treat as absent; the
            # expiry path will clean it up.
            return None

    def _try_create_lease(
        self, key: str, owner: str, ttl_s: float, now: float
    ) -> bool:
        try:
            fd = os.open(
                self.lease_path(key),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as handle:
            json.dump({"owner": owner, "expires_at": now + ttl_s}, handle)
        return True

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass  # a racing process may have replaced or removed it
        self.evictions += 1


def _holder_dead(owner: str) -> bool:
    """True when a ``host:pid:uuid`` owner is a process of this host
    that no longer exists.

    Everything else counts as alive and waits for the TTL: a foreign
    host, an owner in another format, a pid this process may not
    signal (``PermissionError``). A reused pid also reads as alive,
    which only delays the reclaim.
    """
    parts = owner.split(":")
    if len(parts) != 3 or parts[0] != socket.gethostname():
        return False
    try:
        pid = int(parts[1])
    except ValueError:
        return False
    if pid <= 0:
        return False  # 0 and negatives address process groups
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:
        return False
    return False
