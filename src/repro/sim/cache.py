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
stale once its TTL runs out, at once when its owner names a
process on this host that no longer exists (a ``kill -9``'d sweep),
and at once when it is torn (empty or unparsable: its holder died
between creating the file and writing it).
Leases are an *optimization*, never a correctness
gate: if the protocol ever double-grants under a pathological race,
both winners simulate the same deterministic cell and the atomic
``store`` keeps the cache consistent.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.durable import atomic_write_text, create_exclusive, read_bytes

#: How long a lease protects a key before other workers may reclaim
#: it. Generous relative to a cell simulation (seconds) so a healthy
#: worker never loses its claim, small enough that a crashed worker on
#: another host delays a grid by at most this. A dead holder on this
#: host is reclaimed at once (see :func:`_holder_dead`).
DEFAULT_LEASE_TTL_S = 300.0

#: ``json.loads`` minus its per-call dispatch and its bytes-encoding
#: sniff: entries are read as bytes and decoded as UTF-8 first.
_decode_json = json.JSONDecoder().decode


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
        #: ``directory`` as a string ending in a separator: an entry's
        #: path is ``prefix + key + suffix``, with no ``Path`` and no
        #: ``os.path.join`` per key.
        self._prefix = os.path.join(os.fspath(self.directory), "")
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

        A corrupt file (not UTF-8, not JSON, or not a JSON object) is
        unlinked so the next fill replaces it. An unreadable path (a
        directory, say) is a miss.
        """
        path = self._prefix + key + ".json"
        data = read_bytes(path)
        if data is None:
            return None
        try:
            payload = _decode_json(data.decode())
        except ValueError:  # UnicodeDecodeError or JSONDecodeError
            self._evict(path)
            return None
        if not isinstance(payload, dict):
            self._evict(path)
            return None
        return payload

    def store(self, key: str, payload: Dict[str, Any]) -> None:
        """Atomically publish a payload under ``key``
        (:func:`~repro.durable.atomic_write_text`)."""
        atomic_write_text(self.path_for(key), json.dumps(payload))
        self.stores += 1

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
        unlinked and the create retried once. A *torn* lease — empty
        or unparsable, left by a holder killed between its create and
        its write — is stale too. The
        unlink+create pair is not atomic, so under a pathological
        interleaving two reclaimers can both believe they won — see
        the module docstring for why that is harmless here.
        """
        clock = time.time if now is None else (lambda: now)
        path = self._lease_file(key)
        for attempt in range(2):
            if self._try_create_lease(path, owner, ttl_s, clock()):
                return True
            data = read_bytes(path)
            if data is None:
                continue  # holder released between our create and read
            holder = _parse_lease(key, data)
            if (
                holder is not None
                and not holder.expired(clock())
                and not _holder_dead(holder.owner)
            ):
                return False
            # Stale (the holder crashed or stalled past its TTL) or
            # torn. Reclaim by unlinking the file, then retry the
            # atomic create; a racing reclaimer may beat us to it.
            try:
                os.unlink(path)
                self.leases_reclaimed += 1
            except OSError:
                pass
        return self._try_create_lease(path, owner, ttl_s, clock())

    def release(self, key: str, owner: str) -> None:
        """Drop ``owner``'s lease on ``key`` (a stranger's survives)."""
        info = self.lease_info(key)
        if info is None or info.owner != owner:
            return
        try:
            os.unlink(self._lease_file(key))
        except OSError:
            pass

    def lease_info(self, key: str) -> Optional[LeaseInfo]:
        """The current lease on ``key``, or None when there is none or
        it is torn (which :meth:`lease` reclaims)."""
        data = read_bytes(self._lease_file(key))
        return None if data is None else _parse_lease(key, data)

    def _lease_file(self, key: str) -> str:
        return self._prefix + key + ".lease"

    @staticmethod
    def _try_create_lease(
        path: str, owner: str, ttl_s: float, now: float
    ) -> bool:
        return create_exclusive(
            path, json.dumps({"owner": owner, "expires_at": now + ttl_s})
        )

    def _evict(self, path: Union[str, Path]) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass  # a racing process may have replaced or removed it
        self.evictions += 1


def _parse_lease(key: str, data: bytes) -> Optional[LeaseInfo]:
    """A lease file's content as a :class:`LeaseInfo`, or None when it
    is torn: empty, not JSON, or without an owner and an expiry."""
    try:
        fields = _decode_json(data.decode())
        return LeaseInfo(
            key=key,
            owner=str(fields["owner"]),
            expires_at=float(fields["expires_at"]),
        )
    except (ValueError, KeyError, TypeError):
        return None


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
