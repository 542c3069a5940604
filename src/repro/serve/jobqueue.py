"""The daemon's in-memory job queue, deduped against the content store.

One :class:`JobQueue` tracks every distinct job hash the daemon has
seen this lifetime; one :class:`SweepBook` maps sweep ids to the hash
lists their manifests pin.  The split mirrors the store's layout
(objects vs. manifests): cells are shared, sweeps are views over them.

Dedup happens at :meth:`JobQueue.offer` time, in three tiers —

1. the store already holds the object (a cache *hit*: a prior sweep,
   a prior daemon lifetime, or a warm ``run_jobs`` cache dir),
2. the hash is already tracked in-memory (*dedup*: another sweep this
   lifetime queued it, or it is running right now),
3. otherwise it is new and joins the ready deque.

So N clients submitting overlapping grids execute each overlapping
cell exactly once — the differential tests in ``tests/test_serve.py``
count ``executed`` against the number of *distinct* cells to prove it.

A settled cell keeps its metrics on its tracked entry for the daemon's
lifetime: set by :meth:`JobQueue.mark_done` after the store write, or,
for a cell found on disk, read once by the first :meth:`JobQueue.results`
that needs it.  Warm fetches never touch the store.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.serve.store import ContentStore
from repro.sweep.jobs import Job

__all__ = ["JobQueue", "SweepBook"]

#: A job whose worker died gets requeued this many times total before
#: the queue marks it failed instead of crash-looping the pool.
MAX_ATTEMPTS = 2


@dataclass
class _Tracked:
    job: Job
    state: str = "queued"  # queued | running | done | failed
    error: Optional[str] = None
    attempts: int = 0
    metrics: Optional[dict] = None  # set once done; None = not read yet


class JobQueue:
    """Hash-keyed dedup queue feeding the daemon's worker pool."""

    def __init__(self, store: ContentStore):
        self.store = store
        self._tracked: Dict[str, _Tracked] = {}
        self._ready: deque[str] = deque()
        self.executed = 0
        self.failed = 0
        self.hits = 0
        self.deduped = 0

    # -- intake ---------------------------------------------------------

    def offer(self, digest: str, job: Optional[Job]) -> str:
        """Admit one cell; returns its disposition.

        ``"hit"`` — object already in the store, nothing to do.
        ``"dedup"`` — hash already queued/running for another sweep.
        ``"done"`` / ``"failed"`` — already settled this lifetime.
        ``"queued"`` — new work, appended to the ready deque.

        ``job`` may be ``None`` only for a hash that is already tracked.
        """
        tracked = self._tracked.get(digest)
        if tracked is not None:
            if tracked.state in ("done", "failed"):
                return tracked.state
            self.deduped += 1
            return "dedup"
        if self.store.has_hash(digest):
            self.hits += 1
            self._tracked[digest] = _Tracked(job=job, state="done")
            return "hit"
        self._tracked[digest] = _Tracked(job=job)
        self._ready.append(digest)
        return "queued"

    # -- dispatch -------------------------------------------------------

    def next_ready(self) -> Optional[tuple[str, Job]]:
        if not self._ready:
            return None
        digest = self._ready.popleft()
        tracked = self._tracked[digest]
        tracked.state = "running"
        tracked.attempts += 1
        return digest, tracked.job

    def mark_done(self, digest: str, metrics: dict) -> None:
        """Persist the object, then flip the state — store first, so a
        kill between the two can only lose bookkeeping, never results."""
        self.store.put_hash(digest, metrics)
        tracked = self._tracked[digest]
        tracked.state = "done"
        tracked.metrics = metrics
        self.executed += 1

    def mark_failed(self, digest: str, error: str) -> None:
        tracked = self._tracked[digest]
        tracked.state = "failed"
        tracked.error = error
        self.failed += 1

    def requeue(self, digest: str, *, reason: str) -> None:
        """A worker died holding this job; retry or give up."""
        tracked = self._tracked[digest]
        if tracked.attempts >= MAX_ATTEMPTS:
            self.mark_failed(digest, f"{reason} ({tracked.attempts} attempts)")
            return
        tracked.state = "queued"
        self._ready.appendleft(digest)

    # -- queries --------------------------------------------------------

    def state_of(self, digest: str) -> Optional[str]:
        tracked = self._tracked.get(digest)
        return None if tracked is None else tracked.state

    def error_of(self, digest: str) -> Optional[str]:
        tracked = self._tracked.get(digest)
        return None if tracked is None else tracked.error

    def results(self, hashes: Iterable[str]) -> Optional[list[dict]]:
        """Metrics of done cells in order, or ``None`` if an object is
        missing from the store.  A cell not yet in memory is read from
        the store once and kept."""
        out = []
        for digest in hashes:
            tracked = self._tracked[digest]
            if tracked.metrics is None:
                tracked.metrics = self.store.get_hash(digest)
                if tracked.metrics is None:
                    return None
            out.append(tracked.metrics)
        return out

    @property
    def depth(self) -> int:
        return len(self._ready)


@dataclass
class _SweepEntry:
    name: str
    hashes: tuple[str, ...]
    spec_payload: dict = field(default_factory=dict)


class SweepBook:
    """Sweep-id -> ordered job hashes; per-sweep progress roll-ups."""

    def __init__(self) -> None:
        self._sweeps: Dict[str, _SweepEntry] = {}

    def register(
        self, sweep_id: str, name: str, hashes: list[str], spec_payload: dict
    ) -> None:
        self._sweeps[sweep_id] = _SweepEntry(
            name=name, hashes=tuple(hashes), spec_payload=dict(spec_payload)
        )

    def known(self, sweep_id: str) -> bool:
        return sweep_id in self._sweeps

    def ids(self) -> list[str]:
        return sorted(self._sweeps)

    def name_of(self, sweep_id: str) -> str:
        return self._sweeps[sweep_id].name

    def hashes_of(self, sweep_id: str) -> list[str]:
        return list(self._sweeps[sweep_id].hashes)

    def spec_payload_of(self, sweep_id: str) -> dict:
        return dict(self._sweeps[sweep_id].spec_payload)

    def counts(self, sweep_id: str, queue: JobQueue) -> dict:
        """Queued/running/done/failed tally over the sweep's cells (all
        tracked: a sweep's cells are offered as it is registered)."""
        entry = self._sweeps[sweep_id]
        tally = {"queued": 0, "running": 0, "done": 0, "failed": 0}
        errors = []
        for digest in entry.hashes:
            state = queue.state_of(digest)
            tally[state] += 1
            if state == "failed":
                error = queue.error_of(digest)
                if error and error not in errors:
                    errors.append(error)
        tally["total"] = len(entry.hashes)
        if errors:
            tally["errors"] = errors
        return tally

    def first_unsettled(
        self, sweep_id: str, queue: JobQueue, start: int = 0
    ) -> Optional[int]:
        """Index of the first queued or running cell at or after
        ``start``, or ``None`` once the sweep is settled from there on.

        A cell never leaves done or failed (a requeue moves it from
        running back to queued, both unsettled), so a waiter can keep
        the returned index as its cursor and scan each cell once.
        """
        hashes = self._sweeps[sweep_id].hashes
        for index in range(start, len(hashes)):
            if queue.state_of(hashes[index]) in ("queued", "running"):
                return index
        return None
