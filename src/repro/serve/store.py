"""Content-addressed result store with per-sweep manifests.

:class:`ContentStore` generalizes :class:`repro.sweep.runner.ResultCache`
— the same ``<sha256>.json`` object files under ``objects/``, the same
atomic writes — and adds a ``sweeps/`` directory of manifests.  A
manifest records the spec a client submitted plus the full ordered list
of its job hashes, so the store alone answers "which cells of this
sweep exist yet?"  That is the whole resume story: a restarted daemon
scans the manifests, re-expands each spec, and re-enqueues exactly the
hashes with no object file.  Because objects are keyed by content hash,
overlapping sweeps from different clients dedup at the cell level for
free — the second submission of a cell finds the object (or the queued
job) already there.

Layout under the store root::

    objects/<job_hash>.json   one metrics dict per completed job
    sweeps/<sweep_id>.json    manifest: spec + ordered job hashes
    serve.json                daemon endpoint advert (while one runs)
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterator, Optional

from repro.sweep.jobs import CACHE_VERSION, job_hash
from repro.sweep.runner import ResultCache
from repro.sweep.spec import SweepSpec

__all__ = ["ContentStore", "hashes_for", "sweep_id_for"]

ENDPOINT_FILE = "serve.json"


def sweep_id_for(spec: SweepSpec) -> str:
    """Stable id of a sweep: content hash of its spec.

    Folds in ``CACHE_VERSION`` the same way :func:`job_hash` does, so a
    version bump retires manifests together with the objects they index.
    Two clients submitting equal specs get the same id — and therefore
    the same manifest, status, and results.
    """
    canonical = json.dumps(
        {"spec": json.loads(spec.to_json()), "v": CACHE_VERSION},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class ContentStore(ResultCache):
    """A :class:`ResultCache` of job objects plus sweep manifests."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        super().__init__(self.root / "objects")
        self.sweep_dir = self.root / "sweeps"
        self.sweep_dir.mkdir(parents=True, exist_ok=True)

    # -- manifests ------------------------------------------------------

    def manifest_path(self, sweep_id: str) -> Path:
        return self.sweep_dir / f"{sweep_id}.json"

    def write_manifest(self, spec: SweepSpec, hashes: list[str]) -> str:
        """Persist the sweep's identity *before* any cell runs.

        Written atomically, like objects, so a daemon killed mid-write
        leaves either a complete manifest or a ``.tmp`` orphan —
        never a torn file that a resume scan would trust.
        """
        sweep_id = sweep_id_for(spec)
        manifest = {
            "sweep": sweep_id,
            "name": spec.name,
            "cache_version": CACHE_VERSION,
            "spec": json.loads(spec.to_json()),
            "jobs": list(hashes),
        }
        path = self.manifest_path(sweep_id)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(manifest, sort_keys=True, indent=2))
        tmp.replace(path)
        return sweep_id

    def read_manifest(self, sweep_id: str) -> Optional[dict]:
        path = self.manifest_path(sweep_id)
        if not path.exists():
            return None
        try:
            manifest = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if manifest.get("cache_version") != CACHE_VERSION:
            # Stale-version manifest: its objects are unreachable under
            # the current hash scheme, so resuming it would re-run
            # everything under ids that no longer match; skip it.
            return None
        return manifest

    def manifests(self) -> Iterator[dict]:
        """Every readable current-version manifest, in sweep-id order."""
        for path in sorted(self.sweep_dir.glob("*.json")):
            manifest = self.read_manifest(path.stem)
            if manifest is not None:
                yield manifest

    # -- daemon endpoint advert -----------------------------------------

    @property
    def endpoint_path(self) -> Path:
        return self.root / ENDPOINT_FILE

    def write_endpoint(self, host: str, port: int, *, workers: int) -> None:
        payload = {"host": host, "port": port, "pid": os.getpid(),
                   "workers": workers}
        tmp = self.endpoint_path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        tmp.replace(self.endpoint_path)

    def read_endpoint(self) -> Optional[dict]:
        try:
            return json.loads(self.endpoint_path.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def clear_endpoint(self) -> None:
        try:
            self.endpoint_path.unlink()
        except OSError:
            pass


def hashes_for(jobs) -> list[str]:
    """Job hashes in job order — the manifest's ``jobs`` field."""
    return [job_hash(job) for job in jobs]
