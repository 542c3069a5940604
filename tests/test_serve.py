"""The sweep service: store/queue units, differential battery, crash/resume.

Three tiers, mirroring the repo's strongest pattern (the engine
trace-equivalence harness): fast in-process unit tests of the
content-addressed store and the dedup queue; ``serve``-marked
integration tests that run the real daemon as a subprocess and prove
the **differential contract** — any spec submitted through the daemon,
by 1, 2, or 4 concurrent clients, yields metrics bit-identical to an
in-process :func:`~repro.sweep.runner.run_jobs` call, with each
overlapping cell executed exactly once; and the **crash/resume
contract** — a SIGKILLed daemon leaves clients with a prompt named
error (<3s, the ``test_rt_router.py`` bound) and a store from which a
restarted daemon completes the sweep re-executing only missing cells.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ServeError
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeDaemon
from repro.serve.jobqueue import JobQueue, SweepBook
from repro.serve.protocol import FrameBuffer, recv_frame, send_frame
from repro.serve.store import ContentStore, hashes_for, sweep_id_for
from repro.sweep.jobs import job_hash
from repro.sweep.runner import run_jobs
from repro.sweep.spec import SweepSpec

SRC = Path(__file__).resolve().parent.parent / "src"


def small_spec(name="unit", topologies=("line:5",), seeds=(0, 1), **kw):
    kw.setdefault("duration", 8.0)
    return SweepSpec(
        name=name, topologies=topologies, algorithms=("max-based",),
        seeds=seeds, **kw,
    )


# ----------------------------------------------------------------------
# fast in-process units: store, queue, book


class TestContentStore:
    def test_generalizes_result_cache(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        spec = small_spec()
        job = spec.jobs()[0]
        digest = job_hash(job)
        assert not store.has_hash(digest)
        store.put(job, {"x": 1.5})
        assert store.has_hash(digest)
        assert store.get(job) == {"x": 1.5}
        assert store.get_hash(digest) == {"x": 1.5}
        # Objects live under objects/, content-addressed.
        assert (tmp_path / "store" / "objects" / f"{digest}.json").exists()

    def test_sweep_id_is_content_addressed(self):
        assert sweep_id_for(small_spec()) == sweep_id_for(small_spec())
        assert sweep_id_for(small_spec()) != sweep_id_for(
            small_spec(seeds=(0, 1, 2))
        )
        # The name is part of the spec, hence of the identity.
        assert sweep_id_for(small_spec()) != sweep_id_for(
            small_spec(name="other")
        )

    def test_manifest_roundtrip_and_missing(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        spec = small_spec()
        jobs = spec.jobs()
        hashes = hashes_for(jobs)
        sweep_id = store.write_manifest(spec, hashes)
        manifest = store.read_manifest(sweep_id)
        assert manifest["jobs"] == hashes
        assert SweepSpec.from_dict(manifest["spec"]) == spec
        # Cells with an object are hits; the missing ones queue, in order.
        store.put_hash(hashes[0], {"m": 1})
        queue = JobQueue(store)
        dispositions = [queue.offer(d, j) for d, j in zip(hashes, jobs)]
        assert dispositions == ["hit"] + ["queued"] * (len(hashes) - 1)
        assert queue.results(hashes[:1]) == [{"m": 1}]
        assert queue.results(hashes) is None  # an object is missing
        for digest in hashes[1:]:
            store.put_hash(digest, {"m": 2})
        assert queue.results(hashes) == [{"m": 1}] + [{"m": 2}] * (
            len(hashes) - 1
        )

    def test_torn_manifest_is_ignored(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        (store.sweep_dir / "deadbeef.json").write_text('{"sweep": "dead')
        assert store.read_manifest("deadbeef") is None
        assert list(store.manifests()) == []


class TestJobQueue:
    def test_offer_dedups_in_three_tiers(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        queue = JobQueue(store)
        spec = small_spec()
        jobs = spec.jobs()
        hashes = hashes_for(jobs)
        # Tier 1: object already on disk -> hit, never queued.
        store.put_hash(hashes[0], {"m": 0})
        assert queue.offer(hashes[0], jobs[0]) == "hit"
        # New work queues; a second sweep offering the same cell dedups.
        assert queue.offer(hashes[1], jobs[1]) == "queued"
        assert queue.offer(hashes[1], jobs[1]) == "dedup"
        assert queue.depth == 1
        # Running still dedups; done reports done.
        digest, job = queue.next_ready()
        assert digest == hashes[1]
        assert queue.offer(hashes[1], jobs[1]) == "dedup"
        queue.mark_done(digest, {"m": 1})
        assert queue.offer(hashes[1], jobs[1]) == "done"
        assert store.get_hash(hashes[1]) == {"m": 1}
        assert (queue.hits, queue.deduped, queue.executed) == (1, 2, 1)

    def test_requeue_caps_attempts_then_fails(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        queue = JobQueue(store)
        spec = small_spec(seeds=(0,))
        job = spec.jobs()[0]
        digest = job_hash(job)
        queue.offer(digest, job)
        queue.next_ready()  # attempt 1
        queue.requeue(digest, reason="worker died")
        assert queue.state_of(digest) == "queued"
        queue.next_ready()  # attempt 2 == MAX_ATTEMPTS
        queue.requeue(digest, reason="worker died")
        assert queue.state_of(digest) == "failed"
        assert "worker died" in queue.error_of(digest)
        assert queue.failed == 1

    def test_book_counts_and_settlement(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        queue = JobQueue(store)
        book = SweepBook()
        spec = small_spec()
        jobs = spec.jobs()
        hashes = hashes_for(jobs)
        sweep_id = sweep_id_for(spec)
        book.register(sweep_id, spec.name, hashes, json.loads(spec.to_json()))
        for digest, job in zip(hashes, jobs):
            queue.offer(digest, job)
        assert book.counts(sweep_id, queue)["queued"] == len(jobs)
        assert book.first_unsettled(sweep_id, queue) == 0
        while True:
            item = queue.next_ready()
            if item is None:
                break
            queue.mark_done(item[0], {"m": 1})
        assert book.first_unsettled(sweep_id, queue) is None
        counts = book.counts(sweep_id, queue)
        assert counts["done"] == counts["total"] == len(jobs)

    def test_results_are_read_from_the_store_once(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        queue = JobQueue(store)
        jobs = small_spec(seeds=(0, 1, 2)).jobs()
        hashes = hashes_for(jobs)
        store.put_hash(hashes[0], {"m": 0})  # found on disk: a hit
        for digest, job in zip(hashes, jobs):
            queue.offer(digest, job)
        while (item := queue.next_ready()) is not None:
            queue.mark_done(item[0], {"m": hashes.index(item[0])})
        # Executed cells are served from memory; the hit is read once.
        expected = [{"m": 0}, {"m": 1}, {"m": 2}]
        assert queue.results(hashes) == expected
        assert (store.hits, store.misses) == (1, 0)
        assert queue.results(hashes) == expected
        assert (store.hits, store.misses) == (1, 0)

    def test_waiter_cursor_scans_each_cell_once(self, tmp_path, monkeypatch):
        # One waiter on an N-cell sweep, one flush per settled cell: the
        # waiter's cursor keeps the settle checks O(N), not O(N^2).
        n = 200
        daemon = ServeDaemon(tmp_path / "store", workers=1)
        ours, theirs = socket.socketpair()
        try:
            spec = small_spec(seeds=tuple(range(n)))
            receipt = daemon._handle_submit(
                {"spec": json.loads(spec.to_json())}
            )
            assert receipt["queued"] == n
            sweep = receipt["sweep"]
            assert daemon._handle_wait(ours, {"sweep": sweep}) is None
            calls = 0
            state_of = daemon.queue.state_of

            def counting_state_of(digest):
                nonlocal calls
                calls += 1
                return state_of(digest)

            monkeypatch.setattr(daemon.queue, "state_of", counting_state_of)
            while (item := daemon.queue.next_ready()) is not None:
                daemon.queue.mark_done(item[0], {"m": 1})
                daemon._flush_waiters()
            assert calls <= 3 * n
            assert daemon._waiters == []
            theirs.settimeout(5)
            reply = recv_frame(theirs, FrameBuffer(), peer="daemon")
            assert reply["counts"]["done"] == n
        finally:
            ours.close()
            theirs.close()
            daemon._selector.close()


class TestKnownSweepSubmit:
    """The in-memory resubmit path against the expand-and-hash path."""

    @staticmethod
    def submit(daemon, spec):
        reply = daemon._handle_submit({"spec": json.loads(spec.to_json())})
        assert reply["ok"], reply
        return reply

    def test_receipt_equals_the_expanding_path_in_any_state(self, tmp_path):
        daemon = ServeDaemon(tmp_path / "store", workers=1)
        try:
            spec = small_spec(seeds=(0, 1, 2, 3, 4))
            hashes = hashes_for(spec.jobs())
            # One cell already on disk (hit), then one done, one failed,
            # one running and one still queued.
            daemon.store.put_hash(hashes[0], {"m": 0})
            self.submit(daemon, spec)
            queue = daemon.queue
            queue.mark_done(queue.next_ready()[0], {"m": 1})
            queue.mark_failed(queue.next_ready()[0], "boom")
            queue.next_ready()
            known = self.submit(daemon, spec)
            stats = (queue.hits, queue.deduped)
            # Same state, slow path: drop the manifest to force it.
            daemon.store.manifest_path(known["sweep"]).unlink()
            expanded = self.submit(daemon, spec)
            assert known == expanded
            assert (known["hits"], known["deduped"], known["queued"]) == (
                2, 2, 0,
            )
            # Both paths move the dedup counter alike.
            assert (queue.hits, queue.deduped) == (stats[0], stats[1] + 2)
        finally:
            daemon._selector.close()

    def test_known_sweep_skips_expansion_until_manifest_removed(
        self, tmp_path, monkeypatch
    ):
        daemon = ServeDaemon(tmp_path / "store", workers=1)
        expansions = 0
        jobs = SweepSpec.jobs

        def counting_jobs(spec):
            nonlocal expansions
            expansions += 1
            return jobs(spec)

        monkeypatch.setattr(SweepSpec, "jobs", counting_jobs)
        try:
            spec = small_spec()
            sweep = self.submit(daemon, spec)["sweep"]
            path = daemon.store.manifest_path(sweep)
            before = path.stat()
            self.submit(daemon, spec)
            after = path.stat()
            assert expansions == 1
            assert (after.st_ino, after.st_mtime_ns) == (
                before.st_ino, before.st_mtime_ns,
            )
            path.unlink()
            self.submit(daemon, spec)
            assert expansions == 2
            assert daemon.store.read_manifest(sweep)["jobs"] == hashes_for(
                jobs(spec)
            )
        finally:
            daemon._selector.close()


# ----------------------------------------------------------------------
# the real daemon, as a subprocess


def start_daemon(store: Path, *, workers: int = 2) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve", "start",
            "--store", str(store), "--workers", str(workers),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


@pytest.fixture()
def daemon(tmp_path):
    """A live daemon over a fresh store; killed at teardown if needed."""
    store = tmp_path / "store"
    proc = start_daemon(store)
    try:
        yield store, proc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)


@pytest.mark.serve
class TestServeDifferential:
    """Served metrics are bit-identical to in-process run_jobs."""

    def test_single_client_roundtrip_matches_run_jobs(self, daemon):
        store, _proc = daemon
        spec = small_spec(name="single", seeds=(0, 1, 2))
        with ServeClient(store=store) as client:
            receipt = client.submit(spec)
            assert receipt["total"] == 3
            final = client.wait(receipt["sweep"], timeout=120)
            assert final["counts"]["done"] == 3
            served = client.fetch(receipt["sweep"])
        expected = [o.metrics for o in run_jobs(spec.jobs(), workers=1)]
        assert served == expected

    @pytest.mark.parametrize("n_clients", [2, 4])
    def test_concurrent_overlapping_clients(self, daemon, n_clients):
        store, _proc = daemon
        # Ring-overlapping grids: client k shares its second topology
        # with client k+1's first, so every cell but the endpoints is
        # submitted by two clients concurrently.
        pool = ["line:5", "ring:6", "grid:3,3", "line:6", "ring:7"]
        specs = [
            small_spec(
                name=f"client{k}",
                topologies=(pool[k], pool[k + 1]),
                seeds=(0, 1),
            )
            for k in range(n_clients)
        ]
        served: dict[int, list] = {}
        errors: list[BaseException] = []

        def submit_and_fetch(k: int) -> None:
            try:
                with ServeClient(store=store) as client:
                    receipt = client.submit(specs[k])
                    client.wait(receipt["sweep"], timeout=120)
                    served[k] = client.fetch(receipt["sweep"])
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=submit_and_fetch, args=(k,))
            for k in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
        assert not errors, errors

        # Bit-identical to one in-process run_jobs call per spec.
        for k, spec in enumerate(specs):
            expected = [o.metrics for o in run_jobs(spec.jobs(), workers=1)]
            assert served[k] == expected

        distinct = {
            digest for spec in specs for digest in hashes_for(spec.jobs())
        }
        with ServeClient(store=store) as client:
            stats = client.stats()
        # The dedup proof: overlapping cells executed exactly once.
        assert stats["executed"] == len(distinct)
        assert stats["failed"] == 0
        objects = list((store / "objects").glob("*.json"))
        assert len(objects) == len(distinct)

    def test_resubmission_is_all_hits(self, daemon):
        store, _proc = daemon
        spec = small_spec(name="twice")
        with ServeClient(store=store) as client:
            first = client.submit(spec)
            client.wait(first["sweep"], timeout=120)
            again = client.submit(spec)
            assert again["sweep"] == first["sweep"]
            assert again["hits"] == again["total"]
            assert again["queued"] == 0
            stats = client.stats()
        assert stats["executed"] == first["total"]

    def test_warm_rounds_touch_no_store_object_or_manifest(self, daemon):
        store, _proc = daemon
        spec = small_spec(name="warm", seeds=(0, 1, 2))
        expected = [o.metrics for o in run_jobs(spec.jobs(), workers=1)]
        with ServeClient(store=store) as client:
            sweep = client.submit(spec)["sweep"]
            client.wait(sweep, timeout=120)
            assert client.fetch(sweep) == expected
            reads = client.stats()["object_reads"]
            manifest = store / "sweeps" / f"{sweep}.json"
            before = manifest.stat()
            for _ in range(5):
                receipt = client.submit(spec)
                assert receipt["queued"] == 0
                assert client.fetch(receipt["sweep"]) == expected
            after = manifest.stat()
            assert client.stats()["object_reads"] == reads
        assert (after.st_ino, after.st_mtime_ns) == (
            before.st_ino, before.st_mtime_ns,
        )

    def test_restart_reads_resumed_cells_lazily_once(self, tmp_path):
        store = tmp_path / "store"
        spec = small_spec(name="restart", seeds=(0, 1, 2))
        receipts, fetched, reads = [], [], []
        for _lifetime in range(2):
            proc = start_daemon(store)
            try:
                with ServeClient(store=store) as client:
                    receipt = client.submit(spec)
                    client.wait(receipt["sweep"], timeout=120)
                    receipts += [receipt, client.submit(spec)]
                    reads.append(client.stats()["object_reads"])
                    fetched.append(client.fetch(receipt["sweep"]))
                    reads.append(client.stats()["object_reads"])
                    fetched.append(client.fetch(receipt["sweep"]))
                    reads.append(client.stats()["object_reads"])
                    client.shutdown()
                assert proc.wait(timeout=10) == 0
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
        # The resubmitted receipt is the one a fresh daemon gives.
        assert receipts[0]["queued"] == 3
        keys = ("sweep", "total", "hits", "deduped", "queued", "counts")
        assert [{k: r[k] for k in keys} for r in receipts[1:]] == [
            {k: receipts[1][k] for k in keys}
        ] * 3
        assert receipts[1]["hits"] == receipts[1]["total"] == 3
        # First lifetime executed in memory; the second read each
        # resumed cell from disk once, on its first fetch only.
        assert reads == [0, 0, 0, 0, 3, 3]
        expected = [o.metrics for o in run_jobs(spec.jobs(), workers=1)]
        assert fetched == [expected] * 4


@pytest.mark.serve
class TestServeCrashResume:
    def test_sigkill_mid_sweep_then_resume_executes_only_missing(
        self, tmp_path
    ):
        store = tmp_path / "store"
        # ~6 multi-second cells at one worker: the kill lands mid-sweep.
        spec = small_spec(
            name="resume", topologies=("line:9",),
            seeds=(0, 1, 2, 3, 4, 5), duration=1200.0,
        )
        total = len(spec.jobs())
        proc = start_daemon(store, workers=1)
        try:
            with ServeClient(store=store) as client:
                sweep = client.submit(spec)["sweep"]
                while True:
                    counts = client.status(sweep)["counts"]
                    if counts["done"] >= 1:
                        break
                    time.sleep(0.03)
                assert counts["queued"] + counts["running"] >= 2

                # A client blocked on the daemon must fail promptly and
                # by name when the daemon is SIGKILLed — not hang.
                box: dict = {}

                def blocked_wait() -> None:
                    with ServeClient(store=store, timeout=30) as waiter:
                        begin = time.perf_counter()
                        try:
                            waiter.wait(sweep, timeout=30)
                        except ServeError as exc:
                            box["error"] = str(exc)
                        box["elapsed"] = time.perf_counter() - begin

                thread = threading.Thread(target=blocked_wait)
                thread.start()
                time.sleep(0.1)
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait(timeout=10)
                thread.join(timeout=5)
                assert box["elapsed"] < 3.0
                assert "repro-serve daemon" in box["error"]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

        survivors = len(list((store / "objects").glob("*.json")))
        assert 1 <= survivors < total

        proc2 = start_daemon(store, workers=1)
        try:
            with ServeClient(store=store) as client:
                final = client.wait(sweep, timeout=180)
                assert final["counts"]["done"] == total
                stats = client.stats()
                # Only the missing cells were re-executed.
                assert stats["resumed"] == survivors
                assert stats["executed"] == total - survivors
                served = client.fetch(sweep)
                client.shutdown()
        finally:
            if proc2.poll() is None:
                proc2.kill()
            proc2.wait(timeout=10)

        expected = [o.metrics for o in run_jobs(spec.jobs(), workers=1)]
        assert served == expected


def _children_of(pid: int) -> list[int]:
    path = Path(f"/proc/{pid}/task/{pid}/children")
    return [int(child) for child in path.read_text().split()]


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie (an orphan that
    exited may linger unreaped under a non-reaping init)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.serve
@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="needs /proc child lists to find the worker pids",
)
def test_sigkilled_daemon_leaves_no_orphaned_workers(tmp_path):
    # Each worker must hold no copy of any parent pipe end (its own or a
    # sibling's), or its recv() never sees EOF once the daemon is gone.
    store = tmp_path / "store"
    proc = start_daemon(store, workers=2)
    workers: list[int] = []
    try:
        with ServeClient(store=store) as client:
            client.ping()
        workers = _children_of(proc.pid)
        assert len(workers) == 2
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 3.0
        while any(_running(w) for w in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [w for w in workers if _running(w)], "orphaned workers"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        for worker in workers:
            if _running(worker):
                os.kill(worker, signal.SIGKILL)


@pytest.mark.serve
class TestServeProtocolErrors:
    def test_unknown_op_and_unknown_sweep_are_named_errors(self, daemon):
        store, _proc = daemon
        with ServeClient(store=store) as client:
            with pytest.raises(ServeError, match="unknown op"):
                client._request({"op": "frobnicate"})
        with ServeClient(store=store) as client:
            with pytest.raises(ServeError, match="unknown sweep"):
                client.fetch("no-such-sweep")

    def test_fetch_before_complete_is_a_named_error(self, daemon):
        store, _proc = daemon
        spec = small_spec(
            name="early", topologies=("line:9",), seeds=(0, 1, 2),
            duration=1200.0,
        )
        with ServeClient(store=store) as client:
            sweep = client.submit(spec)["sweep"]
            with pytest.raises(ServeError, match="incomplete"):
                client.fetch(sweep)
            client.shutdown()

    def test_forking_transports_rejected_at_submit(self, daemon):
        store, _proc = daemon
        spec = small_spec(name="forky", transports=("udp",), seeds=(0,))
        with ServeClient(store=store) as client:
            with pytest.raises(ServeError, match="udp.*workers 1"):
                client.submit(spec)

    def test_malformed_spec_rejected_with_sweep_error_text(self, daemon):
        store, _proc = daemon
        with ServeClient(store=store) as client:
            with pytest.raises(ServeError, match="unknown SweepSpec fields"):
                client._request(
                    {"op": "submit", "spec": {"no_such_axis": [1]}}
                )

    def test_wire_garbage_gets_error_reply_then_disconnect(self, daemon):
        store, _proc = daemon
        # Poke the daemon below ServeClient: a well-prefixed frame whose
        # body is not UTF-8 JSON must earn one error frame, then EOF.
        with ServeClient(store=store) as probe:
            host, port = probe.host, probe.port
        sock = socket.create_connection((host, port), timeout=10)
        try:
            body = b"\xff\xfe\x00\x01"
            sock.sendall(struct.pack(">I", len(body)) + body)
            reply = recv_frame(sock, FrameBuffer(), peer="daemon")
            assert reply["ok"] is False
            assert "UTF-8" in reply["error"]
            assert sock.recv(1) == b""  # connection dropped
        finally:
            sock.close()
        # The daemon survives and keeps serving.
        with ServeClient(store=store) as client:
            assert client.ping()["ok"]
            assert client.stats()["protocol_errors"] >= 1


@pytest.mark.serve
class TestServeCli:
    def run_cli(self, *args: str) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.serve", *args],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_submit_status_fetch_stop_roundtrip(self, daemon):
        store, proc = daemon
        submitted = self.run_cli(
            "submit", "--store", str(store), "--topologies", "line:5",
            "--algorithms", "max-based", "--rates", "drifted",
            "--seeds", "2", "--duration", "8", "--name", "cli", "--wait",
        )
        assert submitted.returncode == 0, submitted.stdout + submitted.stderr
        assert "sweep " in submitted.stdout
        sweep = submitted.stdout.split("sweep ")[1].split(":")[0].split("'")[0].strip()

        status = self.run_cli("status", "--store", str(store), sweep)
        assert status.returncode == 0
        assert "2/2 done" in status.stdout

        fetched = self.run_cli("fetch", "--store", str(store), sweep)
        assert fetched.returncode == 0
        assert "max_skew" in fetched.stdout

        stopped = self.run_cli("stop", "--store", str(store))
        assert stopped.returncode == 0
        assert proc.wait(timeout=10) == 0

    def test_experiments_verb_dispatches_to_serve(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.experiments", "serve",
                "status", "--store", str(tmp_path / "empty"),
            ],
            env=env, capture_output=True, text=True, timeout=60,
        )
        # No daemon: the verb must route to serve and fail by name,
        # not fall through to the experiment-id parser.
        assert result.returncode == 2
        assert "repro-serve" in result.stderr


def test_send_frame_recv_frame_roundtrip_over_socketpair():
    left, right = socket.socketpair()
    try:
        left.settimeout(5)
        right.settimeout(5)
        send_frame(left, {"op": "ping", "n": 1})
        assert recv_frame(right, FrameBuffer(), peer="left") == {
            "op": "ping", "n": 1,
        }
    finally:
        left.close()
        right.close()
