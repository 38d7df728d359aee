"""JobQueue unit tests: atomic claims, leases, reclaim, hygiene."""

import io
import json
import os
import threading
import time

import pytest

from repro.core.jobs import sendrecv_job
from repro.distributed import JobQueue
from repro.errors import EvaluationError

JOB = sendrecv_job("p4", "sun-ethernet", 1024)
OTHER = sendrecv_job("p4", "sun-ethernet", 4096)


def make_queue(tmp_path, lease_timeout=10.0):
    return JobQueue(str(tmp_path / "queue"), lease_timeout=lease_timeout)


def backdate(path, seconds):
    past = os.path.getmtime(path) - seconds
    os.utime(path, (past, past))


class TestLifecycle:
    def test_enqueue_claim_complete_round_trip(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue("t-000", [JOB, OTHER], retries=3)
        assert queue.pending() == ["t-000"]

        claim = queue.claim("w1")
        assert claim.ticket == "t-000"
        assert claim.jobs == (JOB, OTHER)  # one ticket, the chunk in order
        assert claim.retries == 3
        assert queue.pending() == [] and queue.claimed() == ["t-000"]

        queue.complete(claim, {"ticket": "t-000", "value": 1.5})
        assert queue.claimed() == []
        outcome = queue.take_outcome("t-000")
        assert outcome["value"] == 1.5
        assert queue.take_outcome("t-000") is None  # consumed

    def test_claims_are_fifo_by_ticket(self, tmp_path):
        queue = make_queue(tmp_path)
        for index in (2, 0, 1):
            queue.enqueue("t-%03d" % index, [JOB])
        assert [queue.claim("w").ticket for _ in range(3)] == [
            "t-000", "t-001", "t-002"]

    def test_claim_on_empty_queue(self, tmp_path):
        assert make_queue(tmp_path).claim("w1") is None

    def test_exactly_one_claimant_wins(self, tmp_path):
        """N threads race for one ticket; the atomic rename guarantees
        a single winner and graceful losers."""
        queue = make_queue(tmp_path)
        queue.enqueue("t-000", [JOB])
        wins = []
        barrier = threading.Barrier(8)

        def racer(index):
            barrier.wait()
            claim = queue.claim("w%d" % index)
            if claim is not None:
                wins.append(claim)

        threads = [threading.Thread(target=racer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(wins) == 1

    def test_release_returns_ticket_to_pool(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue("t-000", [JOB])
        claim = queue.claim("w1")
        queue.release(claim)
        assert queue.pending() == ["t-000"]
        assert queue.claim("w2").ticket == "t-000"


class TestRevocation:
    def test_revoke_unclaimed(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue("t-000", [JOB])
        assert queue.revoke("t-000") is True
        assert queue.pending() == []
        assert queue.claim("w1") is None

    def test_revoke_claimed_ticket_lets_it_finish(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue("t-000", [JOB])
        claim = queue.claim("w1")
        assert queue.revoke("t-000") is False  # too late: lease held
        queue.complete(claim, {"value": 2.0})
        assert queue.take_outcome("t-000")["value"] == 2.0


class TestLeases:
    def test_stale_claim_is_reclaimed(self, tmp_path):
        queue = make_queue(tmp_path, lease_timeout=10.0)
        queue.enqueue("t-000", [JOB])
        claim = queue.claim("w-dead")
        backdate(claim.path, 60.0)  # the worker stopped heartbeating
        assert queue.reclaim_stale() == 1
        assert queue.pending() == ["t-000"]
        assert queue.claim("w-alive").ticket == "t-000"

    def test_heartbeat_defends_the_lease(self, tmp_path):
        queue = make_queue(tmp_path, lease_timeout=10.0)
        queue.enqueue("t-000", [JOB])
        claim = queue.claim("w1")
        backdate(claim.path, 60.0)
        queue.heartbeat(claim)  # a live worker refreshes before sweep
        assert queue.reclaim_stale() == 0
        assert queue.claimed() == ["t-000"]

    def test_fresh_claim_is_not_reclaimed(self, tmp_path):
        queue = make_queue(tmp_path, lease_timeout=10.0)
        queue.enqueue("t-000", [JOB])
        queue.claim("w1")
        assert queue.reclaim_stale() == 0

    def test_lease_starts_at_claim_not_at_enqueue(self, tmp_path):
        """Rename keeps the mtime: a ticket that waited in jobs/ longer
        than the lease must still be safe from sweepers until its
        first heartbeat — otherwise it is stolen and runs twice."""
        queue = make_queue(tmp_path, lease_timeout=10.0)
        queue.enqueue("t-000", [JOB])
        # The ticket sat unclaimed for longer than a lease.
        backdate(os.path.join(queue.root, "jobs", "t-000.json"), 60.0)
        queue.claim("w-live")
        assert queue.reclaim_stale() == 0
        assert queue.claimed() == ["t-000"]

    def test_reclaimed_ticket_gets_a_fresh_lease(self, tmp_path):
        queue = make_queue(tmp_path, lease_timeout=10.0)
        queue.enqueue("t-000", [JOB])
        backdate(queue.claim("w-dead").path, 60.0)
        assert queue.reclaim_stale() == 1  # back in jobs/, still backdated
        assert queue.claim("w-live").ticket == "t-000"
        assert queue.reclaim_stale() == 0
        assert queue.claimed() == ["t-000"]

    def test_completion_after_reclaim_is_harmless(self, tmp_path):
        """The dead-but-not-really worker completes *after* its lease
        was stolen: its outcome still publishes (deterministic value,
        atomic write) and the unlink of the vanished claim is a no-op."""
        queue = make_queue(tmp_path, lease_timeout=10.0)
        queue.enqueue("t-000", [JOB])
        slow = queue.claim("w-slow")
        backdate(slow.path, 60.0)
        queue.reclaim_stale()
        fast = queue.claim("w-fast")
        queue.complete(fast, {"value": 1.0})
        queue.complete(slow, {"value": 1.0})  # duplicate, same value
        assert queue.take_outcome("t-000")["value"] == 1.0


class TestHygiene:
    def test_lease_timeout_validated(self, tmp_path):
        with pytest.raises(EvaluationError):
            JobQueue(str(tmp_path), lease_timeout=0.0)

    def test_torn_ticket_is_poisoned_not_fatal(self, tmp_path):
        queue = make_queue(tmp_path)
        with open(os.path.join(queue.root, "jobs", "t-bad.json"), "w") as handle:
            handle.write("{torn")
        queue.enqueue("t-good", [JOB])
        claim = queue.claim("w1")
        assert claim.ticket == "t-good"
        assert queue.pending() == [] and queue.claimed() == ["t-good"]

    @pytest.mark.parametrize("payload", [
        "{torn",
        json.dumps({"ticket": "t-bad", "job": JOB.to_dict(), "retries": 1}),
        json.dumps({"ticket": "t-bad", "jobs": [], "retries": 1}),
        json.dumps({"ticket": "t-bad", "jobs": [{"kind": "nope"}]}),
    ], ids=["torn", "one-job-format", "empty-chunk", "bad-job"])
    def test_unreadable_ticket_gets_an_error_outcome_naming_it(self, tmp_path, payload):
        """Whoever waits on an unreadable ticket learns so from its
        outcome file instead of polling for one that never comes."""
        queue = make_queue(tmp_path)
        with open(os.path.join(queue.root, "jobs", "t-bad.json"), "w") as handle:
            handle.write(payload)
        assert queue.claim("w1") is None
        assert queue.pending() == [] and queue.claimed() == []
        outcome = queue.take_outcome("t-bad")
        assert outcome["outcomes"] == []
        assert outcome["error"]["type"] == "EvaluationError"
        assert "t-bad" in outcome["error"]["message"]

    def test_abandoned_outcomes_are_swept_by_age(self, tmp_path):
        queue = make_queue(tmp_path, lease_timeout=1.0)
        queue.enqueue("t-000", [JOB])
        queue.complete(queue.claim("w1"), {"value": 1.0})
        path = os.path.join(queue.root, "outcomes", "t-000.json")
        assert queue.sweep_outcomes() == 0  # fresh: a coordinator may come
        backdate(path, 5 * queue.lease_timeout * queue.OUTCOME_TTL_LEASES)
        assert queue.sweep_outcomes() == 1
        assert not os.path.exists(path)

    def test_worker_beacons_report_liveness(self, tmp_path):
        queue = make_queue(tmp_path, lease_timeout=10.0)
        queue.heartbeat_worker("w1", {"processed": 3})
        queue.heartbeat_worker("w2", {"processed": 0})
        beacon_path = os.path.join(queue.root, "workers", "w2.json")
        with open(beacon_path) as handle:
            stale = json.load(handle)
        stale["time"] -= 60.0
        with open(beacon_path, "w") as handle:
            json.dump(stale, handle)
        alive = queue.live_workers()
        assert [beacon["worker"] for beacon in alive] == ["w1"]
        assert alive[0]["processed"] == 3

    def test_queue_files_are_the_sorted_json_dump(self, tmp_path):
        """Ticket and outcome files hold exactly what ``json.dump(...,
        sort_keys=True)`` writes, whichever encoder produced them."""
        queue = make_queue(tmp_path)
        queue.enqueue("t-000", [JOB, OTHER], retries=2)
        ticket = {"ticket": "t-000", "jobs": [JOB.to_dict(), OTHER.to_dict()],
                  "retries": 2}
        outcome = {"ticket": "t-000", "worker": "w1", "wall_seconds": 0.25,
                   "outcomes": [{"value": 1.5, "error": None}], "error": None}
        with open(os.path.join(queue.root, "jobs", "t-000.json")) as handle:
            ticket_text = handle.read()
        queue.complete(queue.claim("w1"), outcome)
        with open(os.path.join(queue.root, "outcomes", "t-000.json")) as handle:
            outcome_text = handle.read()
        for payload, text in ((ticket, ticket_text), (outcome, outcome_text)):
            expected = io.StringIO()
            json.dump(payload, expected, sort_keys=True)
            assert text == expected.getvalue()


def open_descriptors():
    return len(os.listdir("/proc/self/fd"))


class TestBells:
    def test_each_wait_takes_one_ring(self, tmp_path):
        """Two rings end two waits at once, not one: a wake never
        swallows a peer's.  The third wait sleeps out its timeout."""
        queue = make_queue(tmp_path)
        queue.enqueue("t-000", [JOB])
        queue.enqueue("t-001", [JOB])
        start = time.monotonic()
        queue.wait_for_jobs(10.0)
        queue.wait_for_jobs(10.0)
        assert time.monotonic() - start < 5.0
        start = time.monotonic()
        queue.wait_for_jobs(0.05)
        assert time.monotonic() - start >= 0.04

    def test_a_completion_rings_the_outcome_bell(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue("t-000", [JOB])
        queue.complete(queue.claim("w1"), {"value": 1.0})
        start = time.monotonic()
        queue.wait_for_outcomes(10.0)
        assert time.monotonic() - start < 5.0

    def test_a_wait_takes_descriptors_above_fd_setsize(self, tmp_path):
        """A long-lived ``repro serve`` may hold more than 1024
        descriptors, which ``select()`` cannot watch."""
        import resource

        high = 1100
        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] <= high:
            pytest.skip("descriptor limit too low")
        queue = make_queue(tmp_path)
        read_end, write_end = os.pipe()
        try:
            os.dup2(read_end, high)
            os.write(write_end, b"x")
            start = time.monotonic()
            queue.wait_for_jobs(10.0, high)
            assert time.monotonic() - start < 5.0
        finally:
            for fd in (read_end, write_end, high):
                os.close(fd)
            queue.close()

    def test_a_foreign_file_at_a_bell_path_only_silences_it(self, tmp_path):
        queue = make_queue(tmp_path)
        path = os.path.join(queue.root, "bell-jobs")
        with open(path, "w") as handle:
            handle.write("mine")
        queue.enqueue("t-000", [JOB])
        with open(path) as handle:
            assert handle.read() == "mine"
        assert queue.claim("w1").ticket == "t-000"
        start = time.monotonic()
        queue.wait_for_jobs(0.05)  # no ring can arrive: the timeout ends it
        assert time.monotonic() - start >= 0.04

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="Linux only")
    def test_building_a_queue_and_reading_beacons_opens_nothing(self, tmp_path):
        root = str(tmp_path / "queue")
        JobQueue(root).heartbeat_worker("w1", {"processed": 0})
        before = open_descriptors()
        for _ in range(100):
            assert len(JobQueue(root).live_workers()) == 1
        assert open_descriptors() == before
        assert not os.path.exists(os.path.join(root, "bell-jobs"))

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="Linux only")
    def test_close_releases_the_bells_and_the_queue_reopens_them(self, tmp_path):
        queue = make_queue(tmp_path)
        before = open_descriptors()
        queue.enqueue("t-000", [JOB])
        queue.complete(queue.claim("w1"), {"value": 1.0})
        assert open_descriptors() == before + 2
        queue.close()
        assert open_descriptors() == before
        queue.enqueue("t-001", [JOB])  # reopened lazily
        start = time.monotonic()
        queue.wait_for_jobs(10.0)
        assert time.monotonic() - start < 5.0
        queue.close()
        assert open_descriptors() == before
