"""JobQueue unit tests: atomic claims, leases, reclaim, hygiene."""

import json
import os
import threading

import pytest

from repro.core.jobs import sendrecv_job
from repro.distributed import JobQueue
from repro.errors import EvaluationError

JOB = sendrecv_job("p4", "sun-ethernet", 1024)


def make_queue(tmp_path, lease_timeout=10.0):
    return JobQueue(str(tmp_path / "queue"), lease_timeout=lease_timeout)


def backdate(path, seconds):
    past = os.path.getmtime(path) - seconds
    os.utime(path, (past, past))


class TestLifecycle:
    def test_enqueue_claim_complete_round_trip(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue("t-000", JOB, retries=3)
        assert queue.pending() == ["t-000"]

        claim = queue.claim("w1")
        assert claim.ticket == "t-000"
        assert claim.job == JOB
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
            queue.enqueue("t-%03d" % index, JOB)
        assert [queue.claim("w").ticket for _ in range(3)] == [
            "t-000", "t-001", "t-002"]

    def test_claim_on_empty_queue(self, tmp_path):
        assert make_queue(tmp_path).claim("w1") is None

    def test_exactly_one_claimant_wins(self, tmp_path):
        """N threads race for one ticket; the atomic rename guarantees
        a single winner and graceful losers."""
        queue = make_queue(tmp_path)
        queue.enqueue("t-000", JOB)
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
        queue.enqueue("t-000", JOB)
        claim = queue.claim("w1")
        queue.release(claim)
        assert queue.pending() == ["t-000"]
        assert queue.claim("w2").ticket == "t-000"


class TestRevocation:
    def test_revoke_unclaimed(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue("t-000", JOB)
        assert queue.revoke("t-000") is True
        assert queue.pending() == []
        assert queue.claim("w1") is None

    def test_revoke_claimed_ticket_lets_it_finish(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue("t-000", JOB)
        claim = queue.claim("w1")
        assert queue.revoke("t-000") is False  # too late: lease held
        queue.complete(claim, {"value": 2.0})
        assert queue.take_outcome("t-000")["value"] == 2.0


class TestLeases:
    def test_stale_claim_is_reclaimed(self, tmp_path):
        queue = make_queue(tmp_path, lease_timeout=10.0)
        queue.enqueue("t-000", JOB)
        claim = queue.claim("w-dead")
        backdate(claim.path, 60.0)  # the worker stopped heartbeating
        assert queue.reclaim_stale() == 1
        assert queue.pending() == ["t-000"]
        assert queue.claim("w-alive").ticket == "t-000"

    def test_heartbeat_defends_the_lease(self, tmp_path):
        queue = make_queue(tmp_path, lease_timeout=10.0)
        queue.enqueue("t-000", JOB)
        claim = queue.claim("w1")
        backdate(claim.path, 60.0)
        queue.heartbeat(claim)  # a live worker refreshes before sweep
        assert queue.reclaim_stale() == 0
        assert queue.claimed() == ["t-000"]

    def test_fresh_claim_is_not_reclaimed(self, tmp_path):
        queue = make_queue(tmp_path, lease_timeout=10.0)
        queue.enqueue("t-000", JOB)
        queue.claim("w1")
        assert queue.reclaim_stale() == 0

    def test_lease_starts_at_claim_not_at_enqueue(self, tmp_path):
        """Rename keeps the mtime: a ticket that waited in jobs/ longer
        than the lease must still be safe from sweepers until its
        first heartbeat — otherwise it is stolen and runs twice."""
        queue = make_queue(tmp_path, lease_timeout=10.0)
        queue.enqueue("t-000", JOB)
        # The ticket sat unclaimed for longer than a lease.
        backdate(os.path.join(queue.root, "jobs", "t-000.json"), 60.0)
        queue.claim("w-live")
        assert queue.reclaim_stale() == 0
        assert queue.claimed() == ["t-000"]

    def test_reclaimed_ticket_gets_a_fresh_lease(self, tmp_path):
        queue = make_queue(tmp_path, lease_timeout=10.0)
        queue.enqueue("t-000", JOB)
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
        queue.enqueue("t-000", JOB)
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
        queue.enqueue("t-good", JOB)
        claim = queue.claim("w1")
        assert claim.ticket == "t-good"
        assert queue.pending() == [] and queue.claimed() == ["t-good"]

    def test_abandoned_outcomes_are_swept_by_age(self, tmp_path):
        queue = make_queue(tmp_path, lease_timeout=1.0)
        queue.enqueue("t-000", JOB)
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
        stale = json.load(open(beacon_path))
        stale["time"] -= 60.0
        with open(beacon_path, "w") as handle:
            json.dump(stale, handle)
        alive = queue.live_workers()
        assert [beacon["worker"] for beacon in alive] == ["w1"]
        assert alive[0]["processed"] == 3
