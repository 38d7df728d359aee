"""Parallel Monte Carlo integration.

"This application is compute intensive and communicates only short
messages" (Section 3.3) — so it benchmarks compute capacity and the
*latency* side of each tool.  Host-node structure: the host broadcasts
the sampling assignment, every rank (host included) samples its share
with an independent random stream, and partial sums return to the host
in short messages.  The gather uses plain send/recv, not a tool
reduction, because PVM has none — all three tools run the identical
algorithm, as the paper's benchmark suite requires.
"""

from __future__ import annotations

from repro.apps.base import ParallelApplication, split_evenly
from repro.apps.montecarlo.integrators import (
    INTEGRANDS,
    estimate,
    sample_sum,
    sampling_work,
)
from repro.sim import RandomStreams

__all__ = ["MonteCarloWorkload", "MonteCarloIntegration"]

_ASSIGN_TAG = "mc.assign"
_PARTIAL_TAG = "mc.partial"


class MonteCarloWorkload(object):
    """Which integral to estimate and how many samples to draw."""

    def __init__(self, integrand_name: str, samples: int, rng: RandomStreams) -> None:
        if integrand_name not in INTEGRANDS:
            raise ValueError(
                "unknown integrand %r; available: %s"
                % (integrand_name, ", ".join(sorted(INTEGRANDS)))
            )
        self.integrand_name = integrand_name
        self.samples = int(samples)
        self.rng = rng

    def __repr__(self) -> str:
        return "<MonteCarloWorkload %s n=%d>" % (self.integrand_name, self.samples)


class MonteCarloIntegration(ParallelApplication):
    """The paper's Monte Carlo Integration benchmark (Simulation class)."""

    name = "montecarlo"
    paper_class = "Simulation/Optimization"
    # The samples are seeded, but the shares, the charged work and the
    # short messages depend only on the sample count.
    seed_sensitive = False

    def __init__(self, samples: int = 1_500_000, integrand: str = "witch-of-agnesi") -> None:
        self.samples = samples
        self.integrand = integrand

    def make_workload(self, rng: RandomStreams) -> MonteCarloWorkload:
        return MonteCarloWorkload(self.integrand, self.samples, rng)

    def program(self, comm, workload: MonteCarloWorkload):
        integrand, interval, _ = INTEGRANDS[workload.integrand_name]
        shares = split_evenly(workload.samples, comm.size)

        if comm.rank == 0:
            # Assignment phase: short messages out.
            for rank in range(1, comm.size):
                yield from comm.send(
                    rank, payload=(workload.integrand_name, shares[rank]), tag=_ASSIGN_TAG
                )
            my_share = shares[0]
        else:
            msg = yield from comm.recv(src=0, tag=_ASSIGN_TAG)
            _, my_share = msg.payload

        # Compute phase: real sampling on an independent stream.
        stream = workload.rng.numpy_stream("mc.rank%d" % comm.rank)
        yield from comm.node.execute(sampling_work(my_share))
        total, total_sq = sample_sum(integrand, interval, my_share, stream)

        # Gather phase: short partial-sum messages back to the host.
        if comm.rank != 0:
            yield from comm.send(0, payload=(total, total_sq, my_share), tag=_PARTIAL_TAG)
            return None

        pooled, pooled_sq, count = total, total_sq, my_share
        for _ in range(1, comm.size):
            msg = yield from comm.recv(tag=_PARTIAL_TAG)
            part, part_sq, part_count = msg.payload
            pooled += part
            pooled_sq += part_sq
            count += part_count
        value, stderr = estimate(pooled, pooled_sq, count, interval)
        return {"value": value, "stderr": stderr, "samples": count}

    def verify(self, workload: MonteCarloWorkload, results) -> None:
        output = results[0]
        self._require(output is not None, "host produced no output")
        _, _, exact = INTEGRANDS[workload.integrand_name]
        self._require(output["samples"] == workload.samples, "sample count mismatch")
        error = abs(output["value"] - exact)
        tolerance = max(6.0 * output["stderr"], 1e-6)
        self._require(
            error < tolerance,
            "estimate %.6f misses exact %.6f by %.2e (> %.2e)"
            % (output["value"], exact, error, tolerance),
        )
