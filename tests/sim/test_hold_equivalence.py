"""Grant-then-hold equivalence: ``Resource.hold`` must be invisible.

A :class:`~repro.sim.Hold` replaces the inline claim/sleep/release
loops the hardware and network models used to spell out (``with
request(): yield claim; yield timeout(d)``).  It claims and arms its
delays from grant callbacks instead of resuming the process, so each
of its events lands at the same time and in the same heap-sequence
slot as the loop's.  These tests pin that: random claimants with tied
arrival times and delays run through frozen copies of the old loops
and through the hold-based code, and the ``(now, order)`` traces, plus
an observer's view of every resource, must be identical.  The same
holds end to end: noisy samples (seeded backoff and jitter draws) on
the four paper-grid platforms are bit-identical.

The property harness follows ``tests/core/test_cache_properties.py``:
``hypothesis`` drives the seeds when installed, a fixed spread of
seeds otherwise.
"""

import random
import struct
from types import SimpleNamespace

import pytest

from repro.core.jobs import execute_job
from repro.core.spec import EvaluationSpec
from repro.hardware.node import Node, NodeSpec
from repro.net import AllnodeSwitch, AtmLan, Ethernet, FddiRing
from repro.net.atm import _CELL_BYTES, cells_for
from repro.sim import Environment, Hold, Resource

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on bare images
    HAVE_HYPOTHESIS = False

FALLBACK_SEEDS = range(400)

# ----------------------------------------------------------------------
# Frozen pre-hold loops
# ----------------------------------------------------------------------


def use_cpu_reference(node, seconds):
    """The original ``Node.use_cpu``: a request and a timeout per slice."""
    if seconds < 0:
        raise ValueError("negative CPU time %r" % (seconds,))
    remaining = seconds
    while remaining > 0.0:
        with node.cpu.request() as claim:
            yield claim
            timeslice = min(remaining, node.quantum_seconds)
            yield node.env.timeout(timeslice)
            remaining -= timeslice


def hold_for_reference(env, resource, *delays):
    """The original ``Network._hold_for`` (FDDI's token)."""
    claim = resource.request()
    try:
        yield claim
        for delay in delays:
            yield env.timeout(delay)
    finally:
        resource.release(claim)


def ports_reference(env, out_port, in_port, seconds):
    """The original ``Network._stream_through_ports``."""
    out_claim = out_port.request()
    yield out_claim
    in_claim = in_port.request()
    yield in_claim
    try:
        yield env.timeout(seconds)
    finally:
        out_port.release(out_claim)
        in_port.release(in_claim)


REFERENCE = SimpleNamespace(
    cpu=lambda env, node, seconds: use_cpu_reference(node, seconds),
    token=hold_for_reference,
    ports=ports_reference,
)


def _token_hold(env, token, *delays):
    yield token.hold(*delays)


def _ports_hold(env, out_port, in_port, seconds):
    yield Hold((out_port, in_port), (seconds,))


CURRENT = SimpleNamespace(
    cpu=lambda env, node, seconds: node.use_cpu(seconds),
    token=_token_hold,
    ports=_ports_hold,
)

# ----------------------------------------------------------------------
# Random scenarios
# ----------------------------------------------------------------------

#: Dyadic values, so sums of them tie exactly and many events share a
#: timestamp (the case where heap-sequence order decides everything).
TIMES = (0.0, 0.25, 0.5, 0.75, 1.0)
DELAYS = (0.0, 0.25, 0.5, 1.0)
SPEC = NodeSpec("test", 100.0, 100.0, 100.0, 100.0)


def random_plan(seed):
    rng = random.Random(seed)
    ports = rng.randint(1, 2)
    claimants = []
    for _ in range(rng.randint(1, 8)):
        ops = []
        for _ in range(rng.randint(1, 5)):
            shape = rng.choice(("cpu", "token", "ports", "ports", "grab", "gap"))
            if shape == "grab":
                # A plain request on any resource, logged at its grant,
                # so the order of grants is visible in the trace.
                args = (rng.randrange(2 + 2 * ports), rng.choice(DELAYS))
            elif shape == "cpu":
                args = (rng.choice((0.0, 0.25, 0.5, 0.75, 1.25)),)
            elif shape == "token":
                args = tuple(rng.choice(DELAYS) for _ in range(rng.randint(1, 3)))
            elif shape == "ports":
                args = (rng.randrange(ports), rng.randrange(ports), rng.choice(DELAYS))
            else:
                args = (rng.choice(DELAYS),)
            ops.append((shape, args))
        claimants.append((rng.choice(TIMES), ops))
    return {
        "cpu_capacity": rng.randint(1, 3),
        "quantum": rng.choice((0.25, 0.5)),
        "token_capacity": rng.randint(1, 2),
        "port_capacities": [rng.choice((1, 1, 2)) for _ in range(2 * ports)],
        "claimants": claimants,
        "observe_at": sorted(rng.choice(TIMES + (1.5, 2.0, 2.5)) for _ in range(6)),
    }


def run_plan(plan, shapes):
    """Run ``plan``; returns the ``(now, who, step)`` trace and the end time."""
    env = Environment()
    node = Node(env, 0, SPEC)
    node.cpu = Resource(env, capacity=plan["cpu_capacity"])
    node.quantum_seconds = plan["quantum"]
    token = Resource(env, capacity=plan["token_capacity"])
    capacities = plan["port_capacities"]
    half = len(capacities) // 2
    out_ports = [Resource(env, capacity=c) for c in capacities[:half]]
    in_ports = [Resource(env, capacity=c) for c in capacities[half:]]
    everything = [node.cpu, token] + out_ports + in_ports
    trace = []

    def claimant(who, start, ops):
        yield env.timeout(start)
        trace.append((env.now, who, "start"))
        for step, (shape, args) in enumerate(ops):
            if shape == "cpu":
                yield from shapes.cpu(env, node, *args)
            elif shape == "token":
                yield from shapes.token(env, token, *args)
            elif shape == "ports":
                src, dst, seconds = args
                yield from shapes.ports(env, out_ports[src], in_ports[dst], seconds)
            elif shape == "grab":
                which, seconds = args
                with everything[which].request() as claim:
                    yield claim
                    trace.append((env.now, who, step, "granted"))
                    yield env.timeout(seconds)
            else:
                yield env.timeout(args[0])
            trace.append((env.now, who, step))

    def observer():
        # Started first, so at a tied instant it looks before the
        # claimants' same-time events run: it sees grants and releases
        # in whatever order the heap delivered them.
        for at in plan["observe_at"]:
            if at > env.now:
                yield env.timeout(at - env.now)
            trace.append((env.now, "observer",
                          tuple((r.count, r.queue_length) for r in everything)))

    env.process(observer())
    for who, (start, ops) in enumerate(plan["claimants"]):
        env.process(claimant(who, start, ops))
    env.run()
    assert all(r.count == 0 and r.queue_length == 0 for r in everything)
    return trace, env.now


def check_hold_matches_reference(seed):
    plan = random_plan(seed)
    expected = run_plan(plan, REFERENCE)
    assert run_plan(plan, CURRENT) == expected, plan


if HAVE_HYPOTHESIS:

    class TestHoldWithHypothesis:
        @settings(max_examples=400, deadline=None)
        @given(st.integers(min_value=0, max_value=2 ** 63))
        def test_hold_matches_inline_loops(self, seed):
            check_hold_matches_reference(seed)

else:  # pragma: no cover - exercised on bare images

    class TestHoldWithRandomSeeds:
        @pytest.mark.parametrize("seed", FALLBACK_SEEDS)
        def test_hold_matches_inline_loops(self, seed):
            check_hold_matches_reference(seed)


class TestHoldScenarios:
    """Hand-picked cases the random plans reach only sometimes."""

    def test_three_claimants_tied_on_one_slot(self):
        plan = {
            "cpu_capacity": 1, "quantum": 0.25, "token_capacity": 1,
            "port_capacities": [1, 1],
            "claimants": [(0.0, [("cpu", (0.75,)), ("token", (0.25, 0.0))]),
                          (0.0, [("token", (0.0, 0.5)), ("cpu", (0.5,))]),
                          (0.0, [("ports", (0, 0, 0.25)), ("cpu", (0.25,))])],
            "observe_at": [0.0, 0.25, 0.5, 0.75, 1.0],
        }
        assert run_plan(plan, CURRENT) == run_plan(plan, REFERENCE)

    def test_port_pair_releases_output_first(self):
        """A rival queued on each port is granted output-side first."""
        env = Environment()
        out_port, in_port = Resource(env), Resource(env)
        order = []

        def holder():
            yield Hold((out_port, in_port), (1.0,))

        def rival(name, port):
            yield env.timeout(0.5)  # both ports are held by now
            with port.request() as claim:
                yield claim
                order.append((env.now, name))

        env.process(holder())
        env.process(rival("in", in_port))
        env.process(rival("out", out_port))
        env.run()
        assert order == [(1.0, "out"), (1.0, "in")]

    def test_holder_resumes_after_its_claim_is_returned(self):
        env = Environment()
        resource = Resource(env)
        seen = []

        def holder():
            yield resource.hold(0.5, 0.25)
            seen.append((env.now, resource.count))

        env.process(holder())
        env.run()
        assert seen == [(0.75, 0)]

    def test_invalid_holds_are_refused(self):
        env = Environment()
        resource = Resource(env)
        with pytest.raises(ValueError):
            resource.hold()
        with pytest.raises(ValueError):
            resource.hold(1.0, -0.5)
        assert resource.count == 0


# ----------------------------------------------------------------------
# End to end: noisy samples on the paper-grid platforms
# ----------------------------------------------------------------------


def ethernet_transfer_reference(net, src, dst, nbytes):
    """The original per-frame ``Ethernet.transfer`` loop: a claim, a
    backoff draw when a rival is queued, and a timeout per frame."""
    net.validate_endpoints(src, dst)
    start = net.env.now
    wire_total = 0
    busy_total = 0.0
    for payload in net.frame_format.frame_payloads(nbytes):
        with net._medium.request() as claim:
            yield claim
            if net._backoff_rng is not None and net._medium.queue_length > 0:
                yield net.env.timeout(net._backoff_rng.uniform(0.0, net._max_backoff))
            frame_time = net.frame_seconds(payload)
            yield net.env.timeout(frame_time)
        wire_total += net.frame_format.wire_bytes(payload)
        busy_total += frame_time
    yield net.env.timeout(net.propagation_seconds)
    net._record(src, dst, nbytes, wire_total, busy_total)
    return net.env.now - start


def fddi_transfer_reference(net, src, dst, nbytes):
    """The original ``FddiRing.transfer`` body, token via the old loop."""
    net.validate_endpoints(src, dst)
    start = net.env.now
    wire_total = net.frame_format.total_wire_bytes(nbytes)
    busy_total = wire_total * 8.0 / net.rate_bps
    token_wait = net.token_latency_seconds + net._jitter_seconds()
    yield from hold_for_reference(net.env, net._token, token_wait, busy_total)
    yield net.env.timeout(net.propagation_seconds)
    net._record(src, dst, nbytes, wire_total, busy_total)
    return net.env.now - start


def atm_transfer_reference(net, src, dst, nbytes):
    """The original ``AtmLan.transfer`` body, ports via the old loop."""
    net.validate_endpoints(src, dst)
    start = net.env.now
    stream_time = net.cell_stream_seconds(nbytes)
    yield from ports_reference(net.env, net._out_ports[src], net._in_ports[dst], stream_time)
    yield net.env.timeout(
        net.switch_latency_seconds + net._jitter_seconds() + net.propagation_seconds
    )
    wire_total = cells_for(nbytes) * _CELL_BYTES
    net._record(src, dst, nbytes, wire_total, stream_time)
    return net.env.now - start


def crossbar_transfer_reference(net, src, dst, nbytes):
    """The original ``AllnodeSwitch.transfer`` body, ports via the old loop."""
    net.validate_endpoints(src, dst)
    start = net.env.now
    stream_time = net.stream_seconds(nbytes)
    yield from ports_reference(net.env, net._out_ports[src], net._in_ports[dst], stream_time)
    yield net.env.timeout(
        net.switch_latency_seconds + net._jitter_seconds() + net.propagation_seconds
    )
    wire_total = net.frame_format.total_wire_bytes(nbytes)
    net._record(src, dst, nbytes, wire_total, stream_time)
    return net.env.now - start


PAPER_GRID_PLATFORMS = ("sun-ethernet", "sun-atm-lan", "alpha-fddi", "sp1-switch")


def _bits(sample):
    return None if sample is None else struct.pack("<d", sample)


def test_noisy_samples_bit_identical_on_paper_platforms(monkeypatch):
    spec = EvaluationSpec(
        platforms=PAPER_GRID_PLATFORMS,
        seeds=(0, 1),
        noise=1.0,
        tpl_sizes=(1024, 16384),
        app_params={"jpeg": {"height": 128, "width": 128},
                    "psrs": {"keys": 20_000},
                    "montecarlo": {"samples": 20_000}},
    )
    jobs = list(spec.iter_jobs())
    assert {job.platform for job in jobs} == set(PAPER_GRID_PLATFORMS)
    current = [_bits(execute_job(job)) for job in jobs]

    monkeypatch.setattr(Node, "use_cpu", use_cpu_reference)
    monkeypatch.setattr(FddiRing, "transfer", fddi_transfer_reference)
    monkeypatch.setattr(AtmLan, "transfer", atm_transfer_reference)
    monkeypatch.setattr(AllnodeSwitch, "transfer", crossbar_transfer_reference)
    monkeypatch.setattr(Ethernet, "transfer", ethernet_transfer_reference)
    reference = [_bits(execute_job(job)) for job in jobs]

    mismatched = [job.label() for job, a, b in zip(jobs, current, reference) if a != b]
    assert not mismatched
    assert sum(sample is not None for sample in current) > len(jobs) // 2
