"""Fast-path equivalence: bulk coalescing must be invisible.

Ethernet sends a message as one ``sim.Train``, which runs the frames
on an uncontended segment as single closed-form timers, and the
stream media hold their token or port pair as one ``sim.Hold``.  These
tests pin the whole point of that design: simulated timestamps,
returned durations, ``NetworkStats`` and tracer records are
**bit-identical** (``==``, not ``approx``) to the original per-frame /
inline implementations, in uncontended *and* contended runs, with and
without seeded backoff.

Each reference implementation below is a frozen copy of the pre-fast-
path ``transfer`` body, driven against a fresh instance of the same
medium class.
"""

import random

import pytest

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on bare images
    HAVE_HYPOTHESIS = False

from repro.net import AllnodeSwitch, AtmLan, AtmWan, Ethernet, FddiRing
from repro.net.atm import _CELL_BYTES, cells_for
from repro.sim import Environment, RandomStreams, Tracer

# ----------------------------------------------------------------------
# Frozen pre-fast-path reference implementations
# ----------------------------------------------------------------------


def ethernet_reference(net, src, dst, nbytes):
    """The original per-frame claim/backoff/transmit loop."""
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


def fddi_reference(net, src, dst, nbytes):
    """The original inline token capture (per-frame wire-byte sum)."""
    net.validate_endpoints(src, dst)
    start = net.env.now
    wire_total = sum(net.frame_format.wire_bytes(p)
                     for p in net.frame_format.frame_payloads(nbytes))
    busy_total = wire_total * 8.0 / net.rate_bps
    with net._token.request() as claim:
        yield claim
        yield net.env.timeout(net.token_latency_seconds)
        yield net.env.timeout(busy_total)
    yield net.env.timeout(net.propagation_seconds)
    net._record(src, dst, nbytes, wire_total, busy_total)
    return net.env.now - start


def atm_reference(net, src, dst, nbytes):
    """The original inline port-pair stream."""
    net.validate_endpoints(src, dst)
    start = net.env.now
    stream_time = net.cell_stream_seconds(nbytes)
    out_claim = net._out_ports[src].request()
    yield out_claim
    in_claim = net._in_ports[dst].request()
    yield in_claim
    try:
        yield net.env.timeout(stream_time)
    finally:
        net._out_ports[src].release(out_claim)
        net._in_ports[dst].release(in_claim)
    yield net.env.timeout(net.switch_latency_seconds + net.propagation_seconds)
    wire_total = cells_for(nbytes) * _CELL_BYTES
    net._record(src, dst, nbytes, wire_total, stream_time)
    return net.env.now - start


def crossbar_reference(net, src, dst, nbytes):
    """The original inline crossbar stream (per-frame wire-byte sum)."""
    net.validate_endpoints(src, dst)
    start = net.env.now
    wire_total = sum(net.frame_format.wire_bytes(p)
                     for p in net.frame_format.frame_payloads(nbytes))
    stream_time = wire_total * 8.0 / net.rate_bps
    out_claim = net._out_ports[src].request()
    yield out_claim
    in_claim = net._in_ports[dst].request()
    yield in_claim
    try:
        yield net.env.timeout(stream_time)
    finally:
        net._out_ports[src].release(out_claim)
        net._in_ports[dst].release(in_claim)
    yield net.env.timeout(net.switch_latency_seconds + net.propagation_seconds)
    net._record(src, dst, nbytes, wire_total, stream_time)
    return net.env.now - start


def current_transfer(net, src, dst, nbytes):
    return net.transfer(src, dst, nbytes)


MEDIA = [
    pytest.param(Ethernet, ethernet_reference, id="ethernet"),
    pytest.param(FddiRing, fddi_reference, id="fddi"),
    pytest.param(AtmLan, atm_reference, id="atm-lan"),
    pytest.param(AtmWan, atm_reference, id="atm-wan"),
    pytest.param(AllnodeSwitch, crossbar_reference, id="allnode"),
]


# ----------------------------------------------------------------------
# Scenario harness: run identical traffic through both implementations
# ----------------------------------------------------------------------


def run_scenario(factory, transfer_fn, senders, **net_kwargs):
    """Run ``senders`` = [(name, src, dst, nbytes, start_delay)] through
    a fresh medium; return every observable of the run."""
    env = Environment()
    tracer = Tracer()
    net = factory(env, 4, tracer=tracer, **net_kwargs)
    completions = {}

    def sender(name, src, dst, nbytes, delay):
        if delay:
            yield env.timeout(delay)
        duration = yield from transfer_fn(net, src, dst, nbytes)
        completions[name] = (env.now, duration)

    for spec in senders:
        env.process(sender(*spec))
    env.run()
    stats = (net.stats.messages, net.stats.payload_bytes,
             net.stats.wire_bytes, net.stats.busy_seconds)
    trace = [(r.time, r.kind, sorted(r.fields.items())) for r in tracer]
    return completions, stats, trace


def assert_identical(factory, reference, senders, **net_kwargs):
    expected = run_scenario(factory, reference, senders, **net_kwargs)
    actual = run_scenario(factory, current_transfer, senders, **net_kwargs)
    assert actual == expected  # timestamps, durations, stats, trace — all of it


UNCONTENDED_SIZES = [0, 1, 47, 48, 1460, 1461, 4096, 65536, 1_000_000]


class TestUncontendedEquivalence:
    @pytest.mark.parametrize("factory,reference", MEDIA)
    @pytest.mark.parametrize("nbytes", UNCONTENDED_SIZES)
    def test_single_sender(self, factory, reference, nbytes):
        assert_identical(factory, reference, [("a", 0, 1, nbytes, 0.0)])

    @pytest.mark.parametrize("nbytes", [1460, 20_000])
    def test_back_to_back_messages_share_no_state(self, nbytes):
        """Two sequential messages from one host coalesce independently."""
        senders = [("a", 0, 1, nbytes, 0.0), ("b", 0, 1, nbytes, 0.5)]
        assert_identical(Ethernet, ethernet_reference, senders)


class TestContendedEquivalence:
    """Rivals must acquire the medium at exactly the per-frame instants."""

    @pytest.mark.parametrize("factory,reference", MEDIA)
    def test_simultaneous_senders(self, factory, reference):
        senders = [("a", 0, 1, 20_000, 0.0), ("b", 2, 3, 8_192, 0.0)]
        assert_identical(factory, reference, senders)

    @pytest.mark.parametrize("factory,reference", MEDIA)
    def test_rival_arrives_mid_message(self, factory, reference):
        """The bulk hold is cut short and falls back frame-exactly."""
        senders = [
            ("a", 0, 1, 50_000, 0.0),
            ("b", 2, 3, 20_000, 0.003),   # lands mid-way through a's frames
            ("c", 3, 2, 12_345, 0.0071),  # odd offset, second interruption
        ]
        assert_identical(factory, reference, senders)

    def test_same_destination_port_contends_identically(self):
        for factory, reference in [(AtmLan, atm_reference),
                                   (AllnodeSwitch, crossbar_reference)]:
            senders = [("a", 0, 3, 65_536, 0.0), ("b", 1, 3, 65_536, 0.0005)]
            assert_identical(factory, reference, senders)

    def test_contention_clears_and_bulk_resumes(self):
        """After a short rival finishes, the long sender re-coalesces."""
        senders = [("a", 0, 1, 200_000, 0.0), ("b", 2, 3, 1_000, 0.01)]
        assert_identical(Ethernet, ethernet_reference, senders)

    @pytest.mark.parametrize("boundary_frames", [1, 2, 3, 5])
    def test_rival_lands_exactly_on_frame_boundary(self, boundary_frames):
        """A rival whose wake time is float-exactly a frame boundary
        must acquire the medium at that boundary, not a frame later."""
        probe = Ethernet(Environment(), 4)
        frame = probe.frame_seconds(probe.frame_format.payload_bytes)
        delay = 0.0
        for _ in range(boundary_frames):  # the clock's own accumulation
            delay += frame
        senders = [("a", 0, 1, 6 * 1460, 0.0), ("b", 2, 3, 2_920, delay)]
        assert_identical(Ethernet, ethernet_reference, senders)

    def test_rival_lands_exactly_at_hold_start(self):
        """A rival queuing at the very instant the hold begins must wait
        for the first frame (the per-frame path has already started it)."""

        def run(transfer_fn):
            env = Environment()
            net = Ethernet(env, 4)
            completions = {}

            def sender_a():
                yield env.timeout(0.0)
                yield from transfer_fn(net, 0, 1, 6 * 1460)
                completions["a"] = env.now

            def sender_b():
                # Two zero-hops: b's request event is created after a's
                # medium grant, so it pops once a's hold is in place —
                # same timestamp, strictly later event order.
                yield env.timeout(0.0)
                yield env.timeout(0.0)
                yield from transfer_fn(net, 2, 3, 2_920)
                completions["b"] = env.now

            env.process(sender_a())
            env.process(sender_b())
            env.run()
            return completions, net.stats.busy_seconds

        assert run(current_transfer) == run(ethernet_reference)


class TestSeededBackoffEquivalence:
    """The contended path must consume the backoff RNG exactly as the
    per-frame loop does (the bulk path only runs when no draw can
    occur, so the stream of draws is unchanged)."""

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_backoff_draws_identical(self, seed):
        senders = [
            ("a", 0, 1, 50_000, 0.0),
            ("b", 2, 3, 20_000, 0.003),
            ("c", 3, 2, 12_345, 0.0071),
        ]
        expected = run_scenario(Ethernet, ethernet_reference, senders,
                                backoff_rng=random.Random(seed))
        actual = run_scenario(Ethernet, current_transfer, senders,
                              backoff_rng=random.Random(seed))
        assert actual == expected

    def test_uncontended_run_leaves_rng_untouched(self):
        """The fast path must not draw: a post-run draw matches a
        freshly seeded generator's first draw."""
        rng = random.Random(99)
        run_scenario(Ethernet, current_transfer,
                     [("a", 0, 1, 100_000, 0.0)], backoff_rng=rng)
        assert rng.random() == random.Random(99).random()


class TestPlatformNoiseEquivalence:
    """The ``--noise`` path (``enable_noise`` over named RandomStreams,
    exactly what ``build_platform`` wires) must keep the fast path
    bit-exact: a seeded backoff draw only exists under contention,
    which already forces the per-frame path."""

    @staticmethod
    def noisy_factory(seed, scale=1.0):
        def factory(env, node_count, tracer=None):
            net = Ethernet(env, node_count, tracer=tracer)
            net.enable_noise(RandomStreams(seed), scale)
            return net
        return factory

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_contended_noise_is_exact(self, seed):
        senders = [
            ("a", 0, 1, 50_000, 0.0),
            ("b", 2, 3, 20_000, 0.003),
            ("c", 3, 2, 12_345, 0.0071),
        ]
        factory = self.noisy_factory(seed)
        assert_identical(factory, ethernet_reference, senders)

    def test_scaled_noise_is_exact(self):
        senders = [("a", 0, 1, 50_000, 0.0), ("b", 2, 3, 20_000, 0.003)]
        factory = self.noisy_factory(11, scale=2.5)
        assert_identical(factory, ethernet_reference, senders)

    @pytest.mark.parametrize("nbytes", [1460, 65_536, 1_000_000])
    def test_uncontended_noise_stays_on_bulk_path(self, nbytes):
        """No rival, no draw: a noisy uncontended transfer still
        coalesces and matches the per-frame reference bit for bit."""
        factory = self.noisy_factory(42)
        assert_identical(factory, ethernet_reference,
                         [("a", 0, 1, nbytes, 0.0)])

    def test_uncontended_noise_schedules_few_events(self):
        """Noise enabled but uncontended: the coalescing still fires."""
        env = Environment()
        net = Ethernet(env, 2)
        net.enable_noise(RandomStreams(5))
        process = env.process(net.transfer(0, 1, 1_000_000))
        env.run(until=process)
        assert env._eid() < 20


class TestFastPathIsActuallyFast:
    def test_bulk_transfer_schedules_far_fewer_events(self):
        """~700 frames of an uncontended 1 MB message collapse into a
        handful of scheduled events instead of thousands."""
        env = Environment()
        net = Ethernet(env, 2)
        process = env.process(net.transfer(0, 1, 1_000_000))
        env.run(until=process)
        # The event-id counter counts every event ever scheduled.
        events_scheduled = env._eid()
        frames = net.frame_format.frame_count(1_000_000)
        assert frames > 600
        assert events_scheduled < 20

    def test_contended_transfer_still_terminates_with_stale_expiry(self):
        """An interrupted bulk hold leaves its expiry event in the heap;
        it must pop harmlessly before the run ends."""
        env = Environment()
        net = Ethernet(env, 4)
        done = []

        def sender(src, dst, nbytes, delay):
            yield env.timeout(delay)
            yield from net.transfer(src, dst, nbytes)
            done.append(env.now)

        env.process(sender(0, 1, 50_000, 0.0))
        env.process(sender(2, 3, 8_192, 0.003))
        env.run()
        assert len(done) == 2
        # After the drain the clock sits at the last real completion,
        # not at the stale bulk expiry.
        assert env.now == max(done)


# ----------------------------------------------------------------------
# Property: random contended Ethernet scenarios, ties on frame boundaries
# ----------------------------------------------------------------------

FALLBACK_SEEDS = range(400)

#: Message sizes around the frame payload (1460 B): empty, one byte,
#: exact multiples and one-byte overhangs, up to a few dozen frames.
TRAIN_SIZES = (0, 1, 1459, 1460, 1461, 2920, 2921, 7300, 14_600, 20_000, 43_800)


def random_train_scenario(seed):
    """2-5 senders, most starting on an exact frame boundary of a
    sender that began at 0 (the clock's own sum of frame times), some
    sharing a boundary, a few mid-frame; half with a backoff RNG."""
    rng = random.Random(seed)
    probe = Ethernet(Environment(), 2)
    frame = probe.frame_seconds(probe.frame_format.payload_bytes)
    boundaries = [0.0]
    for _ in range(40):
        boundaries.append(boundaries[-1] + frame)
    senders = []
    for name in range(rng.randint(2, 5)):
        if rng.random() < 0.85:
            start = rng.choice(boundaries[:rng.choice((3, 12, 40))])
        else:
            start = rng.uniform(0.0, 40 * frame)
        src = rng.randrange(4)
        dst = (src + rng.randrange(1, 4)) % 4
        senders.append((name, src, dst, rng.choice(TRAIN_SIZES), start))
    backoff_seed = rng.randrange(2 ** 32) if rng.random() < 0.5 else None
    return senders, backoff_seed


def check_train_matches_reference(seed):
    senders, backoff_seed = random_train_scenario(seed)

    def run(transfer_fn):
        """Every observable of ``run_scenario``, plus the backoff RNG's
        next draw."""
        rng = None if backoff_seed is None else random.Random(backoff_seed)
        observed = run_scenario(Ethernet, transfer_fn, senders, backoff_rng=rng)
        return observed, None if rng is None else rng.random()

    expected = run(ethernet_reference)
    assert run(current_transfer) == expected, (senders, backoff_seed)
    assert len(expected[0][0]) == len(senders)


if HAVE_HYPOTHESIS:

    class TestTrainWithHypothesis:
        @settings(max_examples=400, deadline=None)
        @given(st.integers(min_value=0, max_value=2 ** 63))
        def test_train_matches_per_frame_loop(self, seed):
            check_train_matches_reference(seed)

else:  # pragma: no cover - exercised on bare images

    class TestTrainWithRandomSeeds:
        @pytest.mark.parametrize("seed", FALLBACK_SEEDS)
        def test_train_matches_per_frame_loop(self, seed):
            check_train_matches_reference(seed)
