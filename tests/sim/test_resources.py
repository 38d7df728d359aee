"""Unit tests for repro.sim.resources."""

import pytest

from repro.sim import Environment, FilterStore, Resource, Store, Train


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_immediate_grant_under_capacity(self, env):
        resource = Resource(env, capacity=2)
        log = []

        def proc(env):
            with resource.request() as req:
                yield req
                log.append(env.now)

        env.process(proc(env))
        env.process(proc(env))
        env.run()
        assert log == [0.0, 0.0]

    def test_exclusive_use_serializes(self, env):
        resource = Resource(env, capacity=1)
        log = []

        def proc(env, name):
            with resource.request() as req:
                yield req
                log.append((env.now, name, "acquire"))
                yield env.timeout(2.0)
                log.append((env.now, name, "release"))

        env.process(proc(env, "a"))
        env.process(proc(env, "b"))
        env.run()
        assert log == [
            (0.0, "a", "acquire"),
            (2.0, "a", "release"),
            (2.0, "b", "acquire"),
            (4.0, "b", "release"),
        ]

    def test_fifo_fairness(self, env):
        resource = Resource(env, capacity=1)
        order = []

        def proc(env, name, arrival):
            yield env.timeout(arrival)
            with resource.request() as req:
                yield req
                order.append(name)
                yield env.timeout(10.0)

        for index, name in enumerate("abcd"):
            env.process(proc(env, name, index * 0.1))
        env.run()
        assert order == ["a", "b", "c", "d"]

    def test_count_and_queue_length(self, env):
        resource = Resource(env, capacity=1)
        snapshots = []

        def holder(env):
            with resource.request() as req:
                yield req
                yield env.timeout(5.0)

        def observer(env):
            yield env.timeout(1.0)
            snapshots.append((resource.count, resource.queue_length))

        env.process(holder(env))
        env.process(holder(env))
        env.process(observer(env))
        env.run()
        assert snapshots == [(1, 1)]

    def test_release_of_queued_request_cancels_it(self, env):
        resource = Resource(env, capacity=1)
        first = resource.request()
        second = resource.request()
        assert resource.queue_length == 1
        resource.release(second)  # still queued: cancel, don't corrupt users
        assert resource.queue_length == 0
        assert resource.count == 1
        resource.release(first)
        assert resource.count == 0

    def test_releasing_a_queued_request_twice_is_harmless(self, env):
        """Regression: the second release used to raise ``ValueError``
        (``deque.remove``) because ``Request.cancel`` was not idempotent."""
        resource = Resource(env, capacity=1)
        first = resource.request()
        second = resource.request()
        third = resource.request()
        resource.release(second)
        resource.release(second)
        second.cancel()
        assert resource.queue_length == 1
        resource.release(first)
        assert resource.count == 1
        assert not second.triggered
        env.run()
        assert third.processed

    def test_release_schedules_no_event(self, env):
        resource = Resource(env, capacity=1)
        claim = resource.request()
        env.run()
        assert resource.release(claim) is None
        assert env.peek() == float("inf")

    def test_context_manager_releases_on_exception(self, env):
        resource = Resource(env, capacity=1)

        def failing(env):
            with resource.request() as req:
                yield req
                raise ValueError("die holding the resource")

        def follower(env, log):
            with resource.request() as req:
                yield req
                log.append(env.now)

        log = []
        env.process(failing(env))
        env.process(follower(env, log))
        with pytest.raises(ValueError):
            env.run()
        env.run()
        assert log == [0.0]


def frame_loop(env, resource, frames, seconds, last_seconds):
    """The per-frame loop a :class:`Train` stands for (no backoff)."""
    busy = 0.0
    for index in range(frames):
        frame = seconds if index < frames - 1 else last_seconds
        with resource.request() as claim:
            yield claim
            yield env.timeout(frame)
        busy += frame
    return busy


def yield_train(env, resource, frames, seconds, last_seconds):
    return (yield Train(resource, frames, seconds, last_seconds))


class TestTrain:
    def test_invalid_trains_are_refused(self, env):
        with pytest.raises(ValueError, match="exclusive"):
            Train(Resource(env, capacity=2), 1, 1.0, 1.0)
        segment = Resource(env)
        with pytest.raises(ValueError, match="frame"):
            Train(segment, 0, 1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            Train(segment, 2, 1.0, 0.0)
        assert segment.count == 0 and segment.queue_length == 0

    def test_fires_with_the_left_to_right_busy_sum(self, env):
        segment = Resource(env)
        seen = []

        def sender():
            busy = yield Train(segment, 4, 0.1, 0.7)
            seen.append((env.now, busy, segment.count))

        env.process(sender())
        env.run()
        expected = 0.0
        for frame in (0.1, 0.1, 0.1, 0.7):
            expected += frame
        assert seen == [(expected, expected, 0)]

    def test_uncontended_run_is_one_timer(self, env):
        segment = Resource(env)
        env.process(yield_train(env, segment, 100, 0.25, 0.5))
        env.run()
        # The process's start and end, one claim and one timer; the
        # loop schedules a claim and a timeout per frame.
        assert env._eid() == 4

    def test_resumes_in_its_last_timers_slot(self):
        """A process waiting on a train resumes where the loop's
        process resumed after its last frame, not a hop later: an
        event queued at that instant in between runs after it."""

        def run(shape):
            env = Environment()
            segment = Resource(env)
            order = []

            def sender():
                yield from shape(env, segment, 3, 0.25, 0.5)
                order.append((env.now, "sender"))

            def bystander():
                yield env.timeout(1.0)  # queued before any frame
                yield env.timeout(0.0)  # queued at the last frame's end
                order.append((env.now, "bystander"))

            env.process(sender())
            env.process(bystander())
            env.run()
            return order

        assert run(yield_train) == run(frame_loop) == [(1.0, "sender"), (1.0, "bystander")]

    def test_a_rival_is_granted_at_the_end_of_the_frame_in_flight(self):
        def run(shape):
            env = Environment()
            segment = Resource(env)
            order = []

            def sender():
                busy = yield from shape(env, segment, 4, 0.25, 0.25)
                order.append((env.now, "sender", busy))

            def rival(at):
                yield env.timeout(at)
                with segment.request() as claim:
                    yield claim
                    order.append((env.now, "rival", at))
                    yield env.timeout(0.125)

            env.process(sender())
            env.process(rival(0.375))  # inside the second frame
            env.process(rival(0.875))  # exactly on the third frame's end
            env.run()
            return order

        expected = run(frame_loop)
        assert run(yield_train) == expected
        assert expected == [(0.5, "rival", 0.375), (0.875, "rival", 0.875),
                            (1.25, "sender", 1.0)]


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)
        result = {}

        def proc(env):
            store.put("item")
            result["value"] = yield store.get()

        env.process(proc(env))
        env.run()
        assert result["value"] == "item"

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        result = {}

        def getter(env):
            result["value"] = yield store.get()
            result["time"] = env.now

        def putter(env):
            yield env.timeout(3.0)
            store.put("late")

        env.process(getter(env))
        env.process(putter(env))
        env.run()
        assert result == {"value": "late", "time": 3.0}

    def test_fifo_item_order(self, env):
        store = Store(env)
        received = []

        def getter(env):
            for _ in range(3):
                received.append((yield store.get()))

        for item in [1, 2, 3]:
            store.put(item)
        env.process(getter(env))
        env.run()
        assert received == [1, 2, 3]

    def test_fifo_getter_order(self, env):
        store = Store(env)
        received = []

        def getter(env, name, arrival):
            yield env.timeout(arrival)
            item = yield store.get()
            received.append((name, item))

        env.process(getter(env, "first", 0.0))
        env.process(getter(env, "second", 0.5))

        def putter(env):
            yield env.timeout(1.0)
            store.put("x")
            store.put("y")

        env.process(putter(env))
        env.run()
        assert received == [("first", "x"), ("second", "y")]

    def test_len_and_items(self, env):
        store = Store(env)
        store.put("a")
        store.put("b")
        assert len(store) == 2
        assert store.items == ["a", "b"]


class TestFilterStore:
    def test_get_with_filter_skips_non_matching(self, env):
        store = FilterStore(env)
        result = {}

        def proc(env):
            result["value"] = yield store.get(lambda item: item % 2 == 0)

        store.put(1)
        store.put(3)
        store.put(4)
        env.process(proc(env))
        env.run()
        assert result["value"] == 4
        assert store.items == [1, 3]

    def test_filter_get_blocks_until_match(self, env):
        store = FilterStore(env)
        result = {}

        def getter(env):
            result["value"] = yield store.get(lambda item: item == "wanted")
            result["time"] = env.now

        def putter(env):
            store.put("junk")
            yield env.timeout(2.0)
            store.put("wanted")

        env.process(getter(env))
        env.process(putter(env))
        env.run()
        assert result == {"value": "wanted", "time": 2.0}

    def test_multiple_filters_satisfied_independently(self, env):
        store = FilterStore(env)
        results = {}

        def getter(env, key, predicate):
            results[key] = yield store.get(predicate)

        env.process(getter(env, "even", lambda i: i % 2 == 0))
        env.process(getter(env, "odd", lambda i: i % 2 == 1))

        def putter(env):
            yield env.timeout(1.0)
            store.put(7)
            yield env.timeout(1.0)
            store.put(8)

        env.process(putter(env))
        env.run()
        assert results == {"even": 8, "odd": 7}

    def test_unfiltered_get_takes_oldest(self, env):
        store = FilterStore(env)
        store.put("old")
        store.put("new")
        result = {}

        def proc(env):
            result["value"] = yield store.get()

        env.process(proc(env))
        env.run()
        assert result["value"] == "old"
