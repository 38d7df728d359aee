"""Unit tests for repro.sim.events."""

import pytest

from repro.sim import AllOf, Environment, Event, PENDING, Timeout


@pytest.fixture
def env():
    return Environment()


class TestEventLifecycle:
    def test_new_event_is_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed
        assert event._value is PENDING

    def test_value_unavailable_until_triggered(self, env):
        event = env.event()
        with pytest.raises(AttributeError):
            _ = event.value

    def test_succeed_sets_value(self, env):
        event = env.event()
        event.succeed(41)
        assert event.triggered
        assert event.ok
        assert event.value == 41

    def test_succeed_twice_raises(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_fail_then_succeed_raises(self, env):
        event = env.event()
        event.fail(ValueError("boom"))
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_unhandled_failure_propagates_from_run(self, env):
        event = env.event()
        event.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            env.run()

    def test_defused_failure_does_not_propagate(self, env):
        event = env.event()
        event.fail(ValueError("boom"))
        event.defused = True
        env.run()  # must not raise

    def test_callbacks_invoked_on_processing(self, env):
        event = env.event()
        seen = []
        event.callbacks.append(lambda ev: seen.append(ev.value))
        event.succeed("payload")
        env.run()
        assert seen == ["payload"]
        assert event.processed

    def test_trigger_copies_state(self, env):
        source = env.event()
        source.succeed(7)
        mirror = env.event()
        mirror.trigger(source)
        assert mirror.triggered
        assert mirror.value == 7


class TestTimeout:
    def test_timeout_advances_clock(self, env):
        env.timeout(3.0)
        env.run()
        assert env.now == pytest.approx(3.0)

    def test_timeout_value(self, env):
        result = {}

        def proc(env):
            result["value"] = yield env.timeout(1.0, value="tick")

        env.process(proc(env))
        env.run()
        assert result["value"] == "tick"

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_zero_delay_allowed(self, env):
        timeout = env.timeout(0.0)
        env.run()
        assert timeout.processed
        assert env.now == 0.0

    def test_timeouts_fire_in_order(self, env):
        order = []

        def waiter(env, delay, label):
            yield env.timeout(delay)
            order.append(label)

        env.process(waiter(env, 2.0, "b"))
        env.process(waiter(env, 1.0, "a"))
        env.process(waiter(env, 3.0, "c"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_equal_time_fifo_order(self, env):
        order = []

        def waiter(env, label):
            yield env.timeout(1.0)
            order.append(label)

        for label in "abcde":
            env.process(waiter(env, label))
        env.run()
        assert order == list("abcde")


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        t1 = env.timeout(1.0, value=1)
        t2 = env.timeout(2.0, value=2)
        result = {}

        def proc(env):
            cv = yield env.all_of([t1, t2])
            result["values"] = cv.values()
            result["time"] = env.now

        env.process(proc(env))
        env.run()
        assert result["values"] == [1, 2]
        assert result["time"] == pytest.approx(2.0)

    def test_empty_all_of_fires_immediately(self, env):
        fired = []

        def proc(env):
            yield env.all_of([])
            fired.append(env.now)

        env.process(proc(env))
        env.run()
        assert fired == [0.0]

    def test_condition_value_mapping(self, env):
        t1 = env.timeout(1.0, value="x")
        cond = AllOf(env, [t1])
        env.run()
        value = cond.value
        assert t1 in value
        assert value[t1] == "x"
        assert value.keys() == [t1]

    def test_condition_failure_propagates(self, env):
        bad = env.event()

        def failer(env):
            yield env.timeout(1.0)
            bad.fail(RuntimeError("sub-event failed"))

        caught = []

        def waiter(env):
            try:
                yield AllOf(env, [bad, env.timeout(10.0)])
            except RuntimeError as exc:
                caught.append(str(exc))

        env.process(failer(env))
        env.process(waiter(env))
        env.run()
        assert caught == ["sub-event failed"]

    def test_cross_environment_condition_rejected(self, env):
        other = Environment()
        t_here = env.timeout(1.0)
        t_there = other.timeout(1.0)
        with pytest.raises(ValueError):
            AllOf(env, [t_here, t_there])


class TestRepr:
    def test_event_repr_states(self, env):
        event = env.event()
        assert "pending" in repr(event)
        event.succeed()
        assert "ok" in repr(event)
        env.run()
        assert "processed" in repr(event)

    def test_timeout_repr(self, env):
        assert "Timeout(2.5)" in repr(Timeout(env, 2.5))
