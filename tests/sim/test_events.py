"""Unit tests for events and conditions."""

import pytest

from repro.sim import AllOf, AnyOf, Environment, Event


def test_event_starts_untriggered(env):
    event = Event(env)
    assert not event.triggered
    assert not event.processed


def test_succeed_sets_value(env):
    event = Event(env)
    event.succeed(42)
    assert event.triggered
    assert event.ok
    assert event.value == 42


def test_fail_sets_exception(env):
    event = Event(env)
    error = RuntimeError("x")
    event.defused = True
    event.fail(error)
    assert event.triggered
    assert not event.ok
    assert event.value is error


def test_succeed_twice_rejected(env):
    event = Event(env)
    event.succeed()
    with pytest.raises(RuntimeError):
        event.succeed()


def test_fail_then_succeed_rejected(env):
    event = Event(env)
    event.defused = True
    event.fail(ValueError())
    with pytest.raises(RuntimeError):
        event.succeed()


def test_fail_requires_exception(env):
    event = Event(env)
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_value_before_trigger_rejected(env):
    event = Event(env)
    with pytest.raises(RuntimeError):
        event.value
    with pytest.raises(RuntimeError):
        event.ok


def test_value_or_raise_on_failure(env):
    event = Event(env)
    event.defused = True
    event.fail(KeyError("k"))
    with pytest.raises(KeyError):
        event.value_or_raise()


def test_callbacks_run_on_fire(env):
    event = Event(env)
    seen = []
    event.callbacks.append(lambda e: seen.append(e.value))
    event.succeed("v")
    env.run()
    assert seen == ["v"]
    assert event.processed


def test_unhandled_failed_event_raises_at_run(env):
    event = Event(env)
    event.fail(RuntimeError("unhandled"))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_defused_failed_event_does_not_raise(env):
    event = Event(env)
    event.defused = True
    event.fail(RuntimeError("handled"))
    env.run()  # no exception


def test_all_of_waits_for_every_event(env):
    events = [env.timeout(d, value=d) for d in (1.0, 3.0, 2.0)]
    condition = AllOf(env, events)
    env.run(until=condition)
    assert env.now == 3.0
    assert sorted(condition.value.values()) == [1.0, 2.0, 3.0]


def test_any_of_fires_at_first_event(env):
    events = [env.timeout(d, value=d) for d in (5.0, 2.0)]
    condition = AnyOf(env, events)
    env.run(until=condition)
    assert env.now == 2.0
    assert condition.value.values() == [2.0]


def test_empty_all_of_fires_immediately(env):
    condition = AllOf(env, [])
    assert condition.triggered
    assert len(condition.value) == 0


def test_condition_fails_if_subevent_fails(env):
    good = env.timeout(5.0)
    bad = Event(env)
    condition = AllOf(env, [good, bad])
    bad.fail(ValueError("sub"))
    with pytest.raises(ValueError, match="sub"):
        env.run(until=condition)


def test_condition_value_getitem(env):
    a = env.timeout(1.0, value="a")
    b = env.timeout(2.0, value="b")
    condition = AllOf(env, [a, b])
    env.run(until=condition)
    assert condition.value[a] == "a"
    assert condition.value[b] == "b"
    assert a in condition.value


def test_condition_mixed_environments_rejected():
    env1, env2 = Environment(), Environment()
    with pytest.raises(ValueError):
        AllOf(env1, [env1.timeout(1), env2.timeout(1)])


def test_env_helpers_all_of_any_of(env):
    all_condition = env.all_of([env.timeout(1.0), env.timeout(2.0)])
    env.run(until=all_condition)
    assert env.now == 2.0
    any_condition = env.any_of([env.timeout(1.0), env.timeout(5.0)])
    env.run(until=any_condition)
    assert env.now == 3.0


def test_env_timeout_delivers_its_value(env):
    got = []

    def sleeper(env):
        got.append((yield env.timeout(2.5, "woke")))
        got.append((yield env.timeout(0)))
        got.append(env.now)

    env.process(sleeper(env))
    env.run()
    assert got == ["woke", None, 2.5]


def test_env_timeout_rejects_a_negative_delay(env):
    with pytest.raises(ValueError, match="negative timeout delay"):
        env.timeout(-0.5)
    assert env.queued_event_count() == 0
