"""Self-tests of the tracer: span recording, self time, install/remove."""

import types

import pytest

import dilqr
import layers
from tracer import Tracer, self_times


def span(name, parent, start, end):
    return (name, parent, start, end, True, None)


def test_self_time_subtracts_children_from_a_synthetic_tree():
    spans = [
        span("root", -1, 0.0, 10.0),
        span("a", 0, 1.0, 4.0),
        span("a.leaf", 1, 2.0, 3.0),
        span("b", 0, 5.0, 9.0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_merges_overlapping_children_and_clips_overhang():
    spans = [
        span("root", -1, 0.0, 10.0),
        span("x", 0, 1.0, 5.0),
        span("y", 0, 3.0, 7.0),
        span("z", 0, 8.0, 12.0),
    ]
    # covered: [1, 7] and [8, 10] -> 8 of 10
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_self_time_of_a_subtree_ignores_spans_outside_it():
    spans = [
        span("first", -1, 0.0, 1.0),
        span("second", -1, 2.0, 6.0),
        span("child", 1, 3.0, 4.0),
    ]
    assert self_times(spans, 1, 3) == pytest.approx([3.0, 1.0])


def test_wrap_records_name_parent_value_and_failure():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return 2 * x

    inner_t = tracer.wrap("inner", inner, measure=lambda args, result: result)
    outer_t = tracer.wrap("outer", lambda: inner_t(3))
    assert outer_t() == 6
    with pytest.raises(ValueError):
        inner_t(-1)
    (n0, p0, s0, e0, ok0, v0), (n1, p1, s1, e1, ok1, v1), (n2, p2, *_, ok2, v2) = tracer.spans
    assert (n0, p0, ok0, n1, p1, ok1, v1) == ("outer", -1, True, "inner", 0, True, 6)
    assert s0 <= s1 <= e1 <= e0
    assert (n2, p2, ok2, v2) == ("inner", -1, False, None)


def test_install_and_remove_restore_every_original():
    before = layers.originals()
    env = dilqr.make_env("pendulum")
    workload = types.SimpleNamespace(env=env)
    tracer = Tracer()
    layers.install(tracer, workload)
    try:
        assert all(getattr(o, a) is not fn for (o, a), fn in before.items())
        assert workload.env is not env and workload.env.step_fn is not env.step_fn
    finally:
        tracer.remove()
    assert all(getattr(o, a) is fn for (o, a), fn in before.items())
    assert workload.env is env


def test_traced_env_counts_rows_of_batched_calls():
    import numpy as np

    tracer = Tracer()
    env = tracer.traced_env(dilqr.make_env("pendulum"))
    env.step_fn(np.zeros(2), np.zeros(1))
    env.step_fn(np.zeros((5, 2)), np.zeros((5, 1)))
    assert [s[5] for s in tracer.spans] == [1, 5]
