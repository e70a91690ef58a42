import pytest

from spans import Recorder, patched


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def at(clock: FakeClock, when: float) -> None:
    clock.now = when


def test_self_time_subtracts_children_across_layers():
    clock = FakeClock()
    recorder = Recorder(clock)
    outer = recorder.enter("engine.run", "engine")          # 0 .. 10
    at(clock, 2)
    middle = recorder.enter("Lock.acquire", "locks")        # 2 .. 5
    at(clock, 3)
    inner = recorder.enter("Resource.request", "engine")    # 3 .. 4
    at(clock, 4)
    recorder.exit(inner)
    at(clock, 5)
    recorder.exit(middle)
    at(clock, 10)
    recorder.exit(outer)

    assert recorder.self_s["engine.run"] == pytest.approx(7)
    assert recorder.self_s["Lock.acquire"] == pytest.approx(2)
    assert recorder.self_s["Resource.request"] == pytest.approx(1)
    # The layer re-entered below another layer gets both its pieces.
    assert recorder.layer_self_s("engine") == pytest.approx(8)
    assert recorder.layer_self_s("locks") == pytest.approx(2)
    assert recorder.nested_s[("engine.run", "Lock.acquire")] == 3
    assert recorder.nested_s[("Lock.acquire", "Resource.request")] == 1


def test_reentering_the_same_layer_never_counts_twice():
    clock = FakeClock()
    recorder = Recorder(clock)
    outer = recorder.enter("solve", "analysis")             # 0 .. 10
    at(clock, 2)
    inner = recorder.enter("solve", "analysis")             # 2 .. 6
    at(clock, 6)
    recorder.exit(inner)
    at(clock, 10)
    recorder.exit(outer)

    assert recorder.calls["solve"] == 2
    assert recorder.self_s["solve"] == pytest.approx(10)
    assert recorder.layer_self_s("analysis") == pytest.approx(10)
    assert recorder.layer_calls("analysis") == 2


def test_self_times_add_up_to_the_root_children():
    clock = FakeClock()
    recorder = Recorder(clock)
    for start, layer in ((0, "a"), (3, "b"), (7, "a")):
        at(clock, start)
        span = recorder.enter(layer, layer)
        at(clock, start + 2)
        recorder.exit(span)
    assert recorder.root.covered == pytest.approx(6)
    assert (recorder.layer_self_s("a") + recorder.layer_self_s("b")
            == pytest.approx(6))


def test_wrapped_call_closes_its_span_when_it_raises():
    ticks = iter(range(100))
    recorder = Recorder(lambda: float(next(ticks)))

    def boom():
        raise KeyError("x")

    traced = recorder.wrap(boom, "boom", "hybrid")
    with pytest.raises(KeyError):
        traced()
    assert recorder.calls["boom"] == 1
    assert recorder._open is recorder.root


def test_result_hook_sees_each_result():
    recorder = Recorder()
    seen = []
    traced = recorder.wrap(lambda x: x * 2, "double", "w",
                           lambda rec, result: seen.append(result))
    assert [traced(1), traced(2)] == [2, 4]
    assert seen == [2, 4]


def test_closing_out_of_order_is_an_error():
    recorder = Recorder(FakeClock())
    outer = recorder.enter("a", "a")
    recorder.enter("b", "b")
    with pytest.raises(RuntimeError):
        recorder.exit(outer)


def test_patched_restores_originals_even_on_error():
    class Owner:
        def method(self):
            return "original"

    with pytest.raises(ValueError):
        with patched([(Owner, "method", lambda self: "patched")]):
            assert Owner().method() == "patched"
            raise ValueError
    assert Owner().method() == "original"
