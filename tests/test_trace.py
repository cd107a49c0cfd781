import pytest

from panostitch import _trace


def test_span_without_a_recorder_only_yields_its_counts():
    with _trace.span("stage", a=1) as counts:
        counts["b"] = 2
    assert counts == {"a": 1, "b": 2}


def test_recorder_gets_each_span_with_its_counts():
    seen = []
    with _trace.recording(lambda *event: seen.append(event)):
        with _trace.span("outer", n=3) as counts:
            with _trace.span("inner"):
                pass
            counts["done"] = True
    assert [(name, counts) for name, _, counts in seen] == [
        ("inner", {}), ("outer", {"n": 3, "done": True})]
    assert all(seconds >= 0 for _, seconds, _ in seen)
    with _trace.span("after"):   # the recorder is gone again
        pass
    assert len(seen) == 2


def test_failed_stage_is_not_recorded():
    seen = []
    with _trace.recording(lambda *event: seen.append(event)):
        with pytest.raises(ValueError):
            with _trace.span("stage"):
                raise ValueError("no")
    assert seen == []
