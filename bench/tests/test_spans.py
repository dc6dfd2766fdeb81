"""The span recorder: parents, self time and the written spans."""

import json

from spans import SpanRecorder


def test_self_time_subtracts_child_spans(tmp_path):
    recorder = SpanRecorder()

    def op(call):
        call("child", sum, range(1000))
        call("child", sum, range(1000))
        return "done"

    recorder.op_id = 7
    assert recorder.call("op", op, recorder.call) == "done"
    assert recorder.names == ["op", "child", "child"]
    assert recorder.parents == [-1, 0, 0]
    durations = recorder.durations()
    self_times = recorder.self_times()
    assert self_times["child"] == sum(durations["child"])
    assert self_times["op"] == durations["op"][0] - sum(durations["child"])

    path = tmp_path / "spans.jsonl"
    recorder.write(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in rows] == recorder.names
    assert {r["op"] for r in rows} == {7}
    assert all(r["end"] >= r["start"] for r in rows)


def test_a_raising_call_still_closes_its_span():
    recorder = SpanRecorder()

    def boom():
        raise ValueError("x")

    try:
        recorder.call("op", boom)
    except ValueError:
        pass
    assert recorder.ends[0] >= recorder.starts[0] > 0
    recorder.call("next", int)
    assert recorder.parents == [-1, -1]
