"""Hostile artifacts: every reader answers with a ``ValueError`` naming the file.

The three readers of on-disk artifacts — ``read_trace`` (``repro-trace``),
``read_tuned_config`` and ``load_config_mapping`` (``repro-tuned-config``,
the ``--config FILE`` door) — must never leak an ``AttributeError``,
``TypeError`` or a path-less ``JSONDecodeError``, and must never accept a
version that is not an int.  A malformed version is "invalid", not "newer".
A trace's rows and header ``meta`` are refused the same way, naming the
file and the 1-based line: ``TraceReplayer.from_file`` (``replay --trace``)
replays only finite, non-negative arrivals, positive deadlines and a
positive duration.
"""

import json

import pytest

from repro.trace.recorder import TRACE_FORMAT, read_trace
from repro.trace.replay import TraceReplayer
from repro.tuning.artifact import TUNED_CONFIG_FORMAT, load_config_mapping, read_tuned_config

READERS = {
    "read_trace": (read_trace, TRACE_FORMAT),
    "read_tuned_config": (read_tuned_config, TUNED_CONFIG_FORMAT),
    "load_config_mapping": (load_config_mapping, TUNED_CONFIG_FORMAT),
}


def _header(fmt, version):
    return json.dumps({"format": fmt, "version": version, "config": {}})


#: case -> (file text for a format, what the message must say)
CASES = {
    "empty": (lambda fmt: "", "empty|not valid JSON"),
    "truncated": (lambda fmt: _header(fmt, 1)[:20], "not valid JSON"),
    "non-object": (lambda fmt: "[1, 2]", "not a|JSON object"),
    "version-null": (lambda fmt: _header(fmt, None), "invalid artifact version None"),
    "version-true": (lambda fmt: _header(fmt, True), "invalid artifact version True"),
    "version-float": (lambda fmt: _header(fmt, 1.5), "invalid artifact version 1.5"),
    "version-str": (lambda fmt: _header(fmt, "x"), "invalid artifact version 'x'"),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("reader", READERS)
def test_hostile_artifact_is_a_value_error_naming_the_file(tmp_path, reader, case):
    read, fmt = READERS[reader]
    text, message = CASES[case]
    path = tmp_path / f"{case}.json"
    path.write_text(text(fmt))
    with pytest.raises(ValueError, match=message) as caught:
        read(path)
    assert str(path) in str(caught.value)
    assert "newer" not in str(caught.value)


# -- trace rows and meta ------------------------------------------------------

GOOD_ROW = {"request_id": 1, "arrival_s": 0.5, "deadline_s": 0.1}


def _trace(rows=(GOOD_ROW,), meta=None):
    header = {"format": TRACE_FORMAT, "version": 1}
    if meta is not None:
        header["meta"] = meta
    return "\n".join(json.dumps(line) for line in (header, *rows)) + "\n"


def _row(**fields):
    return [GOOD_ROW, {**GOOD_ROW, **fields}]


#: case -> (trace file text, 1-based line at fault, what the message must say)
TRACE_CASES = {
    "row-non-object": (_trace(rows=[GOOD_ROW, [1, 2]]), 3, "not a JSON object"),
    "row-missing-field": (_trace(rows=[{"request_id": 1}]), 2, "no 'arrival_s'"),
    "request-id-null": (_trace(rows=_row(request_id=None)), 3, "malformed request row"),
    "shape-int": (_trace(rows=_row(shape=5)), 3, "malformed request row"),
    "arrival-str": (_trace(rows=_row(arrival_s="x")), 3, "arrival_s is not a number"),
    "arrival-nan": (_trace(rows=_row(arrival_s=float("nan"))), 3, "arrival_s must be finite"),
    "arrival-negative": (_trace(rows=_row(arrival_s=-1.0)), 3, "arrival_s must be non-negative"),
    "deadline-inf": (_trace(rows=_row(deadline_s=float("inf"))), 3, "deadline_s must be finite"),
    "deadline-negative": (_trace(rows=_row(deadline_s=-1)), 3, "deadline_s must be positive"),
    "deadline-zero": (_trace(rows=_row(deadline_s=0)), 3, "deadline_s must be positive"),
    "meta-list": (_trace(meta=[1]), 1, "meta is not a JSON object"),
    "meta-faults-list": (_trace(meta={"faults": [1]}), 1, "meta.faults is not a JSON object"),
    "meta-faults-str": (_trace(meta={"faults": "x"}), 1, "meta.faults is not a JSON object"),
    "meta-faults-event-int": (_trace(meta={"faults": {"events": [1]}}), 1, "not a fault plan"),
    "meta-faults-event-past": (
        _trace(meta={"faults": {"events": [{"time_s": -1, "target": "replica:0"}]}}),
        1,
        "not a fault plan",
    ),
    "meta-faults-event-nan": (
        _trace(meta={"faults": {"events": [{"time_s": float("nan"), "target": "replica:0"}]}}),
        1,
        "not a fault plan",
    ),
    "duration-str": (_trace(meta={"duration_s": "x"}), 1, "duration_s is not a number"),
    "duration-negative": (_trace(meta={"duration_s": -5}), 1, "duration_s must be positive"),
    "duration-zero": (_trace(meta={"duration_s": 0}), 1, "duration_s must be positive"),
    "duration-nan": (_trace(meta={"duration_s": float("nan")}), 1, "duration_s must be finite"),
}


@pytest.mark.parametrize("case", TRACE_CASES)
def test_hostile_trace_is_a_value_error_naming_the_file_and_line(tmp_path, case):
    text, line, message = TRACE_CASES[case]
    path = tmp_path / f"{case}.jsonl"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as caught:
        TraceReplayer.from_file(path)
    assert str(caught.value).startswith(f"{path}:{line}: ")


def test_a_well_formed_trace_still_loads(tmp_path):
    path = tmp_path / "good.jsonl"
    path.write_text(_trace(rows=_row(request_id=2, shape=[1, 28, 28]), meta={"duration_s": 2}))
    replayer = TraceReplayer.from_file(path)
    assert [s.request_id for s in replayer.specs] == [1, 2]
    assert replayer.duration_s == 2.0
