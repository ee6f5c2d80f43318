"""Hostile artifacts: every reader answers with a ``ValueError`` naming the file.

The three readers of on-disk artifacts — ``read_trace`` (``repro-trace``),
``read_tuned_config`` and ``load_config_mapping`` (``repro-tuned-config``,
the ``--config FILE`` door) — must never leak an ``AttributeError``,
``TypeError`` or a path-less ``JSONDecodeError``, and must never accept a
version that is not an int.  A malformed version is "invalid", not "newer".
"""

import json

import pytest

from repro.trace.recorder import TRACE_FORMAT, read_trace
from repro.tuning import TUNED_CONFIG_FORMAT, load_config_mapping, read_tuned_config

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
