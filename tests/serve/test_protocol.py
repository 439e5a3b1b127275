"""The serve wire protocol: strict validation, canonical encoding."""

import json

import pytest

from repro.serve.protocol import (
    ProtocolError,
    build_cell,
    busy_response,
    check_response,
    encode,
    error_response,
    parse_request,
)


def _line(obj) -> bytes:
    return (json.dumps(obj) + "\n").encode()


def test_parse_defaults_op_to_check():
    request = parse_request(_line({"tm": "dstm", "property": "ss"}))
    assert request["op"] == "check"


def test_parse_rejects_garbage_and_non_objects():
    with pytest.raises(ProtocolError, match="not valid JSON"):
        parse_request(b"{nope\n")
    with pytest.raises(ProtocolError, match="JSON object"):
        parse_request(b"[1, 2]\n")
    with pytest.raises(ProtocolError, match="unknown op"):
        parse_request(_line({"op": "frobnicate"}))
    with pytest.raises(ProtocolError, match="id must be"):
        parse_request(_line({"op": "health", "id": [1]}))
    with pytest.raises(ProtocolError, match="no keys beyond id"):
        parse_request(_line({"op": "health", "tm": "dstm"}))


def test_build_cell_is_campaign_strict():
    request = parse_request(
        _line({"tm": "dstm", "property": "ss", "n": 2, "k": 1,
               "timeout_s": 5, "id": 7})
    )
    cell, warm = build_cell(request)
    assert warm is True
    assert cell["tm"] == "dstm" and cell["timeout_s"] == 5
    assert cell["retries"] == 2  # campaign POLICY_DEFAULTS apply

    # same strictness as a campaign spec: unknown keys/names are errors
    with pytest.raises(ProtocolError, match="unknown key"):
        build_cell(parse_request(
            _line({"tm": "dstm", "property": "ss", "bogus": 1})
        ))
    with pytest.raises(ProtocolError, match="unknown TM"):
        build_cell(parse_request(
            _line({"tm": "nope", "property": "ss"})
        ))
    # removed intra-check sharding / spec-engine knobs fail loudly
    for key in ("jobs", "shard_product", "chunk_size", "spec_compiled"):
        with pytest.raises(ProtocolError, match=f"unknown key.*'{key}'"):
            build_cell(parse_request(
                _line({"tm": "dstm", "property": "ss", key: 1})
            ))
    with pytest.raises(ProtocolError, match="missing 'property'"):
        build_cell(parse_request(_line({"tm": "dstm"})))


def test_build_cell_owns_the_cache():
    for key in ("cache_dir", "cache_backend"):
        with pytest.raises(ProtocolError, match="daemon owns"):
            build_cell(parse_request(_line(
                {"tm": "dstm", "property": "ss", key: "/tmp/x"}
            )))
    with pytest.raises(ProtocolError, match="warm must be"):
        build_cell(parse_request(_line(
            {"tm": "dstm", "property": "ss", "warm": "yes"}
        )))
    _cell, warm = build_cell(parse_request(_line(
        {"tm": "dstm", "property": "ss", "warm": False}
    )))
    assert warm is False


def test_build_cell_applies_server_defaults_under_request():
    request = parse_request(
        _line({"tm": "dstm", "property": "ss", "retries": 0})
    )
    cell, _warm = build_cell(
        request, {"timeout_s": 9.0, "retries": 5}
    )
    assert cell["timeout_s"] == 9.0  # server default fills the gap
    assert cell["retries"] == 0  # the request wins


def test_responses_round_trip_and_sort_keys():
    outcome = {
        "status": "pass",
        "result": {"holds": True},
        "error": None,
        "attempts": 1,
        "faults": [],
        "seconds": 0.01,
        "stats": {"safety_rows": 0, "warm_safety_rows": 5},
    }
    record = check_response("abc", outcome)
    assert record["id"] == "abc" and record["status"] == "pass"
    assert record["stats"]["safety_rows"] == 0
    line = encode(record)
    assert line.endswith(b"\n")
    assert json.loads(line) == record
    # sorted keys: canonical bytes for differential pins
    assert line == encode(json.loads(line.decode()))

    busy = busy_response(1)
    assert busy["status"] == "busy" and busy["result"] is None
    err = error_response(None, "boom")
    assert err["op"] == "error" and err["error"] == "boom"
