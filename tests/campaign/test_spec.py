"""Campaign spec validation and expansion."""

import json

import pytest

from repro.campaign import CampaignSpecError, load_spec, parse_spec


def _minimal(**overrides):
    data = {
        "name": "t",
        "matrix": {
            "tms": ["seq"],
            "properties": ["ss"],
            "sizes": [[2, 1]],
        },
    }
    data.update(overrides)
    return data


def test_matrix_expands_cross_product():
    spec = parse_spec(
        _minimal(
            matrix={
                "tms": ["seq", "2pl"],
                "properties": ["ss", "op"],
                "sizes": [[2, 1], [2, 2]],
            }
        )
    )
    assert len(spec.cells) == 8
    assert spec.cells[0]["id"] == "seq/ss/2x1"
    assert {cell["id"] for cell in spec.cells} == {
        f"{tm}/{prop}/{n}x{k}"
        for tm in ("seq", "2pl")
        for prop in ("ss", "op")
        for (n, k) in ((2, 1), (2, 2))
    }


def test_defaults_flow_into_cells_and_overrides_win():
    spec = parse_spec(
        {
            "name": "t",
            "defaults": {"timeout_s": 42, "retries": 5},
            "matrix": {
                "tms": ["seq"],
                "properties": ["ss"],
                "sizes": [[2, 1]],
            },
            "cells": [
                {"tm": "seq", "property": "ss", "n": 2, "k": 1,
                 "timeout_s": 7}
            ],
        }
    )
    # the explicit cell replaced its matrix twin
    assert len(spec.cells) == 1
    cell = spec.cells[0]
    assert cell["timeout_s"] == 7  # override wins
    assert cell["retries"] == 5  # default flows through


def test_manager_suffix_distinguishes_ids():
    spec = parse_spec(
        {
            "name": "t",
            "cells": [
                {"tm": "dstm", "property": "ss"},
                {"tm": "dstm", "property": "ss", "manager": "polite"},
            ],
        }
    )
    assert [cell["id"] for cell in spec.cells] == [
        "dstm/ss/2x2",
        "dstm/ss/2x2+polite",
    ]


def test_digest_is_stable_and_content_sensitive():
    a = parse_spec(_minimal())
    b = parse_spec(_minimal())
    c = parse_spec(_minimal(defaults={"retries": 9}))
    assert a.digest == b.digest
    assert a.digest != c.digest


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda d: d.__setitem__("bogus", 1), "unknown key"),
        # Removed intra-check sharding / spec-engine knobs fail loudly.
        *(
            (
                lambda d, key=key: d.__setitem__("defaults", {key: 1}),
                f"unknown key '{key}'",
            )
            for key in ("jobs", "shard_product", "chunk_size",
                        "spec_compiled")
        ),
        (
            lambda d: d.__setitem__(
                "matrix", {"tms": ["nope"], "properties": ["ss"],
                           "sizes": [[2, 1]]}
            ),
            "unknown TM",
        ),
        (
            lambda d: d.__setitem__(
                "matrix", {"tms": ["seq"], "properties": ["zz"],
                           "sizes": [[2, 1]]}
            ),
            "unknown property",
        ),
        (
            lambda d: d.__setitem__("defaults", {"timeout_s": -1}),
            "timeout_s",
        ),
        (
            lambda d: d.__setitem__("defaults", {"retries": -1}),
            "retries",
        ),
        (
            lambda d: d.__setitem__(
                "defaults", {"inject": {"bogus": 1}}
            ),
            "inject",
        ),
        (
            lambda d: d.__setitem__(
                "defaults", {"cache_backend": "floppy"}
            ),
            "cache_backend",
        ),
        (
            lambda d: d.__setitem__("defaults", {"manager": "nope"}),
            "unknown manager",
        ),
    ],
)
def test_invalid_specs_are_rejected(mutate, match):
    data = _minimal()
    mutate(data)
    with pytest.raises(CampaignSpecError, match=match):
        parse_spec(data)


def test_duplicate_explicit_cells_rejected():
    with pytest.raises(CampaignSpecError, match="duplicate"):
        parse_spec(
            {
                "name": "t",
                "cells": [
                    {"tm": "seq", "property": "ss"},
                    {"tm": "seq", "property": "ss"},
                ],
            }
        )


def test_empty_spec_rejected():
    with pytest.raises(CampaignSpecError, match="no cells"):
        parse_spec({"name": "t"})


def test_spec_error_is_value_error_for_cli_exit_2():
    assert issubclass(CampaignSpecError, ValueError)


def test_load_spec_bad_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text("{not json")
    with pytest.raises(CampaignSpecError, match="not valid JSON"):
        load_spec(str(path))
    with pytest.raises(CampaignSpecError, match="cannot read"):
        load_spec(str(tmp_path / "absent.json"))


def test_load_spec_round_trip(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_minimal()))
    spec = load_spec(str(path))
    assert spec.cells[0]["id"] == "seq/ss/2x1"


def test_backoff_cap_defaults_and_overrides():
    spec = parse_spec(_minimal())
    assert spec.cells[0]["backoff_cap_s"] == 30.0
    spec = parse_spec(_minimal(defaults={"backoff_cap_s": 5}))
    assert spec.cells[0]["backoff_cap_s"] == 5


@pytest.mark.parametrize("bad", [0, -3, "fast", True])
def test_backoff_cap_must_be_a_positive_number(bad):
    with pytest.raises(CampaignSpecError, match="backoff_cap_s"):
        parse_spec(_minimal(defaults={"backoff_cap_s": bad}))
