"""The ``repro chaos`` sweeper: matrix, determinism, recovery proofs.

The slow end-to-end sweeps live behind the same real-subprocess style
as ``tests/integration``; the fast half pins the schedule family and
the trial-record byte-determinism the acceptance criteria demand.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.campaign.chaos import (
    BATCH_SPEC,
    CHAOS_USAGE,
    PLANE_SCENARIOS,
    PLANES,
    build_trials,
    chaos_exit_code,
    default_schedule,
    parse_seed_range,
    render_chaos,
    schedule_planes,
)
from repro.campaign.journal import Journal
from repro.faultplane import schedule_digest

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    ))),
    "src",
)


def _chaos(tmp_path, *argv):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    env.pop("REPRO_FAULT_SCHEDULE", None)
    return subprocess.run(
        [sys.executable, "-m", "repro", "chaos"] + list(argv),
        cwd=str(tmp_path), env=env, timeout=900,
        capture_output=True, text=True,
    )


# ----------------------------------------------------------------------
# The schedule family and trial matrix (fast)
# ----------------------------------------------------------------------


def test_family_digests_are_pinned():
    # The family is part of the reproducibility contract: a schedule
    # regenerated from (plane, seed) must be the one a past report
    # named.  These digests only move when the family definition does.
    digests = {
        plane: schedule_digest(default_schedule(plane, 3))
        for plane in PLANES
    }
    assert digests == {
        "storage": "21eb183d2312cca85800693ccd288796"
                   "6a454837eee8d8183961300d6e9a3530",
        "journal": "ac248f4b2e3febc57b4cd5cee56888f7"
                   "2b359e33e25d3407e89167bcf38dcb36",
        "wire": "674081e5a0c8b012afcfa1f183011fce"
                "c70e7c84384dfff6569881c89875c45f",
    }


def test_seed_moves_every_plane_schedule():
    for plane in PLANES:
        assert (
            schedule_digest(default_schedule(plane, 0))
            != schedule_digest(default_schedule(plane, 1))
        )


def test_trial_matrix_covers_the_plane_scenario_map():
    trials = build_trials(seed_range=(0, 2))
    shape = {(plane, scenario) for plane, scenario, _ in trials}
    assert shape == {
        (plane, scenario)
        for plane in PLANES
        for scenario in PLANE_SCENARIOS[plane]
    }
    assert len(trials) == 2 * sum(
        len(PLANE_SCENARIOS[plane]) for plane in PLANES
    )


def test_explicit_schedule_selects_its_planes():
    schedule = default_schedule("journal", 5)
    assert schedule_planes(schedule) == ["journal"]
    trials = build_trials(seed_range=(0, 1), schedule=schedule)
    assert [(p, s) for p, s, _ in trials] == [("journal", "batch")]


def test_parse_seed_range():
    assert parse_seed_range("0:8") == (0, 8)
    assert parse_seed_range("3:5") == (3, 5)
    for bad in ("8", "5:5", "5:3", "-1:2", "a:b"):
        with pytest.raises(ValueError):
            parse_seed_range(bad)


def test_exit_code_and_render_rank_violations_first():
    report = {
        "trials": [
            {"schedule": {"name": "bad"}, "scenario": "batch",
             "plane": "journal", "seed": 1,
             "exits": {"baseline": 1, "faulted": 0},
             "violations": ["verdicts_identical"]},
            {"schedule": {"name": "good"}, "scenario": "batch",
             "plane": "storage", "seed": 0,
             "exits": {"baseline": 1, "faulted": 1},
             "violations": []},
        ],
        "summary": {"trials": 2, "violations": 1,
                    "by_invariant": {"verdicts_identical": 1}},
    }
    assert chaos_exit_code(report) == 1
    text = render_chaos(report)
    assert text.index("bad") < text.index("good")
    assert "verdicts_identical" in text


def test_cli_rejects_bad_inputs(tmp_path):
    assert _chaos(tmp_path, "--seed-range", "5:3").returncode == (
        CHAOS_USAGE
    )
    schedule = tmp_path / "s.json"
    schedule.write_text("{broken")
    assert _chaos(
        tmp_path, "--schedule", str(schedule)
    ).returncode == CHAOS_USAGE
    # The pool-dispatch site left with intra-check sharding.
    schedule.write_text(json.dumps({
        "name": "pool", "seed": 0,
        "rules": [{"site": "pool.dispatch", "fault": "eio"}],
    }))
    proc = _chaos(tmp_path, "--schedule", str(schedule))
    assert proc.returncode == CHAOS_USAGE
    assert "unknown site 'pool.dispatch'" in proc.stderr


# ----------------------------------------------------------------------
# Enumerated journal truncation: every torn tail recovers
# ----------------------------------------------------------------------


def test_every_tail_truncation_point_recovers(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = Journal(str(path))
    journal.start("camp", "d" * 64)
    journal.append_cell({"type": "cell", "id": "a", "status": "pass"})
    journal.append_cell({"type": "cell", "id": "b", "status": "fail"})
    intact = path.read_bytes()
    tail_start = intact.rindex(b"\n", 0, len(intact) - 1) + 1
    # Cut the final record at every byte offset, including cutting it
    # away entirely: the tail is skipped, never misread, and the
    # surviving prefix still parses.
    for cut in range(tail_start, len(intact)):
        path.write_bytes(intact[:cut])
        header, entries = Journal(str(path)).load()
        assert header is not None and header["digest"] == "d" * 64
        if cut == len(intact) - 1:
            # Only the newline is missing: the record itself is whole
            # and parseable, so it legitimately survives.
            assert set(entries) == {"a", "b"}, f"cut at byte {cut}"
        else:
            assert set(entries) == {"a"}, f"cut at byte {cut}"
    path.write_bytes(intact)
    _header, entries = Journal(str(path)).load()
    assert set(entries) == {"a", "b"}


# ----------------------------------------------------------------------
# Real sweeps (subprocess-heavy, integration pace)
# ----------------------------------------------------------------------


def _strip_env(record):
    return {
        key: record[key]
        for key in ("plane", "scenario", "seed", "schedule",
                    "schedule_digest", "exits", "invariants",
                    "violations", "observed", "report_sha256")
    }


def test_replay_by_seed_is_byte_identical(tmp_path):
    """The acceptance pin: the same (plane, seed) trial, swept twice
    in fresh workdirs, produces byte-identical trial records."""
    records = []
    for round_name in ("one", "two"):
        workdir = tmp_path / round_name
        report_path = tmp_path / f"{round_name}.json"
        proc = _chaos(
            tmp_path, "--seed-range", "1:2", "--plane", "journal",
            "--workdir", str(workdir),
            "--report-json", str(report_path), "--quiet",
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(report_path.read_text())
        assert report["summary"] == {
            "trials": 1, "violations": 0, "by_invariant": {},
        }
        records.append(
            json.dumps(_strip_env(report["trials"][0]),
                       sort_keys=True)
        )
    assert records[0] == records[1]


def test_storage_faults_uphold_invariants_and_surface(tmp_path):
    report_path = tmp_path / "report.json"
    proc = _chaos(
        tmp_path, "--seed-range", "0:1", "--plane", "storage",
        "--scenario", "hunt", "--workdir", str(tmp_path / "w"),
        "--report-json", str(report_path), "--quiet",
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(report_path.read_text())
    (trial,) = report["trials"]
    assert trial["violations"] == []
    assert trial["invariants"]["doctor_clean"]
    # Storage-plane observability: the injected torn writes left
    # quarantined corpses the doctor saw (and fixed).
    assert trial["observed"]["doctor"]["summary"]


def test_journal_faults_are_observable_in_the_report(tmp_path):
    report_path = tmp_path / "report.json"
    proc = _chaos(
        tmp_path, "--seed-range", "0:1", "--plane", "journal",
        "--workdir", str(tmp_path / "w"),
        "--report-json", str(report_path), "--quiet",
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(report_path.read_text())
    (trial,) = report["trials"]
    assert trial["violations"] == []
    assert trial["invariants"]["faults_observable"]
    assert sum(trial["observed"]["faultplane"].values()) > 0
    # The baseline report and the faulted run's verdicts agree.
    shas = trial["report_sha256"]
    assert shas["faulted"] == shas["baseline"]


def test_batch_spec_has_a_known_violation():
    # The chaos batch scenario deliberately includes a failing cell:
    # a sweep that only ever checks passing verdicts would miss a
    # fault that flips fail -> pass.
    tms = {cell["tm"] for cell in BATCH_SPEC["cells"]}
    assert "modtl2" in tms
