"""Supervised cell execution: isolation, faults, retries, degradation.

Cells here are tiny ((2,1) instances) so each subprocess round-trip
stays fast; the fork start method means children inherit the parent's
already-imported modules.
"""

import os

import pytest

from repro.campaign.supervisor import run_cell
from repro.campaign.spec import parse_spec
from repro.checking import check_safety
from repro.spec import SS
from repro.spec.compiled import (
    CompiledSpecDFA,
    cached_spec_dfa,
    clear_spec_dfa_cache,
)
from repro.tm import DSTM


def _cell(**overrides):
    data = {
        "name": "t",
        "cells": [
            dict(
                {"tm": "dstm", "property": "ss", "n": 2, "k": 1,
                 "retries": 1, "backoff_s": 0, "timeout_s": 120},
                **overrides,
            )
        ],
    }
    return parse_spec(data).cells[0]


def test_clean_cell_matches_direct_check():
    entry = run_cell(_cell())
    assert entry["status"] == "pass"
    assert entry["faults"] == []
    assert entry["attempts"] == 1
    ref = check_safety(DSTM(2, 1), SS)
    assert entry["result"] == {
        "tm_name": ref.tm_name,
        "holds": ref.holds,
        "counterexample": None,
        "tm_states": ref.tm_states,
        "spec_states": ref.spec_states,
        "product_states": ref.product_states,
    }


def test_violation_reports_fail_with_counterexample():
    entry = run_cell(
        _cell(tm="modtl2", property="op", n=2, k=2)
    )
    assert entry["status"] == "fail"
    ref = check_safety(
        __import__("repro.tm", fromlist=["ModifiedTL2"]).ModifiedTL2(2, 2),
        __import__("repro.spec", fromlist=["OP"]).OP,
    )
    from repro.core.statements import format_word

    assert entry["result"]["counterexample"] == format_word(
        ref.counterexample
    )
    assert entry["result"]["product_states"] == ref.product_states


def test_sigkilled_worker_is_retried_to_the_same_result():
    """A SIGKILLed subprocess surfaces as a crash fault; the retry
    completes with the exact result an uninjected run produces."""
    clean = run_cell(_cell())
    entry = run_cell(_cell(inject={"sigkill_attempts": 1}))
    assert entry["status"] == "pass"
    assert entry["attempts"] == 2
    [fault] = entry["faults"]
    assert fault["class"] == "crash"
    assert "-9" in fault["detail"]  # SIGKILL exit code
    assert entry["result"] == clean["result"]


def test_hang_hits_the_wall_clock():
    entry = run_cell(
        _cell(
            timeout_s=0.5,
            retries=0,
            inject={"hang_attempts": 1, "hang_s": 60},
        )
    )
    assert entry["status"] == "timeout"
    assert entry["attempts"] == 1
    [fault] = entry["faults"]
    assert fault["class"] == "timeout"


def test_retry_exhaustion_records_error_without_raising():
    entry = run_cell(
        _cell(retries=1, inject={"fail_attempts": 5})
    )
    assert entry["status"] == "error"
    assert entry["attempts"] == 2
    assert [fault["class"] for fault in entry["faults"]] == [
        "exception",
        "exception",
    ]
    assert "injected failure" in entry["error"]


def test_degradation_ladder_warm_then_cold(tmp_path):
    """A fault degrades a warm cell to cold before succeeding; the
    degraded result is still the canonical one (warm starts are
    optimization-only), and a cold cell has no rung left."""
    clean = run_cell(_cell())
    entry = run_cell(
        _cell(
            cache_dir=str(tmp_path),
            retries=2,
            inject={"fail_attempts": 2},
        )
    )
    assert entry["status"] == "pass"
    assert entry["attempts"] == 3
    assert [fault["degraded"] for fault in entry["faults"]] == [
        "cold",
        None,
    ]
    assert entry["result"] == clean["result"]


def test_memory_cap_reports_memory_fault():
    entry = run_cell(
        _cell(
            memory_mb=512,
            retries=0,
            inject={"alloc_mb": 4096},
        )
    )
    assert entry["status"] == "error"
    [fault] = entry["faults"]
    assert fault["class"] == "memory"


def test_retry_delay_decorrelated_jitter():
    from repro.campaign.supervisor import BACKOFF_CAP_S, _retry_delay

    calls = []

    def rng(low, high):
        calls.append((low, high))
        return high  # worst case: always the top of the window

    # the window's top triples from the previous delay, never below base
    delay = _retry_delay(0.1, 0.1, rng)
    assert calls[-1] == (0.1, pytest.approx(0.3))
    delay = _retry_delay(0.1, delay, rng)
    assert calls[-1] == (0.1, pytest.approx(0.9))
    # and the cap bounds any single delay
    assert _retry_delay(0.1, 1e9, rng) == BACKOFF_CAP_S
    # a shrunken prev never drops the window below base
    assert _retry_delay(0.5, 0.0, rng) == pytest.approx(0.5)


def test_run_cell_reports_engine_stats():
    entry = run_cell(_cell())
    assert entry["stats"]["safety_rows"] > 0
    assert entry["stats"]["warm_safety_rows"] == 0


def test_run_cell_collects_warm_blobs_for_resident_store():
    from repro.cache import TieredCacheBackend

    store = TieredCacheBackend()
    cell = _cell(cache_dir="<resident>", cache_backend="memory")
    first = run_cell(cell, cache=store, collect_warm=True)
    assert first["status"] == "pass"
    assert first["warm"]  # the forked child shipped its tables back
    store.absorb_blobs(first["warm"])

    second = run_cell(cell, cache=store, collect_warm=True)
    assert second["result"] == first["result"]
    assert second["stats"]["safety_rows"] == 0  # resident tier hit
    # a holding check replays its restored dense table alone: the
    # engine's rows are never read
    assert second["stats"]["warm_dense_pairs"] > 0
    assert second["stats"]["warm_safety_rows"] == 0
    assert second["warm"] == {}  # nothing new was built


def test_exception_detail_names_the_raise_site():
    """The fault detail carries ``file:line`` of the raising frame — an
    errored cell in a journal is triageable without re-running it."""
    entry = run_cell(_cell(retries=0, inject={"fail_attempts": 1}))
    assert entry["status"] == "error"
    assert "injected failure" in entry["error"]
    assert " @ supervisor.py:" in entry["error"]


def test_retry_seed_validated_at_the_spec_layer():
    from repro.campaign.spec import CampaignSpecError

    for good in (0, 7, None):
        assert _cell(retry_seed=good)["retry_seed"] == good
    for bad in (-1, 1.5, "x", True):
        with pytest.raises(CampaignSpecError, match="retry_seed"):
            _cell(retry_seed=bad)


def test_seeded_retry_schedule_is_deterministic():
    """``retry_seed`` routes the decorrelated jitter through a private
    PRNG: same seed, same delays; no seed falls back to the module
    RNG (and a seeded faulty cell still converges to the clean result)."""
    import random

    from repro.campaign.supervisor import _retry_delay

    def schedule(seed):
        rng = random.Random(seed).uniform
        delays, prev = [], 0.2
        for _ in range(4):
            prev = _retry_delay(0.2, prev, rng)
            delays.append(prev)
        return delays

    assert schedule(3) == schedule(3)
    assert schedule(3) != schedule(4)

    clean = run_cell(_cell())
    entry = run_cell(
        _cell(retry_seed=3, retries=1, inject={"fail_attempts": 1})
    )
    assert entry["status"] == "pass"
    assert entry["attempts"] == 2
    assert entry["result"] == clean["result"]


def test_run_cell_profile_policy_key():
    entry = run_cell(_cell(profile=True))
    assert entry["status"] == "pass"
    assert isinstance(entry["profile"], dict) and entry["profile"]
    # a non-profiled cell carries no profile key at all
    assert "profile" not in run_cell(_cell())


def test_retry_delay_honors_a_cell_level_cap():
    from repro.campaign.supervisor import BACKOFF_CAP_S, _retry_delay

    def rng(_low, high):
        return high

    # a cell's backoff_cap_s threads through as cap_s and binds first
    assert _retry_delay(0.1, 1e9, rng, cap_s=5.0) == 5.0
    assert _retry_delay(0.1, 1e9, rng, cap_s=90.0) == 90.0
    # the default cap is the historical 30s ceiling
    assert _retry_delay(0.1, 1e9, rng) == BACKOFF_CAP_S


def test_backoff_cap_surfaces_in_the_report(tmp_path):
    from repro.campaign import parse_spec, run_campaign
    from repro.campaign.report import build_report

    spec = parse_spec(
        {
            "name": "cap",
            "defaults": {"timeout_s": 120, "retries": 1,
                         "backoff_s": 0, "backoff_cap_s": 7.5},
            "cells": [
                {"tm": "seq", "property": "ss", "n": 2, "k": 1}
            ],
        }
    )
    run = run_campaign(spec, str(tmp_path / "j.jsonl"))
    report = build_report(run)
    assert report["cells"][0]["backoff_cap_s"] == 7.5


# ----------------------------------------------------------------------
# Spec-table hand-back: forked cells inherit the supervisor's spec DFA
# ----------------------------------------------------------------------


@pytest.fixture
def empty_spec_memo():
    """Every hand-back test starts from, and leaves, an empty memo."""
    clear_spec_dfa_cache()
    yield
    clear_spec_dfa_cache()


def _memo():
    return cached_spec_dfa(2, 1, SS)


def test_second_cell_inherits_the_spec_table(empty_spec_memo):
    """The first cell builds the spec and hands it back; the next cell
    on the same (n, k, property) builds nothing, and its result equals
    a run from a fresh (empty-memo) supervisor."""
    first = run_cell(_cell())
    assert first["stats"]["spec_states_built"] == _memo().num_states > 0
    assert first["stats"]["spec_handback"] == "installed"

    second = run_cell(_cell(tm="2pl"))
    assert second["stats"]["spec_states_built"] == 0
    assert "spec_handback" not in second["stats"]  # nothing offered

    clear_spec_dfa_cache()
    fresh = run_cell(_cell(tm="2pl"))
    assert fresh["stats"]["spec_states_built"] > 0
    assert second["result"] == fresh["result"]
    assert second["status"] == fresh["status"]


def test_installed_table_equals_a_built_one(empty_spec_memo):
    run_cell(_cell())
    assert _memo().rows == CompiledSpecDFA(2, 1, SS).ensure().rows
    assert _memo().built_states == 0  # installed, not built here


def test_lazy_spec_and_naive_cells_hand_back_nothing(empty_spec_memo):
    for overrides in ({"lazy_spec": True}, {"compiled": False}):
        entry = run_cell(_cell(**overrides))
        assert entry["status"] == "pass"
        assert "spec_states_built" not in entry.get("stats", {})
        assert _memo().rows is None


@pytest.mark.parametrize(
    "malform",
    ["wrong-length", "sink-below", "cell-at-num-states", "wrong-type"],
)
def test_malformed_hand_back_is_rejected_and_tallied(
    empty_spec_memo, monkeypatch, malform
):
    """A child whose flattened table is malformed: the supervisor
    rejects it (tallied, never raised), its memo stays empty, and the
    next cell rebuilds the spec with the same verdict."""
    import repro.spec.compiled as compiled

    clean = run_cell(_cell())
    clear_spec_dfa_cache()
    real = compiled.flatten_spec_rows

    def bad_flatten(rows):
        flat = real(rows)
        if malform == "wrong-length":
            return flat[:-1]
        if malform == "sink-below":
            flat[0] = -2
            return flat
        if malform == "cell-at-num-states":
            flat[0] = len(rows)
            return flat
        return list(flat)  # not a typed int vector

    # Forked children inherit the patched module attribute.
    monkeypatch.setattr(compiled, "flatten_spec_rows", bad_flatten)
    entry = run_cell(_cell())
    assert entry["status"] == "pass" and entry["faults"] == []
    assert entry["stats"]["spec_handback"] == "rejected"
    assert _memo().rows is None
    monkeypatch.setattr(compiled, "flatten_spec_rows", real)

    again = run_cell(_cell())
    assert again["stats"]["spec_states_built"] > 0
    assert again["result"] == entry["result"] == clean["result"]


def test_install_rejects_a_non_dict_payload(empty_spec_memo):
    from repro.campaign.supervisor import _install_spec_table

    msg = {"ok": True, "spec_dfa": "not a table"}
    assert _install_spec_table(_cell(), msg) == "rejected"
    assert _memo().rows is None


def test_pack_failure_never_faults_the_check(empty_spec_memo, monkeypatch):
    import repro.spec.compiled as compiled

    clean = run_cell(_cell())
    clear_spec_dfa_cache()

    def broken(rows):
        raise TypeError("cannot flatten")

    monkeypatch.setattr(compiled, "flatten_spec_rows", broken)
    entry = run_cell(_cell())
    assert entry["status"] == "pass"
    assert entry["attempts"] == 1 and entry["faults"] == []
    assert entry["result"] == clean["result"]
    assert entry["stats"]["spec_handback"] == "pack_failed"
    assert _memo().rows is None


@pytest.mark.parametrize("inject", ["sigkill_attempts", "fail_attempts"])
def test_faulted_attempt_installs_nothing(empty_spec_memo, inject):
    """Only a successful attempt hands a table back: an exhausted cell
    leaves the memo empty, and a retried one installs the retry's
    table with the unchanged result."""
    clean = run_cell(_cell())
    clear_spec_dfa_cache()
    failed = run_cell(_cell(retries=0, inject={inject: 1}))
    assert failed["status"] == "error"
    assert _memo().rows is None

    entry = run_cell(_cell(retries=1, inject={inject: 1}))
    assert entry["status"] == "pass" and entry["attempts"] == 2
    assert entry["result"] == clean["result"]
    assert entry["stats"]["spec_states_built"] > 0
    assert entry["stats"]["spec_handback"] == "installed"
    assert _memo().rows is not None


def _spec_saved(cache_dir) -> bool:
    return any(name.startswith("spec-dfa") for name in os.listdir(cache_dir))


@pytest.mark.parametrize(
    "caches",
    [(None, "a", "b"), ("a", "b"), (None, None, "a", "b")],
    ids=["cold-then-two-caches", "cache-then-cache", "two-cold-first"],
)
def test_inherited_table_persists_like_one_process(
    empty_spec_memo, tmp_path, caches
):
    """Cells run in order persist the spec table to exactly the caches
    one process running the same checks in order would: the first
    cache after the build receives it, later ones do not."""

    def dirs(root):
        out = []
        for name in caches:
            if name is None:
                out.append(None)
            else:
                path = os.path.join(str(tmp_path), root, name)
                os.makedirs(path)
                out.append(path)
        return out

    reference = dirs("one-process")
    for cache_dir in reference:
        check_safety(DSTM(2, 1), SS, cache_dir=cache_dir)
    expected = [_spec_saved(d) for d in reference if d is not None]
    assert expected[0] and not any(expected[1:])

    clear_spec_dfa_cache()
    cells = dirs("cells")
    for cache_dir in cells:
        entry = run_cell(_cell(cache_dir=cache_dir))
        assert entry["status"] == "pass"
    assert [_spec_saved(d) for d in cells if d is not None] == expected


def test_mmap_restored_child_hands_back_without_faulting(
    empty_spec_memo, tmp_path
):
    """A child that warm-loads the spec from the mmap backend holds
    memoryview rows; it still hands the table back — no ``exception``
    fault, no cold retry — and the supervisor installs it."""
    cell = _cell(cache_dir=str(tmp_path), cache_backend="mmap")
    first = run_cell(cell)
    assert first["status"] == "pass"
    clear_spec_dfa_cache()

    warm = run_cell(cell)
    assert warm["status"] == "pass"
    assert warm["attempts"] == 1 and warm["faults"] == []
    assert warm["result"] == first["result"]
    assert warm["stats"]["warm_dense_pairs"] > 0
    assert warm["stats"]["spec_states_built"] == 0  # loaded, not built
    assert warm["stats"]["spec_handback"] == "installed"
    assert _memo().rows == CompiledSpecDFA(2, 1, SS).ensure().rows
