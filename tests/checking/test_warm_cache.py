"""The safety pipeline's on-disk warm-start cache (``cache_dir=``).

A warm-started check must be bit-for-bit the same check: identical
verdicts and counts whether the engines were compiled in-process,
restored from disk, or restored from a cache another ``(n, k)`` or
property wrote next to it.  Corrupt cache files degrade to a cold run,
never an error.
"""

import os
import subprocess
import sys

import pytest

from repro.cache import DiskCacheBackend, load_payload, save_payload
from repro.checking import check_safety
from repro.spec import OP, SS
from repro.spec.compiled import (
    CompiledSpecDFA,
    clear_spec_dfa_cache,
    clear_spec_oracle_cache,
)
from repro.tm import (
    DSTM,
    ManagedTM,
    ModifiedTL2,
    PoliteManager,
    TwoPhaseLockingTM,
    compile_tm,
)
from repro.tm.explore import build_liveness_graph
from repro.tm.mutate import make_mutant


def _result_tuple(res):
    return (
        res.holds,
        res.counterexample,
        res.tm_states,
        res.spec_states,
        res.product_states,
    )


@pytest.mark.parametrize("prop", [SS, OP], ids=["ss", "op"])
def test_warm_started_check_identical(tmp_path, prop):
    d = str(tmp_path)
    cold = check_safety(DSTM(2, 2), prop, lazy_spec=True, cache_dir=d)
    assert os.listdir(d)  # something was spilled
    clear_spec_oracle_cache()  # simulate a fresh process
    warm = check_safety(DSTM(2, 2), prop, lazy_spec=True, cache_dir=d)
    assert _result_tuple(warm) == _result_tuple(cold)
    clear_spec_oracle_cache()


def test_warm_start_restores_engine_tables(tmp_path):
    d = str(tmp_path)
    check_safety(DSTM(2, 2), SS, lazy_spec=True, cache_dir=d)
    fresh = compile_tm(DSTM(2, 2))
    assert fresh.load_warm(d)
    assert fresh.stats()["safety_rows"] > 0
    assert fresh.stats()["views"] > 1


def test_warm_start_on_dfa_path(tmp_path):
    d = str(tmp_path)
    cold = check_safety(DSTM(2, 2), SS, cache_dir=d)
    warm = check_safety(DSTM(2, 2), SS, cache_dir=d)
    assert _result_tuple(warm) == _result_tuple(cold)


def test_corrupt_cache_degrades_to_cold_run(tmp_path):
    d = str(tmp_path)
    reference = check_safety(DSTM(2, 2), SS, lazy_spec=True, cache_dir=d)
    for name in os.listdir(d):
        with open(os.path.join(d, name), "wb") as fh:
            fh.write(b"not a pickle at all")
    clear_spec_oracle_cache()
    rerun = check_safety(DSTM(2, 2), SS, lazy_spec=True, cache_dir=d)
    assert _result_tuple(rerun) == _result_tuple(reference)
    clear_spec_oracle_cache()


def test_cache_keys_do_not_collide_across_instances(tmp_path):
    """(2,1) and (2,2) caches coexist; each restores its own tables."""
    d = str(tmp_path)
    small = check_safety(DSTM(2, 1), SS, lazy_spec=True, cache_dir=d)
    big = check_safety(DSTM(2, 2), SS, lazy_spec=True, cache_dir=d)
    clear_spec_oracle_cache()
    small2 = check_safety(DSTM(2, 1), SS, lazy_spec=True, cache_dir=d)
    big2 = check_safety(DSTM(2, 2), SS, lazy_spec=True, cache_dir=d)
    assert _result_tuple(small2) == _result_tuple(small)
    assert _result_tuple(big2) == _result_tuple(big)
    clear_spec_oracle_cache()


def test_liveness_rows_warm_cache_hit(tmp_path):
    """Node rows (Ext/Resp in stable int encoding) spill and restore:
    a warm-loaded engine starts with the previous run's node rows and
    the rebuilt graph is identical."""
    d = str(tmp_path)
    cold = build_liveness_graph(TwoPhaseLockingTM(2, 1), cache_dir=d)
    assert any(n.startswith("tm-engine") for n in os.listdir(d))
    fresh = compile_tm(TwoPhaseLockingTM(2, 1))
    assert fresh.load_warm(d)
    assert fresh.stats()["node_rows"] > 0  # the cache hit restored them
    warm = build_liveness_graph(TwoPhaseLockingTM(2, 1), cache_dir=d)
    assert warm.initial == cold.initial
    assert warm.nodes == cold.nodes
    assert warm.edges == cold.edges


def test_liveness_rows_warm_cache_miss_degrades_to_cold(tmp_path):
    """A cache written for another instance misses cleanly: nothing is
    restored, the build recomputes, results are identical."""
    d = str(tmp_path)
    build_liveness_graph(TwoPhaseLockingTM(2, 1), cache_dir=d)
    fresh = compile_tm(TwoPhaseLockingTM(2, 2))  # other (n, k): a miss
    assert not fresh.load_warm(d)
    assert fresh.stats()["node_rows"] == 0
    cold = build_liveness_graph(TwoPhaseLockingTM(2, 2))
    warm = build_liveness_graph(TwoPhaseLockingTM(2, 2), cache_dir=d)
    assert warm.nodes == cold.nodes and warm.edges == cold.edges


def test_liveness_rows_corrupt_cache_degrades_to_cold(tmp_path):
    d = str(tmp_path)
    cold = build_liveness_graph(TwoPhaseLockingTM(2, 1), cache_dir=d)
    for name in os.listdir(d):
        with open(os.path.join(d, name), "wb") as fh:
            fh.write(b"garbage")
    rerun = build_liveness_graph(TwoPhaseLockingTM(2, 1), cache_dir=d)
    assert rerun.nodes == cold.nodes and rerun.edges == cold.edges


def test_malformed_node_rows_reject_whole_payload(tmp_path):
    """A structurally broken node-row table (dangling ext-table index)
    rejects the payload wholesale — the engine recompiles from scratch
    rather than trusting half a cache."""
    d = str(tmp_path)
    build_liveness_graph(TwoPhaseLockingTM(2, 1), cache_dir=d)
    donor = compile_tm(TwoPhaseLockingTM(2, 1))
    assert donor.load_warm(d)
    node, row = next(iter(donor._node_rows.items()))
    save_payload(
        d,
        donor._cache_key(),
        {
            "view_bits": list(donor._view_bits),
            "safety_rows": dict(donor._safety_rows_ids),
            "ext_table": [],  # every ext id now dangles
            "node_rows": {node: ((0, 0, 99, 0, node),)},
        },
    )
    fresh = compile_tm(TwoPhaseLockingTM(2, 1))
    assert not fresh.load_warm(d)
    assert fresh.stats()["views"] == 0  # nothing partially applied


def test_malformed_safety_row_nodes_reject_whole_payload(tmp_path):
    """Node validation runs once per distinct node: a reference that
    only *equals* a validated node (a float twin) or repeats an invalid
    one must still reject the payload, wherever it sits."""
    d = str(tmp_path)
    check_safety(DSTM(2, 2), SS, cache_dir=d, dense_kernel=False)
    key = compile_tm(DSTM(2, 2))._cache_key()
    good = load_payload(d, key)
    rows = good["safety_rows"]
    node = next(iter(rows))
    nviews = len(good["view_bits"])
    engine = compile_tm(DSTM(2, 2))
    pend_span = engine._pend_span
    width = engine._codec.width
    bad_digit = (nviews << width) * pend_span  # thread 2's view id dangles
    too_big = (1 << 2 * width) * pend_span
    bad_nodes = [-1, bad_digit, too_big, float(node), "0", None]

    def variant(rows_update):
        data = dict(good, safety_rows={**rows, **rows_update})
        save_payload(d, key, data)
        return compile_tm(DSTM(2, 2)).load_warm(d)

    for bad in bad_nodes:
        # as a singleton successor, inside a successor tuple after a
        # valid node, and as a row's own key (then listed last)
        assert not variant({node: ((0, bad),)}), bad
        assert not variant({node: ((0, (node, bad)),)}), bad
        if bad in rows:  # the float twin would just overwrite its key
            continue
        data = dict(good, safety_rows=dict(rows))
        data["safety_rows"][bad] = ()
        save_payload(d, key, data)
        assert not compile_tm(DSTM(2, 2)).load_warm(d), bad
    assert variant({node: ((0, (node, node)), (1, node))})  # repeats ok


def test_spec_dfa_rows_warm_round_trip(tmp_path):
    """The int-rows spec DFA spills and restores; a warm-loaded table is
    identical to a freshly interned one."""
    d = str(tmp_path)
    built = CompiledSpecDFA(2, 1, SS).ensure()
    rows = built.rows
    assert built.save_warm(d)
    loaded = CompiledSpecDFA(2, 1, SS)
    assert loaded.load_warm(d)
    assert loaded.rows == rows


def test_fallback_interned_tm_skips_cache_silently(tmp_path):
    """ManagedTM has no codec: nothing is spilled for the TM engine, and
    the check still works with cache_dir set."""
    d = str(tmp_path)
    res = check_safety(
        ManagedTM(ModifiedTL2(2, 1), PoliteManager()),
        SS,
        lazy_spec=True,
        cache_dir=d,
    )
    assert res.holds in (True, False)
    assert not any(n.startswith("tm-engine") for n in os.listdir(d))
    clear_spec_oracle_cache()


# ----------------------------------------------------------------------
# The dense kernel's CSR payloads
# ----------------------------------------------------------------------


def test_dense_csr_payload_round_trip(tmp_path):
    """A warm process replays the product from the CSR payload alone —
    byte-identical results with *zero* row-memo traffic."""
    d = str(tmp_path)
    cold = check_safety(DSTM(2, 2), SS, lazy_spec=True, cache_dir=d)
    clear_spec_oracle_cache()
    # Keep only the dense-csr payloads: a warm dense run must not need
    # the row caches at all (the array-only BFS never touches them).
    kept = 0
    for name in os.listdir(d):
        if name.startswith("dense-csr"):
            kept += 1
        else:
            os.unlink(os.path.join(d, name))
    assert kept
    tm = DSTM(2, 2)
    warm = check_safety(tm, SS, lazy_spec=True, cache_dir=d)
    assert _result_tuple(warm) == _result_tuple(cold)
    assert compile_tm(tm).stats()["safety_rows"] == 0  # array-only run
    clear_spec_oracle_cache()


def test_dense_csr_corrupt_payload_degrades_to_cold(tmp_path):
    d = str(tmp_path)
    cold = check_safety(DSTM(2, 2), SS, lazy_spec=True, cache_dir=d)
    clear_spec_oracle_cache()
    for name in os.listdir(d):
        if name.startswith("dense-csr"):
            with open(os.path.join(d, name), "wb") as fh:
                fh.write(b"\x80garbage that is not a pickle")
    warm = check_safety(DSTM(2, 2), SS, lazy_spec=True, cache_dir=d)
    assert _result_tuple(warm) == _result_tuple(cold)
    clear_spec_oracle_cache()


def test_dense_csr_payload_written_for_both_sides(tmp_path):
    d = str(tmp_path)
    check_safety(DSTM(2, 2), SS, lazy_spec=True, cache_dir=d)
    check_safety(DSTM(2, 2), SS, lazy_spec=False, cache_dir=d)
    sides = [n for n in os.listdir(d) if n.startswith("dense-csr")]
    assert len(sides) == 2  # one oracle-sided, one DFA-sided table


def test_dense_csr_violating_payload_round_trip(tmp_path):
    """A violating product persists its partial flagged CSR; the warm
    run short-circuits to the traced rerun with the identical word."""
    d = str(tmp_path)
    cold = check_safety(ModifiedTL2(2, 2), SS, lazy_spec=True, cache_dir=d)
    assert not cold.holds
    clear_spec_oracle_cache()
    warm = check_safety(ModifiedTL2(2, 2), SS, lazy_spec=True, cache_dir=d)
    assert _result_tuple(warm) == _result_tuple(cold)
    clear_spec_oracle_cache()


def test_no_dense_kernel_writes_no_csr_payload(tmp_path):
    d = str(tmp_path)
    check_safety(DSTM(2, 2), SS, lazy_spec=True, cache_dir=d,
                 dense_kernel=False)
    assert not [n for n in os.listdir(d) if n.startswith("dense-csr")]


def test_warm_row_memo_picked_up_after_load(tmp_path):
    """The kernel's row_map must be the *post-load* memo dict: a fully
    row-warm, dense-less run discovers zero rows (the profile wrapper
    would otherwise time every memo hit as a miss)."""
    d = str(tmp_path)
    check_safety(DSTM(2, 2), SS, lazy_spec=True, cache_dir=d,
                 dense_kernel=False)
    clear_spec_oracle_cache()
    prof = {}
    warm = check_safety(DSTM(2, 2), SS, lazy_spec=True, cache_dir=d,
                        dense_kernel=False, profile=prof)
    assert warm.holds
    assert prof["row_discovery_s"] == 0.0
    clear_spec_oracle_cache()


# ----------------------------------------------------------------------
# A warm check reads only what its replay needs
# ----------------------------------------------------------------------


class _TallyBackend(DiskCacheBackend):
    """The disk backend, recording the kind of every payload loaded."""

    def __init__(self, cache_dir):
        super().__init__(cache_dir)
        self.loaded = []

    def load(self, key):
        self.loaded.append(key[0])
        return super().load(key)


def _run_subprocess(code, *args):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_import_cli_leaves_numpy_unloaded():
    out = _run_subprocess(
        "import sys, repro.cli; print(int('numpy' in sys.modules))"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0"


def test_warm_cli_check_never_imports_numpy(tmp_path):
    """Every (2, 2) dense table is below the numpy gate: a warm
    ``repro safety dstm`` replays both tables on the stdlib path."""
    d = str(tmp_path)
    for prop in (SS, OP):
        check_safety(DSTM(2, 2), prop, cache_dir=d)
    out = _run_subprocess(
        "import sys\n"
        "from repro.cli import main\n"
        "code = main(['safety', 'dstm', '--cache-dir', sys.argv[1]])\n"
        "print(code, int('numpy' in sys.modules))\n",
        d,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[-2:] == ["0", "0"]


@pytest.mark.parametrize(
    "lazy, kinds",
    [(False, ["dense-csr", "spec-dfa"]), (True, ["dense-csr"])],
    ids=["dfa", "oracle"],
)
def test_warm_holding_check_reads_only_csr_and_spec(tmp_path, lazy, kinds):
    """The restored complete table replays alone: the TM engine's
    payload is never read, nor the spec oracle's (the replay re-derives
    its spec-state count); the DFA side still loads its table, whose
    size is the reported spec-state count."""
    d = str(tmp_path)
    cold = check_safety(DSTM(2, 2), SS, lazy_spec=lazy, cache_dir=d)
    clear_spec_oracle_cache()
    clear_spec_dfa_cache()
    backend = _TallyBackend(d)
    tm = DSTM(2, 2)
    warm = check_safety(tm, SS, lazy_spec=lazy, cache_dir=backend)
    assert _result_tuple(warm) == _result_tuple(cold)
    assert backend.loaded == kinds
    stats = compile_tm(tm).stats()
    assert stats["views"] == 0 and stats["safety_rows"] == 0  # still fresh
    assert stats["warm_dense_pairs"] == cold.product_states
    clear_spec_oracle_cache()


def test_warm_replay_keeps_engine_loadable_for_violating_check(tmp_path):
    """One process, warm cache, a TM whose ss holds and op violates: the
    ss replay leaves the engine fresh, the op check warm-loads it, both
    discover 0 rows, and the engine payload is never rewritten."""
    d = str(tmp_path)
    name = "opt/read-ignores-ms"
    cold = [
        check_safety(make_mutant(name, 2, 2), prop, cache_dir=d)
        for prop in (SS, OP)
    ]
    assert cold[0].holds and not cold[1].holds
    (engine_file,) = [n for n in os.listdir(d) if n.startswith("tm-engine")]
    with open(os.path.join(d, engine_file), "rb") as fh:
        before = fh.read()
    clear_spec_dfa_cache()
    tm = make_mutant(name, 2, 2)
    engine = compile_tm(tm)
    ss = check_safety(tm, SS, cache_dir=d)
    assert engine.stats()["views"] == 0  # the replay interned nothing
    op = check_safety(tm, OP, cache_dir=d)
    assert [_result_tuple(r) for r in (ss, op)] == [
        _result_tuple(r) for r in cold
    ]
    stats = engine.stats()
    assert stats["warm_safety_rows"] > 0
    assert stats["safety_rows"] == stats["warm_safety_rows"]  # 0 built
    with open(os.path.join(d, engine_file), "rb") as fh:
        assert fh.read() == before


@pytest.mark.parametrize("damage", ["corrupt", "mismatched"])
def test_unusable_csr_falls_back_to_engine_load(tmp_path, damage):
    """A CSR that does not load, or loads but was recorded from another
    initial node, takes the full engine load: identical results, no row
    built, a fresh table recorded and spilled over the bad one."""
    d = str(tmp_path)
    cold = check_safety(DSTM(2, 2), SS, cache_dir=d)
    (csr_file,) = [n for n in os.listdir(d) if n.startswith("dense-csr")]
    key = compile_tm(DSTM(2, 2)).dense_csr("dfa", SS).cache_key
    if damage == "corrupt":
        with open(os.path.join(d, csr_file), "wb") as fh:
            fh.write(b"\x80garbage that is not a pickle")
    else:
        data = load_payload(d, key)
        keys = data["node_keys"]
        keys[0] = next(k for k in keys if k != keys[0])  # another node
        save_payload(d, key, data)
    clear_spec_dfa_cache()
    backend = _TallyBackend(d)
    tm = DSTM(2, 2)
    warm = check_safety(tm, SS, cache_dir=backend)
    assert _result_tuple(warm) == _result_tuple(cold)
    assert "tm-engine" in backend.loaded
    stats = compile_tm(tm).stats()
    assert stats["warm_safety_rows"] > 0
    assert stats["safety_rows"] == stats["warm_safety_rows"]
    assert stats["warm_dense_pairs"] == 0  # the table was re-recorded
    rerun = check_safety(DSTM(2, 2), SS, cache_dir=_TallyBackend(d))
    assert _result_tuple(rerun) == _result_tuple(cold)
