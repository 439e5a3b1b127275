"""Differential tests for the compiled spec oracle.

The packed stepper (:func:`repro.spec.compiled.make_packed_step`) must be
*exact*: on every reachable Algorithm 6 state it has to agree with the
rich :func:`repro.spec.det.det_step` under the
:func:`~repro.spec.compiled.pack_spec_state` bijection, for every
statement, both properties.  These tests walk the full reachable state
spaces at small (n, k) and compare transition for transition, plus pin
the oracle's interning/memoization contract and its on-disk warm cache
(corrupt and version-stale payloads are ignored, never fatal).
"""

import os
import pickle

import pytest

from repro.cache import ENGINE_VERSION, cache_path
from repro.core.statements import statements as all_statements
from repro.spec import OP, SS
from repro.spec.compiled import (
    SINK,
    UNQUERIED,
    CompiledSpecOracle,
    cached_spec_oracle,
    clear_spec_oracle_cache,
    make_packed_step,
    pack_spec_state,
    statement_table,
    unpack_spec_state,
)
from repro.spec.det import det_step, initial_state

INSTANCES = [(2, 1), (2, 2), (3, 1)]
PROPS = [SS, OP]


def walk_rich(n, k, prop):
    """BFS the rich det_step reachable set; yields (state, stmt, succ)."""
    from collections import deque

    syms = statement_table(n, k)
    init = initial_state(n)
    seen = {init}
    queue = deque([init])
    while queue:
        state = queue.popleft()
        for stmt in syms:
            succ = det_step(state, stmt, prop)
            yield state, stmt, succ
            if succ is not None and succ not in seen:
                seen.add(succ)
                queue.append(succ)


@pytest.mark.parametrize("n,k", INSTANCES)
@pytest.mark.parametrize("prop", PROPS, ids=[p.value for p in PROPS])
def test_packed_step_exhaustive_differential(n, k, prop):
    """Packed vs rich det_step on every reachable (state, statement)."""
    step = make_packed_step(n, k, prop)
    syms = statement_table(n, k)
    sym_index = {s: i for i, s in enumerate(syms)}
    assert pack_spec_state(initial_state(n), n, k) == 0
    for state, stmt, succ in walk_rich(n, k, prop):
        packed = pack_spec_state(state, n, k)
        assert unpack_spec_state(packed, n, k) == state
        got = step(packed, sym_index[stmt])
        if succ is None:
            assert got is None, (state, stmt)
        else:
            assert got == pack_spec_state(succ, n, k), (state, stmt)


@pytest.mark.parametrize("n,k", [(2, 3), (3, 2)])
@pytest.mark.parametrize("prop", PROPS, ids=[p.value for p in PROPS])
def test_packed_step_differential_at_large_shapes(n, k, prop):
    """Capped BFS differential at the shapes the PR's benchmarks run on.

    The small-instance differentials above are exhaustive; these shapes
    are too big for that, but a layout bug specific to k >= 3 or to
    (n, k) = (3, 2) (e.g. an off-by-one in the record bit offsets that
    cancels out at k <= 2) would corrupt exactly the headline cells —
    so check the first few thousand reachable states here too.
    """
    from collections import deque

    step = make_packed_step(n, k, prop)
    syms = statement_table(n, k)
    cap = 2000
    init = initial_state(n)
    seen = {init}
    queue = deque([init])
    while queue:
        state = queue.popleft()
        packed = pack_spec_state(state, n, k)
        assert unpack_spec_state(packed, n, k) == state
        for i, stmt in enumerate(syms):
            rich = det_step(state, stmt, prop)
            got = step(packed, i)
            if rich is None:
                assert got is None, (state, stmt)
            else:
                assert got == pack_spec_state(rich, n, k), (state, stmt)
                if rich not in seen and len(seen) < cap:
                    seen.add(rich)
                    queue.append(rich)


def test_statement_table_is_canonical():
    """Statement ids are indices into core.statements.statements —
    shared with the compiled TM engine's symbol tables."""
    for n, k in INSTANCES:
        assert statement_table(n, k) == all_statements(
            n, k, include_abort=True
        )


def test_tm_engine_symbol_ids_match_spec_oracle():
    """The TM-side done/abort statement ids and the oracle's table agree."""
    from repro.tm import DSTM, compile_tm

    tm = DSTM(2, 2)
    engine = compile_tm(tm)
    oracle = CompiledSpecOracle(2, 2, SS)
    assert engine._symbols == oracle.symbols
    for ti in range(tm.n):
        for ci, cmd in enumerate(engine.commands()):
            sym = engine._done_sym[ti][ci]
            assert oracle.symbols[sym].command == cmd
            assert oracle.symbols[sym].thread == ti + 1
        assert oracle.symbols[engine._abort_sym[ti]].is_abort


# ----------------------------------------------------------------------
# Oracle interning and memoization
# ----------------------------------------------------------------------


def test_oracle_memoizes_rows():
    oracle = CompiledSpecOracle(2, 2, SS)
    assert oracle.rows[0][0] == UNQUERIED
    first = oracle.step_id(0, 0)
    assert first >= 0
    assert oracle.rows[0][0] == first  # memoized in place
    assert oracle.step_id(0, 0) == first
    stats = oracle.stats()
    assert stats["filled_rows"] == 1
    assert stats["states"] == 2  # initial + the one successor


def test_oracle_rejections_are_cached_as_sink():
    """Some reachable (state, statement) rejects, and the rejection is
    memoized as SINK rather than re-evaluated."""
    oracle = CompiledSpecOracle(2, 2, SS)
    sid = 0
    while sid < len(oracle.states):
        for sym in range(oracle.num_symbols):
            if oracle.step_id(sid, sym) == SINK:
                assert oracle.rows[sid][sym] == SINK
                assert oracle.step_id(sid, sym) == SINK
                return
        sid += 1
    raise AssertionError("no rejection reachable in the (2,2) ss spec")


def test_cached_spec_oracle_shares_and_separates():
    clear_spec_oracle_cache()
    a = cached_spec_oracle(2, 2, SS)
    assert cached_spec_oracle(2, 2, SS) is a
    assert cached_spec_oracle(2, 2, OP) is not a
    assert cached_spec_oracle(2, 1, SS) is not a
    info = cached_spec_oracle.cache_info()
    assert info.hits >= 1 and info.misses >= 3
    clear_spec_oracle_cache()
    assert cached_spec_oracle(2, 2, SS) is not a


def test_oracle_independence_across_keys():
    """Queries against one (n, k, prop) oracle never leak into another."""
    clear_spec_oracle_cache()
    ss = cached_spec_oracle(2, 1, SS)
    op = cached_spec_oracle(2, 1, OP)
    for sym in range(ss.num_symbols):
        ss.step_id(0, sym)
    assert op.stats()["filled_rows"] == 0
    clear_spec_oracle_cache()


# ----------------------------------------------------------------------
# Warm-start persistence
# ----------------------------------------------------------------------


def _filled_oracle(n=2, k=1, prop=SS):
    """An oracle with every reachable row fully evaluated."""
    oracle = CompiledSpecOracle(n, k, prop)
    sid = 0
    while sid < len(oracle.states):  # states grows as rows fill
        for sym in range(oracle.num_symbols):
            oracle.step_id(sid, sym)
        sid += 1
    return oracle


def test_warm_cache_round_trip(tmp_path):
    d = str(tmp_path)
    oracle = _filled_oracle()
    assert oracle.save_warm(d)
    fresh = CompiledSpecOracle(2, 1, SS)
    assert fresh.load_warm(d)
    assert fresh.states == oracle.states
    assert fresh.rows == oracle.rows
    # restored tables serve queries without recomputation
    assert fresh.step_id(0, 0) == oracle.rows[0][0]


def test_warm_cache_save_is_dirty_gated(tmp_path):
    d = str(tmp_path)
    oracle = _filled_oracle()
    assert oracle.save_warm(d)
    assert not oracle.save_warm(d)  # nothing new since last spill


def test_warm_cache_not_loaded_into_used_oracle(tmp_path):
    d = str(tmp_path)
    _filled_oracle().save_warm(d)
    used = CompiledSpecOracle(2, 1, SS)
    used.step_id(0, 0)
    assert not used.load_warm(d)


def test_warm_cache_ignores_corrupt_file(tmp_path):
    d = str(tmp_path)
    oracle = _filled_oracle()
    oracle.save_warm(d)
    path = cache_path(d, oracle._cache_key())
    with open(path, "wb") as fh:
        fh.write(b"\x80garbage that is not a pickle")
    fresh = CompiledSpecOracle(2, 1, SS)
    assert not fresh.load_warm(d)
    assert fresh.step_id(0, 0) >= 0  # recomputes from scratch


def test_warm_cache_ignores_stale_engine_version(tmp_path):
    d = str(tmp_path)
    oracle = _filled_oracle()
    key = oracle._cache_key()
    with open(cache_path(d, key), "wb") as fh:
        pickle.dump(
            {
                "version": ENGINE_VERSION + 1,
                "key": key,
                "data": {
                    "states": list(oracle.states),
                    "rows": [list(r) for r in oracle.rows],
                },
            },
            fh,
        )
    fresh = CompiledSpecOracle(2, 1, SS)
    assert not fresh.load_warm(d)


def test_warm_cache_ignores_malformed_payloads(tmp_path):
    d = str(tmp_path)
    oracle = CompiledSpecOracle(2, 1, SS)
    key = oracle._cache_key()
    bad_payloads = [
        {"states": [0], "rows": []},  # length mismatch
        {"states": [1], "rows": [[UNQUERIED] * oracle.num_symbols]},
        {"states": [0], "rows": [[99] * oracle.num_symbols]},  # id range
        {"states": [0, 0], "rows": [[UNQUERIED] * oracle.num_symbols] * 2},
        {"states": "nope", "rows": "nope"},
        [],
    ]
    for data in bad_payloads:
        with open(cache_path(d, key), "wb") as fh:
            pickle.dump(
                {"version": ENGINE_VERSION, "key": key, "data": data}, fh
            )
        fresh = CompiledSpecOracle(2, 1, SS)
        assert not fresh.load_warm(d), data


def test_warm_cache_missing_dir_is_harmless(tmp_path):
    oracle = CompiledSpecOracle(2, 1, SS)
    missing = os.path.join(str(tmp_path), "does", "not", "exist")
    assert not oracle.load_warm(missing)
    oracle.step_id(0, 0)
    assert oracle.save_warm(missing)  # created on demand
    fresh = CompiledSpecOracle(2, 1, SS)
    assert fresh.load_warm(missing)


# ----------------------------------------------------------------------
# The int-rows spec DFA (materialized-path twin of the oracle)
# ----------------------------------------------------------------------


def test_compiled_spec_dfa_matches_rich_dfa():
    """CompiledSpecDFA's int table is the interned canonical DFA cell
    for cell: same state count, same successor per (state, statement)."""
    from repro.automata.interned import intern_dfa
    from repro.spec.build import cached_det_spec
    from repro.spec.compiled import CompiledSpecDFA

    cdfa = CompiledSpecDFA(2, 1, SS).ensure()
    dfa = cached_det_spec(2, 1, SS)
    interned = intern_dfa(dfa)
    assert cdfa.num_states == dfa.num_states == interned.n
    symbols = statement_table(2, 1)
    for idx in range(interned.n):
        rich_row = interned.delta[idx]
        for sym_id, stmt in enumerate(symbols):
            expected = rich_row.get(stmt, -1)
            assert cdfa.rows[idx][sym_id] == expected


def test_compiled_spec_dfa_build_frees_the_rich_dfa(monkeypatch):
    """ensure() interns a private automaton that neither the process
    memo nor a reference cycle keeps alive: the rich DFA is freed by
    reference counting before ensure() returns, so it never sits under
    the product search that follows (a campaign cell's peak memory)."""
    import gc
    import weakref

    from repro.spec import build
    from repro.spec.build import cached_det_spec, clear_spec_cache
    from repro.spec.compiled import CompiledSpecDFA

    built = []
    original = build.build_det_spec

    def recording_build(n, k, prop):
        dfa = original(n, k, prop)
        built.append(weakref.ref(dfa))
        return dfa

    monkeypatch.setattr(build, "build_det_spec", recording_build)
    clear_spec_cache()
    gc.disable()
    try:
        cdfa = CompiledSpecDFA(2, 1, SS).ensure()
        assert len(built) == 1 and built[0]() is None
    finally:
        gc.enable()
    assert cached_det_spec.cache_info().currsize == 0
    assert cdfa.rows == CompiledSpecDFA(2, 1, SS).ensure().rows


def test_compiled_spec_dfa_rejects_malformed_payloads(tmp_path):
    from repro.cache import save_payload
    from repro.spec.compiled import CompiledSpecDFA

    d = str(tmp_path)
    key = CompiledSpecDFA(2, 1, SS)._cache_key()
    num_syms = len(statement_table(2, 1))
    bad_payloads = [
        "not a dict",
        {"rows": "not a list"},
        {"rows": []},  # no states at all
        {"rows": [tuple([0] * (num_syms - 1))]},  # wrong row width
        {"rows": [tuple([5] * num_syms)]},  # successor out of range
        {"rows": [tuple([-2] * num_syms)]},  # below SINK
    ]
    for payload in bad_payloads:
        save_payload(d, key, payload)
        fresh = CompiledSpecDFA(2, 1, SS)
        assert not fresh.load_warm(d), payload
        assert fresh.rows is None


def test_compiled_spec_dfa_range_checks_every_flat_cell(tmp_path):
    """Well-typed, right-length flat tables with one cell out of range:
    below the sink (-2) or equal to the state count.  The same tables
    one step inside the range load."""
    from array import array

    from repro.cache import save_payload
    from repro.spec.compiled import CompiledSpecDFA

    d = str(tmp_path)
    built = CompiledSpecDFA(2, 1, SS).ensure()
    key = built._cache_key()
    nstates = built.num_states
    for where in (0, nstates * built.num_symbols - 1):
        for cell, ok in ((-2, False), (nstates, False),
                         (SINK, True), (nstates - 1, True)):
            flat = array("i", [0] * (nstates * built.num_symbols))
            flat[where] = cell
            save_payload(d, key, {"rows": flat, "num_states": nstates})
            fresh = CompiledSpecDFA(2, 1, SS)
            assert fresh.load_warm(d) is ok, (where, cell)
            assert (fresh.rows is not None) is ok


def test_spec_table_codec_round_trips_any_row_type():
    """``flatten_spec_rows`` accepts built arrays and mmap-style
    memoryview slices (mixed widths raise); ``restore_spec_rows`` is
    its validated inverse and ``install`` adopts the result."""
    from array import array

    from repro.spec.compiled import (
        CompiledSpecDFA,
        flatten_spec_rows,
        restore_spec_rows,
    )

    built = CompiledSpecDFA(2, 2, OP).ensure()
    ns, nstates = built.num_symbols, built.num_states
    flat = flatten_spec_rows(built.rows)
    assert flat.typecode == "i" and len(flat) == nstates * ns
    view = memoryview(flat.tobytes()).cast("i")
    views = tuple(view[i * ns:(i + 1) * ns] for i in range(nstates))
    assert flatten_spec_rows(views) == flat
    wide = tuple(array("q", row) for row in built.rows)
    assert flatten_spec_rows(wide) == array("q", flat)
    with pytest.raises(ValueError):
        flatten_spec_rows((wide[0],) + built.rows[1:])
    assert restore_spec_rows(flat, nstates, ns) == built.rows
    assert restore_spec_rows(view, nstates, ns) == views
    for bad in (
        (list(flat), nstates),       # not a typed int vector
        (flat[:-1], nstates),        # wrong length
        (flat, 0),                   # no states
        (flat, float(nstates)),      # state count not an int
    ):
        assert restore_spec_rows(bad[0], bad[1], ns) is None

    table = CompiledSpecDFA(2, 2, OP)
    assert table.install(flat, nstates, dirty=True)
    assert table.rows == built.rows and table.dirty
    assert table.built_states == 0
    assert not table.install(flat, nstates)  # fresh tables only
    table.mark_persisted()
    assert not table.dirty


def test_compiled_spec_dfa_load_refuses_used_table(tmp_path):
    from repro.spec.compiled import CompiledSpecDFA

    d = str(tmp_path)
    built = CompiledSpecDFA(2, 1, SS).ensure()
    assert built.save_warm(d)
    assert not built.load_warm(d)  # already holds a table


def test_oracle_intern_packed_is_stable():
    oracle = CompiledSpecOracle(2, 1, SS)
    sid = oracle.intern_packed(12345)
    assert oracle.intern_packed(12345) == sid
    assert oracle.states[sid] == 12345
    assert oracle.intern_packed(0) == 0  # the initial state keeps id 0


def test_warm_cache_rows_are_flat_arrays(tmp_path):
    """Rows persist as ONE flat typed vector (int32 under the typed-width
    policy) and restore as mutable per-state arrays of the persisted
    width; per-row lists and out-of-range cells are rejected."""
    from array import array

    d = str(tmp_path)
    oracle = _filled_oracle()
    assert oracle.save_warm(d)
    fresh = CompiledSpecOracle(2, 1, SS)
    assert fresh.load_warm(d)
    assert all(
        isinstance(row, array) and row.typecode == "i"
        for row in fresh.rows
    )
    key = oracle._cache_key()
    num = oracle.num_symbols
    for rows in (
        [UNQUERIED] * num,                       # list: not a typed vector
        array("i", [99] * num),                  # successor out of range
        array("i", [UNQUERIED] * (num - 1)),     # wrong flat length
        [array("q", [UNQUERIED] * num)],         # v3 per-row format
    ):
        with open(cache_path(d, key), "wb") as fh:
            pickle.dump(
                {
                    "version": ENGINE_VERSION,
                    "key": key,
                    "data": {"states": [0], "rows": rows},
                },
                fh,
            )
        bad = CompiledSpecOracle(2, 1, SS)
        assert not bad.load_warm(d)
