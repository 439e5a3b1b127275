"""Differential tests for the compiled packed-state TM engine.

The compiled engine (:mod:`repro.tm.compiled`) must be *exact*: for
every entry point routed through it — exploration, the liveness graph,
the safety product, word membership — it has to reproduce the naive
tuple-of-frozensets path byte for byte: identical reachable-state
counts and orders, identical verdicts, identical counterexamples.
These tests pin that contract for all four paper TMs at (2, 2), the
managed (fallback-interned) TM, and the extra optimistic TM, plus
round-trip tests for the view codecs themselves.
"""

import pytest

from repro.checking import check_safety
from repro.core.statements import parse_word
from repro.spec import OP, SS
from repro.tm import (
    DSTM,
    TL2,
    CompiledTM,
    ManagedTM,
    ModifiedTL2,
    OptimisticTM,
    PoliteManager,
    SequentialTM,
    TwoPhaseLockingTM,
    compile_tm,
)
from repro.tm.explore import (
    build_liveness_graph,
    explore_nodes,
    language_contains,
    transition_system_size,
)

# The four TMs of the paper at (2, 2); factories so each test gets a
# fresh instance (and therefore a cold engine).
PAPER_TMS = [
    ("seq", lambda: SequentialTM(2, 2)),
    ("2PL", lambda: TwoPhaseLockingTM(2, 2)),
    ("dstm", lambda: DSTM(2, 2)),
    ("TL2", lambda: TL2(2, 2)),
]
IDS = [name for name, _ in PAPER_TMS]


# ----------------------------------------------------------------------
# View codec round trips
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "factory",
    [
        lambda: SequentialTM(2, 2),
        lambda: TwoPhaseLockingTM(2, 2),
        lambda: DSTM(2, 2),
        lambda: TL2(2, 2),
        lambda: ModifiedTL2(2, 2),
        lambda: OptimisticTM(2, 2),
    ],
    ids=["seq", "2PL", "dstm", "TL2", "modTL2", "opt"],
)
def test_view_codec_round_trip_on_reachable_views(factory):
    """pack/unpack is the identity on every reachable thread view."""
    tm = factory()
    codec = tm.view_codec()
    assert codec is not None
    seen_bits = set()
    for state, _pending in explore_nodes(tm, compiled=False):
        for view in state:
            bits = codec.pack(view)
            assert 0 <= bits < (1 << codec.width)
            assert codec.unpack(bits) == view
            seen_bits.add(bits)
    # packing is injective on the reachable views by construction of the
    # round trip; there must be more than one view to make that claim
    assert len(seen_bits) > 1


def test_managed_tm_has_no_codec_and_falls_back():
    tm = ManagedTM(ModifiedTL2(2, 2), PoliteManager())
    assert tm.view_codec() is None
    engine = compile_tm(tm)
    state = tm.initial_state()
    packed = engine.encode_state(state)
    assert engine.decode_state(packed) == state


@pytest.mark.parametrize("name,factory", PAPER_TMS, ids=IDS)
def test_state_and_node_round_trip(name, factory):
    tm = factory()
    engine = compile_tm(tm)
    for node in explore_nodes(tm, compiled=False)[:200]:
        packed = engine.encode_node(node)
        assert engine.decode_node(packed) == node
        state, _ = node
        assert engine.decode_state(engine.encode_state(state)) == state


@pytest.mark.parametrize("name,factory", PAPER_TMS, ids=IDS)
def test_incremental_successor_encoding_matches_full(name, factory):
    """``_encode_successor`` (changed-digit re-packing) must agree with a
    full ``encode_state`` on every reachable transition."""
    tm = factory()
    engine = compile_tm(tm)
    for state, _pending in explore_nodes(tm, compiled=False)[:300]:
        packed = engine.encode_state(state)
        for t in tm.threads():
            for cmd in tm.commands():
                for tr in tm.transitions(state, cmd, t):
                    incremental = engine._encode_successor(
                        packed, state, tr.state
                    )
                    assert incremental == engine.encode_state(tr.state)


# ----------------------------------------------------------------------
# Exploration differentials
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name,factory", PAPER_TMS, ids=IDS)
def test_reachable_state_counts_match(name, factory):
    assert transition_system_size(factory()) == transition_system_size(
        factory(), compiled=False
    )


@pytest.mark.parametrize(
    "factory",
    [lambda: DSTM(2, 2), lambda: ManagedTM(ModifiedTL2(2, 1), PoliteManager())],
    ids=["dstm", "modTL2+pol"],
)
def test_explore_nodes_order_identical(factory):
    assert explore_nodes(factory()) == explore_nodes(
        factory(), compiled=False
    )


@pytest.mark.parametrize(
    "factory",
    [
        lambda: TwoPhaseLockingTM(2, 1),
        lambda: DSTM(2, 1),
        lambda: ManagedTM(ModifiedTL2(2, 1), PoliteManager()),
    ],
    ids=["2PL", "dstm", "modTL2+pol"],
)
def test_liveness_graph_identical(factory):
    compiled = build_liveness_graph(factory())
    naive = build_liveness_graph(factory(), compiled=False)
    assert compiled.initial == naive.initial
    assert compiled.nodes == naive.nodes
    assert compiled.edges == naive.edges
    # a bounded build walks the row-by-row loop instead of the dense
    # adjacency; under a bound it never hits, the graph is identical
    bounded = build_liveness_graph(factory(), max_states=10**6)
    assert bounded == compiled


def test_explore_max_states_guard_on_compiled_path():
    with pytest.raises(RuntimeError):
        explore_nodes(TL2(2, 2), max_states=10)
    with pytest.raises(RuntimeError):
        build_liveness_graph(TL2(2, 2), max_states=10)


# ----------------------------------------------------------------------
# Safety differentials
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name,factory", PAPER_TMS, ids=IDS)
@pytest.mark.parametrize("prop", [SS, OP], ids=["ss", "op"])
def test_safety_verdicts_identical(name, factory, prop):
    fast = check_safety(factory(), prop)
    slow = check_safety(factory(), prop, compiled=False)
    assert fast.holds == slow.holds
    assert fast.counterexample == slow.counterexample
    assert fast.tm_states == slow.tm_states
    assert fast.spec_states == slow.spec_states
    assert fast.product_states == slow.product_states


@pytest.mark.parametrize("prop", [SS, OP], ids=["ss", "op"])
def test_violating_counterexample_byte_identical(prop):
    """The failing Table 2 cell: same certified counterexample word."""
    make = lambda: ManagedTM(ModifiedTL2(2, 2), PoliteManager())
    fast = check_safety(make(), prop)
    slow = check_safety(make(), prop, compiled=False)
    assert not fast.holds and not slow.holds
    assert fast.counterexample == slow.counterexample
    assert fast.product_states == slow.product_states


def test_lazy_spec_identical_on_compiled_path():
    fast = check_safety(DSTM(2, 2), SS, lazy_spec=True)
    slow = check_safety(DSTM(2, 2), SS, lazy_spec=True, compiled=False)
    assert fast.holds == slow.holds
    assert fast.tm_states == slow.tm_states
    assert fast.spec_states == slow.spec_states
    assert fast.product_states == slow.product_states


def test_safety_max_states_guard_on_compiled_path():
    with pytest.raises(RuntimeError):
        check_safety(TL2(2, 2), SS, max_states=50)
    with pytest.raises(RuntimeError):
        check_safety(TL2(2, 2), SS, max_states=50, lazy_spec=True)


# ----------------------------------------------------------------------
# Engine API
# ----------------------------------------------------------------------


def test_compile_tm_caches_engine_per_instance():
    tm = DSTM(2, 2)
    assert compile_tm(tm) is compile_tm(tm)
    assert compile_tm(DSTM(2, 2)) is not compile_tm(tm)


def test_compiled_transitions_contract():
    """CompiledTM serves the TMAlgorithm transitions contract."""
    tm = DSTM(2, 2)
    engine = CompiledTM(tm)
    assert engine.initial_state() == tm.initial_state()
    state = tm.initial_state()
    for t in tm.threads():
        for cmd in tm.commands():
            assert engine.transitions(state, cmd, t) == tm.transitions(
                state, cmd, t
            )


def test_stable_encoding_round_trips():
    tm = DSTM(2, 2)
    engine = compile_tm(tm)
    for node in explore_nodes(tm)[:200]:
        packed = engine.encode_node(node)
        stable = engine.stable_of_node(packed)
        assert engine.node_of_stable(stable) == packed


def test_stable_encoding_translates_across_engines():
    """A fresh engine (different intern order) resolves another engine's
    stable ids to the same rich nodes — the property the persisted
    dense tables rely on."""
    a = compile_tm(DSTM(2, 2))
    b = compile_tm(DSTM(2, 2))
    nodes = explore_nodes(DSTM(2, 2))
    # warm engine a in exploration order, engine b in reverse order, so
    # their dense view ids genuinely differ
    for node in nodes:
        a.encode_node(node)
    for node in reversed(nodes):
        b.encode_node(node)
    for node in nodes[:100]:
        stable = a.stable_of_node(a.encode_node(node))
        assert b.decode_node(b.node_of_stable(stable)) == node


def test_expand_batches_node_rows():
    tm = TwoPhaseLockingTM(2, 1)
    engine = compile_tm(tm)
    init = engine.initial_node_packed()
    [(node, row)] = engine.expand([init])
    assert node == init
    assert row == engine.node_row(init)
    # successors of the frontier expand in one further batch
    frontier = sorted({entry[4] for entry in row})
    expanded = engine.expand(frontier)
    assert [n for n, _ in expanded] == frontier


def test_engine_stats_reflect_interning():
    tm = DSTM(2, 2)
    engine = compile_tm(tm)
    transition_system_size(tm)
    stats = engine.stats()
    # 4 statuses x 2^2 x 2^2 = 64 possible DSTM views; far fewer reachable
    assert 1 < stats["views"] <= 64
    assert stats["node_rows"] == transition_system_size(tm)


# ----------------------------------------------------------------------
# Lazy word membership
# ----------------------------------------------------------------------

WORDS = [
    "(r,1)1 (w,2)1 c1 (w,1)2 c2",
    "(r,1)1 (w,1)2 (w,2)1 c1 a2",
    "(r,1)1 (w,1)2 c2 (w,2)1 a1",
    "c1 c2 a1 a2",
    "(r,1)1 c2 c2 (w,2)2 c1",
]


@pytest.mark.parametrize(
    "factory",
    [lambda: SequentialTM(2, 2), lambda: DSTM(2, 2), lambda: TL2(2, 2)],
    ids=["seq", "dstm", "TL2"],
)
@pytest.mark.parametrize("text", WORDS)
def test_language_contains_matches_nfa_simulation(factory, text):
    word = parse_word(text)
    assert language_contains(factory(), word) == language_contains(
        factory(), word, compiled=False
    )


def test_dense_node_adjacency_memoized_and_covers_graph():
    """The liveness-side dense adjacency: one CSR per engine, node set
    and edge count equal to the (byte-identical) rich graph."""
    tm = DSTM(2, 1)
    engine = compile_tm(tm)
    adj = engine.dense_node_adjacency()
    assert engine.dense_node_adjacency() is adj  # memoized
    graph = build_liveness_graph(tm)
    assert len(adj.nodes) == len(graph.nodes)
    assert len(adj.targets) == len(adj.labels) == len(graph.edges)
    assert len(adj.offsets) == len(adj.nodes) + 1
    decoded = [engine.decode_node(p) for p in adj.nodes]
    assert tuple(decoded) == graph.nodes
