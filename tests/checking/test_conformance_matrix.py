"""Cross-engine conformance matrix: one suite, every engine combination.

The safety pipeline has three engine axes on top of the naive reference
path (``compiled=False``): the compiled packed product (compiled TM
engine × int-indexed spec side — the packed oracle on the lazy path,
the int-rows DFA on the materialized path, or a caller-provided spec
DFA re-indexed by statement id), the dense array-backed BFS kernel (CSR
successor tables + bitset seen-sets vs the set-based pair loop), and
the warm cache over its pluggable backends (disk pickle, in-memory,
mmap segments).  Every cell of this matrix must produce
**byte-identical** verdicts, counterexamples and reported counts
against the naive reference, holding and violating instances alike.
This file replaces the per-PR ad-hoc differentials with one systematic
sweep; new engine axes should be added here, not as new one-off tests.
"""

import os

import pytest

from repro.cache import MemoryCacheBackend, MmapCacheBackend
from repro.checking import check_safety
from repro.spec import OP, SS, cached_det_spec
from repro.spec.compiled import (
    clear_spec_dfa_cache,
    clear_spec_oracle_cache,
)
from repro.tm import (
    DSTM,
    BoundedKarmaManager,
    ManagedTM,
    ModifiedTL2,
    TwoPhaseLockingTM,
    make_mutant,
)

#: Algorithm × property cells that fit tier-1 time.  ModifiedTL2 (2, 2)
#: and the seeded mutant are the violating instances: their
#: counterexamples must survive every engine combination bit for bit.
#: The managed cell exercises the stateful-manager product (codec-less:
#: no dense table, no warm cache — still byte-identical).
CELLS = [
    pytest.param(lambda: TwoPhaseLockingTM(2, 1), SS, id="2pl21-ss"),
    pytest.param(lambda: TwoPhaseLockingTM(2, 1), OP, id="2pl21-op"),
    pytest.param(lambda: DSTM(2, 2), SS, id="dstm22-ss"),
    pytest.param(lambda: DSTM(2, 2), OP, id="dstm22-op"),
    pytest.param(lambda: ModifiedTL2(2, 2), SS, id="modtl2-22-ss"),
    pytest.param(lambda: ModifiedTL2(2, 2), OP, id="modtl2-22-op"),
    pytest.param(
        lambda: ManagedTM(DSTM(2, 1), BoundedKarmaManager(2)),
        SS,
        id="dstm21-karma-ss",
    ),
    pytest.param(
        lambda: make_mutant("tl2/drop-chklock", 2, 2),
        SS,
        id="tl2-drop-chklock-22-ss",
    ),
]


def _tuple(res):
    return (
        res.holds,
        res.counterexample,
        res.tm_states,
        res.spec_states,
        res.product_states,
    )


def _combos(lazy_spec):
    """Engine combinations: compiled × dense-kernel × cache backend,
    plus the naive path (which has no dense kernel and no cache) and —
    on the DFA side — a caller-provided spec, which takes the compiled
    product without a dense table or spec cache.  The backend axis:
    ``None`` is a cold run; ``"disk"``, ``"memory"`` and ``"mmap"``
    warm-restore (the backend-protocol conformance itself lives in
    ``tests/test_cache_backends.py``)."""
    for dense in (True, False):
        for backend in (None, "disk", "memory", "mmap"):
            yield {"dense": dense, "backend": backend}
    yield {"compiled": False}
    if not lazy_spec:
        for backend in (None, "disk"):
            yield {"caller_spec": True, "backend": backend}


@pytest.mark.parametrize("lazy_spec", [False, True], ids=["dfa", "oracle"])
@pytest.mark.parametrize("factory,prop", CELLS)
def test_every_engine_combination_matches_naive(
    tmp_path, factory, prop, lazy_spec
):
    cache_dir = str(tmp_path)
    # Populate one warm store per backend, then the warm combos restore
    # from it after the process-wide compiled-spec caches are dropped
    # (the closest in-process approximation of a fresh warm-started
    # process).  The memory backend must be the *same object* across
    # populate and restore — it has no disk.
    backends = {
        "disk": cache_dir,
        "mmap": MmapCacheBackend(os.path.join(cache_dir, "mm")),
        "memory": MemoryCacheBackend(),
    }
    for store in backends.values():
        clear_spec_oracle_cache()
        clear_spec_dfa_cache()
        check_safety(factory(), prop, lazy_spec=lazy_spec, cache_dir=store)

    reference = _tuple(
        check_safety(factory(), prop, lazy_spec=lazy_spec, compiled=False)
    )
    for combo in _combos(lazy_spec):
        kwargs = {
            "lazy_spec": lazy_spec,
            "compiled": combo.get("compiled", True),
            "dense_kernel": combo.get("dense"),
        }
        tm = factory()
        if combo.get("caller_spec"):
            kwargs["spec"] = cached_det_spec(tm.n, tm.k, prop)
        if combo.get("backend") is not None:
            clear_spec_oracle_cache()
            clear_spec_dfa_cache()
            kwargs["cache_dir"] = backends[combo["backend"]]
        got = _tuple(check_safety(tm, prop, **kwargs))
        assert got == reference, f"combo {combo} diverged"
    clear_spec_oracle_cache()
    clear_spec_dfa_cache()


@pytest.mark.parametrize(
    "factory,prop",
    [
        pytest.param(lambda: DSTM(2, 2), SS, id="dstm22-ss"),
        pytest.param(lambda: ModifiedTL2(2, 2), SS, id="modtl2-22-ss"),
    ],
)
def test_lazy_and_materialized_spec_agree(factory, prop):
    """Across the lazy axis everything but the spec-states count (full
    automaton vs product-discovered subset) must agree — the product
    graphs are identical, only the right-hand representation differs."""
    lazy = check_safety(factory(), prop, lazy_spec=True)
    mat = check_safety(factory(), prop, lazy_spec=False)
    assert lazy.holds == mat.holds
    assert lazy.counterexample == mat.counterexample
    assert lazy.tm_states == mat.tm_states
    assert lazy.product_states == mat.product_states


def test_violating_cell_actually_violates():
    """Guard the matrix itself: the violating cell must keep violating,
    or the counterexample column of the sweep degenerates."""
    res = check_safety(ModifiedTL2(2, 2), SS)
    assert not res.holds
    assert res.counterexample is not None


def test_max_states_guard_identical_across_engines():
    """The guard raise is order-sensitive; every engine combination must
    produce the identical message."""
    messages = set()
    for kwargs in (
        {"lazy_spec": True},
        {"lazy_spec": True, "compiled": False},
        {"lazy_spec": True, "dense_kernel": False},
        {},
        {"compiled": False},
        {"spec": cached_det_spec(2, 2, SS)},
    ):
        with pytest.raises(RuntimeError) as exc:
            check_safety(DSTM(2, 2), SS, max_states=40, **kwargs)
        messages.add(str(exc.value))
    assert len(messages) == 1
