"""The safety verification pipeline (paper Section 5.4, Table 2).

``check_safety`` reproduces one cell of Table 2: explore the TM applied to
the most general program with ``n`` threads and ``k`` variables, build the
deterministic specification, and decide language inclusion by product
reachability (linear in the product, because the specification is
deterministic).  On failure the counterexample word is certified against
the reference decision procedures before being returned — the pipeline
never reports an uncertified violation.

By default the product is explored *on the fly*: TM successor states
stream straight from the explorer into the interned product kernel, so
the full safety NFA is never materialized and TM states unreachable in
the product (after an early violation) are never even constructed.
``materialize=True`` selects the original two-phase path (build the NFA,
then check); both paths produce identical verdicts and counterexamples.

Specifications are pulled from the process-wide memoizing cache
(:func:`repro.spec.build.cached_det_spec`) unless one is passed in, so
checking several TMs — or several Table cells — rebuilds nothing.

By the reduction theorem (Theorem 1), a verdict for (2, 2) extends to all
programs for TMs satisfying the structural properties P1–P4; and since a
contention manager only restricts the language, safety of the bare TM
covers every managed variant.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Optional, Tuple

from ..automata.dfa import DFA
from ..automata.inclusion import InclusionResult, check_inclusion_in_dfa
from ..cache import CacheLike
from ..automata.kernel import (
    lazy_product_dfa,
    lazy_product_oracle,
    product_packed,
)
from ..core.properties import is_opaque, is_strictly_serializable
from ..core.statements import Statement
from ..spec.build import cached_det_spec, interned_spec_rows
from ..spec.compiled import (
    cached_spec_dfa,
    cached_spec_oracle,
    statement_table,
)
from ..spec.common import OP, SS, SafetyProperty
from ..spec.det import det_step, initial_state as det_initial_state
from ..tm.algorithm import TMAlgorithm
from ..tm.compiled import compile_tm
from ..tm.explore import build_safety_nfa, initial_node, safety_step
from .reporting import SafetyResult


class CounterexampleUncertifiedError(AssertionError):
    """The inclusion check produced a word the reference checker accepts.

    This never happens when the specification automata are correct; it is
    raised (rather than silently reported) so that any regression in the
    spec layer surfaces loudly.
    """


def _reference_check(word: Tuple[Statement, ...], prop: SafetyProperty) -> bool:
    if prop is SS:
        return is_strictly_serializable(word)
    return is_opaque(word)


def _timed_row_fn(row_fn, row_map: Dict, profile: Dict[str, float]):
    """Profiling wrapper for the TM row function: memo hits pass
    through untimed, miss time accumulates under ``row_discovery_s``.
    Used only when a ``profile`` dict was requested — results are
    unchanged, the kernel just loses its direct-memo-probe shortcut."""
    get = row_map.get
    perf_counter = time.perf_counter

    def wrapped(nq: int):
        row = get(nq)
        if row is not None:
            return row
        t0 = perf_counter()
        row = row_fn(nq)
        profile["row_discovery_s"] += perf_counter() - t0
        return row

    return wrapped


def _close_profile(profile: Dict[str, float], t_product: float) -> None:
    """Derive the pair-loop share: total product time minus the row
    discovery and traced-rerun shares the wrappers accumulated."""
    total = time.perf_counter() - t_product
    profile["product_bfs_s"] = max(
        0.0,
        total - profile["row_discovery_s"] - profile["trace_rerun_s"],
    )


def _dense_for(engine, side, prop, dense_kernel, cache_dir, max_states):
    """The dense CSR table a check should use, or ``None``.

    ``dense_kernel`` is tri-state: ``True`` forces recording/replay,
    ``False`` forces the set-based loop, and ``None`` (the default)
    auto-gates — record only when a cache is set (the table will be
    replayed by warm runs) or when the engine already holds a recorded
    table in-process (replay is free).  A one-shot cold run without a
    cache thus no longer pays the 15-35% recording overhead for a table
    nothing will ever replay.  Bounded runs never use the kernel.
    """
    if max_states is not None or dense_kernel is False:
        return None
    csr = engine.dense_csr(side, prop)
    if dense_kernel is True or cache_dir is not None:
        return csr
    return csr if csr is not None and csr.built else None


@contextmanager
def _warm(cache_dir, engine, side, dense, lazy_spec):
    """Warm-load the check's tables (anything with the ``load_warm``/
    ``save_warm`` contract: the compiled TM engine, a compiled spec
    side, the dense kernel's CSR table; ``None`` entries are skipped)
    from ``cache_dir`` before the product runs, and spill them after.
    Nothing happens without a cache.

    The dense table loads first.  Yields whether it restored a
    *complete* table recorded from this engine's initial node (compared
    in the stable encoding, so nothing is interned): such a table
    replays array-only and never calls the row function or the
    oracle's ``fill``, so the TM engine's payload is not read at all,
    nor the spec oracle's — the replay re-derives its spec-state count.
    Both stay *fresh*, and a later check on them in this process can
    still warm-load them.  A partial (violating), mismatched or absent
    table loads everything: the product needs the rows."""
    if cache_dir is None:
        yield False
        return
    replay = (
        dense is not None
        and dense.load_warm(cache_dir)
        and dense.complete
        and dense.matches_init([engine.initial_node_stable()], stable=True)
    )
    if replay:
        loads = () if lazy_spec else (side,)
    else:
        loads = (engine, side)
    for table in loads:
        if table:
            table.load_warm(cache_dir)
    yield replay
    for table in (engine, side, dense):
        if table:  # save_warm is a no-op on tables nothing was added to
            table.save_warm(cache_dir)


def check_safety(
    tm: TMAlgorithm,
    prop: SafetyProperty,
    *,
    spec: Optional[DFA] = None,
    certify: bool = True,
    materialize: bool = False,
    lazy_spec: bool = False,
    compiled: bool = True,
    dense_kernel: Optional[bool] = None,
    cache_dir: "CacheLike" = None,
    max_states: Optional[int] = None,
    profile: Optional[Dict[str, float]] = None,
) -> SafetyResult:
    """Check ``L(tm) ⊆ pi`` for the TM's own (n, k).

    ``spec`` may be passed to reuse a prebuilt deterministic
    specification; otherwise it comes from the memoizing spec cache.
    ``materialize=True`` builds the full safety NFA before checking (the
    original path); the default streams TM states into the product
    lazily.  ``lazy_spec=True`` additionally streams the *specification*
    through its transition function (Algorithm 6's ``detSpec``) instead
    of materializing the DFA — the check is then bounded by the product
    reachable set, which unlocks (n, k) instances whose full
    specification is astronomically large.  ``max_states`` bounds the
    TM state exploration either way.

    There are three paths:

    * ``materialize=True`` — the paper's two-phase path: build the
      safety NFA, then decide inclusion in the spec DFA;
    * ``compiled=False`` — the naive reference: tuple-of-frozensets TM
      states streamed into the product against the rich spec DFA (or,
      with ``lazy_spec``, the rich ``det_step`` oracle);
    * the default — one packed product
      (:func:`repro.automata.kernel.product_packed`) over the compiled
      TM engine (:mod:`repro.tm.compiled`) and an int-indexed spec
      table: the compiled spec oracle with ``lazy_spec``
      (:class:`repro.spec.compiled.CompiledSpecOracle`, rows filled on
      demand), the int-rows canonical DFA otherwise
      (:class:`repro.spec.compiled.CompiledSpecDFA`, every row filled),
      or a caller-provided ``spec`` re-indexed by statement id
      (:func:`repro.spec.build.interned_spec_rows`).

    Verdicts, counterexamples and all reported counts are byte-identical
    between the three.

    On the canonical compiled paths the **dense kernel** records the
    product's adjacency into a flat CSR table over dense pair ids on the
    first untraced pass (:class:`repro.automata.kernel.DenseCSR`, kept
    on the engine and — with ``cache_dir`` — persisted), and every later
    run of the same product replays as an array-only bitset BFS that
    never touches the row memos.  ``dense_kernel`` is tri-state: the
    default ``None`` auto-gates — recording engages only when a cache is
    set or the engine already holds a recorded table, so a one-shot cold
    run skips the 15-35% recording overhead; ``dense_kernel=True`` (CLI
    ``--dense-kernel``) forces recording even without a cache; ``False``
    (CLI ``--no-dense-kernel``) keeps the set-based pair loop as the
    differential reference.  Bounded (``max_states``), codec-less and
    caller-spec configurations ignore the flag and stay on the
    set-based path.

    ``cache_dir`` enables the warm-start cache (:mod:`repro.cache`): a
    directory string selects the pickle-on-disk backend, and any
    :class:`repro.cache.CacheBackend` instance (e.g. the zero-copy mmap
    backend, CLI ``--cache-backend mmap``) is used as given.  Interned
    tables and memoized rows of the compiled engines — and the dense
    kernel's CSR tables — are restored before the check and spilled
    after, so repeated process invocations skip re-compilation
    entirely; a restored complete (holding) dense table replays alone,
    without reading the engine's or the spec oracle's payload (see
    :func:`_warm`).  A caller-provided ``spec`` is not the canonical one, so
    nothing derived from it is cached: only the TM engine's rows (which
    do not depend on the spec) warm-start.

    ``profile``, when given an (empty) dict, is filled with a per-phase
    wall-time split: ``engine_build_s`` (compilation, warm loads, spec
    table construction), ``row_discovery_s`` (time inside TM row-memo
    misses), ``product_bfs_s`` (the pair loop proper) and
    ``trace_rerun_s`` (the traced rerun after a violation).  Profiling
    wraps the row function, so it adds a little overhead but changes no
    result; the CLI exposes it as ``--profile`` (JSON on stderr) and the
    benchmarks record it per cell.

    ``tm_states`` in the result is the number of TM states explored:
    when the inclusion holds it equals the full reachable state space
    on every path, but after a violation the lazy paths report only
    the states discovered up to the counterexample (a subset of the
    materialized count).  With ``lazy_spec``, ``spec_states`` likewise
    counts only the spec states the product discovered.
    """
    t0 = time.perf_counter()
    if profile is not None:
        profile.update(
            engine_build_s=0.0,
            row_discovery_s=0.0,
            product_bfs_s=0.0,
            trace_rerun_s=0.0,
        )
    if lazy_spec and (materialize or spec is not None):
        raise ValueError(
            "lazy_spec streams the specification: it cannot be"
            " combined with materialize=True or a prebuilt spec"
        )
    if materialize:
        if spec is None:
            spec = cached_det_spec(tm.n, tm.k, prop)
        nfa = build_safety_nfa(tm, max_states=max_states)
        result = check_inclusion_in_dfa(nfa, spec)
        tm_states = nfa.num_states
        spec_states = spec.num_states
    elif not compiled:
        if lazy_spec:
            holds, counterexample, discovered, tm_states, spec_states = (
                lazy_product_oracle(
                    [initial_node(tm)],
                    safety_step(tm),
                    det_initial_state(tm.n),
                    lambda state, stmt: det_step(state, stmt, prop),
                    max_states=max_states,
                )
            )
        else:
            if spec is None:
                spec = cached_det_spec(tm.n, tm.k, prop)
            holds, counterexample, discovered, tm_states = lazy_product_dfa(
                [initial_node(tm)],
                safety_step(tm),
                spec,
                max_states=max_states,
            )
            spec_states = spec.num_states
        result = InclusionResult(
            holds=holds,
            counterexample=counterexample,
            product_states=discovered,
        )
    else:
        engine = compile_tm(tm)
        if lazy_spec:
            side = cached_spec_oracle(tm.n, tm.k, prop)
        elif spec is None:
            side = cached_spec_dfa(tm.n, tm.k, prop)
        else:
            side = None
        dense = (
            None
            if side is None
            else _dense_for(
                engine,
                "oracle" if lazy_spec else "dfa",
                prop,
                dense_kernel,
                cache_dir,
                max_states,
            )
        )
        with _warm(cache_dir, engine, side, dense, lazy_spec) as replay:
            # Tables are picked up *after* the warm load above —
            # load_warm rebinds them, and a stale reference would miss
            # every restored row.
            if lazy_spec:
                spec_rows, fill = side.rows, side.fill
            elif side is not None:
                spec_rows, fill = side.ensure().rows, None
            else:
                spec_rows = interned_spec_rows(tm.n, tm.k, prop, spec=spec)
                fill = None
            if profile is not None:
                profile["engine_build_s"] = time.perf_counter() - t0
                t_product = time.perf_counter()
            if replay:
                # A complete table holds: the replay is the whole product.
                violated, discovered, tm_states, spec_seen = dense.run()
                assert not violated, "a complete dense table has no flags"
                holds, ce_ids = True, None
            else:
                row_fn = engine.safety_row_ids
                row_map = engine.safety_rows_map()
                if profile is not None:
                    row_fn = _timed_row_fn(row_fn, row_map, profile)
                    row_map = None
                (
                    holds, ce_ids, discovered, tm_states, spec_seen
                ) = product_packed(
                    row_fn,
                    [engine.initial_node_packed()],
                    spec_rows,
                    fill=fill,
                    node_span=engine.node_span,
                    row_map=row_map,
                    max_states=max_states,
                    dense=dense,
                    profile=profile,
                )
            if profile is not None:
                _close_profile(profile, t_product)
        # The oracle side reports the spec states the product discovered;
        # a materialized table reports the whole automaton (one row per
        # state, i.e. ``num_states`` of the DFA it was interned from).
        spec_states = spec_seen if lazy_spec else len(spec_rows)
        symbols = statement_table(tm.n, tm.k)
        result = InclusionResult(
            holds=holds,
            counterexample=(
                None if ce_ids is None else tuple(symbols[s] for s in ce_ids)
            ),
            product_states=discovered,
        )
    elapsed = time.perf_counter() - t0
    if profile is not None and not any(profile.values()):
        # A branch without fine-grained instrumentation (materialized,
        # naive): report the whole check as the pair loop.
        profile["product_bfs_s"] = elapsed
    if not result.holds and certify:
        assert result.counterexample is not None
        if _reference_check(result.counterexample, prop):
            raise CounterexampleUncertifiedError(
                f"{tm.name}: counterexample {result.counterexample} is"
                f" actually in {prop.value}"
            )
    return SafetyResult(
        tm_name=tm.name,
        prop=prop,
        holds=result.holds,
        tm_states=tm_states,
        spec_states=spec_states,
        product_states=result.product_states,
        seconds=elapsed,
        counterexample=result.counterexample,
    )


def check_safety_both(
    tm: TMAlgorithm,
    *,
    specs: Optional[Dict[SafetyProperty, DFA]] = None,
) -> Tuple[SafetyResult, SafetyResult]:
    """Both Table 2 cells (strict serializability and opacity) for one TM."""
    specs = specs or {}
    return (
        check_safety(tm, SS, spec=specs.get(SS)),
        check_safety(tm, OP, spec=specs.get(OP)),
    )


def build_specs(n: int, k: int) -> Dict[SafetyProperty, DFA]:
    """Both deterministic specifications, from the memoizing cache."""
    return {SS: cached_det_spec(n, k, SS), OP: cached_det_spec(n, k, OP)}
