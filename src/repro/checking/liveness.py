"""The liveness verification pipeline (paper Section 6, Table 3).

Liveness depends on the contention manager, so the TM under test is
usually a :class:`~repro.tm.compose.ManagedTM`.  Per Section 6, on the
finite transition system of the TM applied to the most general program:

* **obstruction freedom** fails iff some reachable loop consists of
  statements of a single thread, contains no commit, and contains an
  abort (the single-conjunct escape of the Streett condition);
* **livelock freedom** fails iff some reachable commit-free loop exists
  in which every thread that takes a step also aborts;
* **wait freedom** fails iff some reachable loop contains an abort at
  all (an aborted transaction never commits) — it is strictly stronger
  than livelock freedom, and the paper notes none of its TMs satisfy it.

All three reduce to SCC computations over filtered edge sets of the
liveness graph; violations are returned as lassos over extended
statements and certified against the Section 2 definitions on their
observable projections.  By Theorem 5, a (2, 1) verdict generalizes for
TMs satisfying P5–P6.
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..automata.graph import (
    Lasso,
    build_lasso,
    closed_walk_through,
    tarjan_sccs,
)
from ..cache import CacheLike
from ..core.liveness_words import (
    is_livelock_free_lasso,
    is_obstruction_free_lasso,
    is_wait_free_lasso,
)
from ..core.statements import Kind, Statement
from ..tm.algorithm import Resp, TMAlgorithm
from ..tm.explore import ExtStatement, LivenessGraph, build_liveness_graph
from .reporting import LivenessResult

Edge = Tuple[object, ExtStatement, object]


def observable_projection(
    labels: Sequence[ExtStatement],
) -> Tuple[Statement, ...]:
    """Project extended statements to the successful-statement word.

    Completed commands (response 1) become statements, aborts (response
    0) become abort statements, and ⊥-steps vanish.  Note that a command
    whose completing step lies outside the loop contributes nothing —
    matching the paper's definition of the word of a run.
    """
    out: List[Statement] = []
    for lbl in labels:
        if lbl.resp is Resp.DONE:
            kind = Kind(lbl.ext_name)
            out.append(Statement(kind, lbl.ext_var, lbl.thread))
        elif lbl.resp is Resp.ABORT:
            out.append(Statement(Kind.ABORT, None, lbl.thread))
    return tuple(out)


def _violation_result(
    tm: TMAlgorithm,
    property_name: str,
    graph: LivenessGraph,
    lasso: Lasso,
    seconds: float,
    certifier,
) -> LivenessResult:
    stem = lasso.stem_labels()
    loop = lasso.cycle_labels()
    obs_stem = observable_projection(stem)
    obs_loop = observable_projection(loop)
    if obs_loop:  # certify against the Section 2 definition
        assert not certifier(obs_stem, obs_loop), (
            f"{tm.name}: lasso does not actually violate {property_name}"
        )
    return LivenessResult(
        tm_name=tm.name,
        property_name=property_name,
        holds=False,
        graph_states=len(graph.nodes),
        seconds=seconds,
        stem=stem,
        loop=loop,
        observable_stem=obs_stem,
        observable_loop=obs_loop,
    )


def _find_abort_cycle(
    graph: LivenessGraph,
    edges: Sequence[Edge],
    required_threads: Iterable[int],
) -> Optional[Lasso]:
    """A reachable cycle within ``edges`` containing an abort of every
    required thread, or ``None``."""
    required = set(required_threads)
    nodes = {e[0] for e in edges} | {e[2] for e in edges}
    for scc in tarjan_sccs(nodes, edges):
        inner = [e for e in edges if e[0] in scc and e[2] in scc]
        if not inner:
            continue
        abort_edges: List[Edge] = []
        seen_threads: Set[int] = set()
        for e in inner:
            if e[1].is_abort and e[1].thread in required - seen_threads:
                abort_edges.append(e)
                seen_threads.add(e[1].thread)
        if seen_threads != required:
            continue
        walk = closed_walk_through(scc, inner, abort_edges)
        if walk is None:
            continue
        lasso = build_lasso(graph.edges, graph.initial, walk)
        if lasso is not None:
            return lasso
    return None


def check_obstruction_freedom(
    tm: TMAlgorithm,
    *,
    graph: Optional[LivenessGraph] = None,
    compiled: bool = True,
    cache_dir: CacheLike = None,
) -> LivenessResult:
    """Does every loop of a single thread without commits avoid aborts?"""
    t0 = time.perf_counter()
    if graph is None:
        graph = build_liveness_graph(
            tm, compiled=compiled, cache_dir=cache_dir
        )
    for t in tm.threads():
        edges = [
            e
            for e in graph.edges
            if e[1].thread == t and not e[1].is_commit
        ]
        lasso = _find_abort_cycle(graph, edges, [t])
        if lasso is not None:
            return _violation_result(
                tm,
                "obstruction freedom",
                graph,
                lasso,
                time.perf_counter() - t0,
                is_obstruction_free_lasso,
            )
    return LivenessResult(
        tm_name=tm.name,
        property_name="obstruction freedom",
        holds=True,
        graph_states=len(graph.nodes),
        seconds=time.perf_counter() - t0,
    )


def check_livelock_freedom(
    tm: TMAlgorithm,
    *,
    graph: Optional[LivenessGraph] = None,
    compiled: bool = True,
    cache_dir: CacheLike = None,
) -> LivenessResult:
    """Is there no commit-free loop in which every participant aborts?"""
    t0 = time.perf_counter()
    if graph is None:
        graph = build_liveness_graph(
            tm, compiled=compiled, cache_dir=cache_dir
        )
    threads = list(tm.threads())
    for size in range(1, len(threads) + 1):
        for subset in combinations(threads, size):
            edges = [
                e
                for e in graph.edges
                if e[1].thread in subset and not e[1].is_commit
            ]
            lasso = _find_abort_cycle(graph, edges, subset)
            if lasso is not None:
                return _violation_result(
                    tm,
                    "livelock freedom",
                    graph,
                    lasso,
                    time.perf_counter() - t0,
                    is_livelock_free_lasso,
                )
    return LivenessResult(
        tm_name=tm.name,
        property_name="livelock freedom",
        holds=True,
        graph_states=len(graph.nodes),
        seconds=time.perf_counter() - t0,
    )


def check_wait_freedom(
    tm: TMAlgorithm,
    *,
    graph: Optional[LivenessGraph] = None,
    compiled: bool = True,
    cache_dir: CacheLike = None,
) -> LivenessResult:
    """Is there no reachable loop containing an abort at all?

    An abort occurring infinitely often means infinitely many
    transactions never commit, violating "every transaction eventually
    commits".  (Commit-starvation without aborts cannot occur in the
    paper's TMs: every ⊥-step strictly grows a lock/ownership set, so
    loops always contain completed statements.)
    """
    t0 = time.perf_counter()
    if graph is None:
        graph = build_liveness_graph(
            tm, compiled=compiled, cache_dir=cache_dir
        )
    nodes = {e[0] for e in graph.edges} | {e[2] for e in graph.edges}
    for scc in tarjan_sccs(nodes, graph.edges):
        inner = [e for e in graph.edges if e[0] in scc and e[2] in scc]
        aborts = [e for e in inner if e[1].is_abort]
        if not aborts:
            continue
        walk = closed_walk_through(scc, inner, aborts[:1])
        if walk is None:
            continue
        lasso = build_lasso(graph.edges, graph.initial, walk)
        if lasso is not None:
            return _violation_result(
                tm,
                "wait freedom",
                graph,
                lasso,
                time.perf_counter() - t0,
                is_wait_free_lasso,
            )
    return LivenessResult(
        tm_name=tm.name,
        property_name="wait freedom",
        holds=True,
        graph_states=len(graph.nodes),
        seconds=time.perf_counter() - t0,
    )


def check_liveness_all(
    tm: TMAlgorithm,
    *,
    compiled: bool = True,
    cache_dir: CacheLike = None,
) -> Tuple[LivenessResult, ...]:
    """Obstruction, livelock and wait freedom on one shared graph
    (``cache_dir`` warm-starts the engine's node rows; see
    :func:`repro.tm.explore.build_liveness_graph`)."""
    graph = build_liveness_graph(
        tm, compiled=compiled, cache_dir=cache_dir
    )
    return (
        check_obstruction_freedom(tm, graph=graph),
        check_livelock_freedom(tm, graph=graph),
        check_wait_freedom(tm, graph=graph),
    )
