"""Benchmark gate for the compiled packed-state TM engine.

Times ``check_safety`` per Table 2 cell — naive streaming
(``compiled=False``, the PR 1 lazy path) vs the compiled engine — and
writes ``BENCH_compiled.json`` with per-cell wall times and states/sec.
Verdicts and counterexamples are asserted byte-identical between the
two paths before any timing is reported.

Each path runs ``--rounds`` rounds per cell on one long-lived TM
instance per TM (the pipeline's own usage: one instance checks both
properties).  Two numbers are recorded per cell and path:

* ``cold_s`` — the first round, which for the compiled path includes
  compiling the engine (interning views, building rows);
* ``best_s`` — the fastest round, i.e. steady state.  The naive path
  has no cross-run cache, so its best is essentially its cold; the
  compiled engine's memoized rows are the optimization being measured.

Exit status is 1 if the compiled path is slower than naive (total
best-round time over the budgeted subset), or if ``--require-speedup``
is given and any of the named cells falls short.  Intended CI use::

    PYTHONPATH=src python benchmarks/bench_compiled.py \
        --budget 20000 --require-speedup 2.0 --require-cells 2pl,dstm,tl2
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from typing import Callable, Dict, List, Optional

from repro.checking import check_safety
from repro.core.statements import format_word
from repro.spec import OP, SS, cached_det_spec
from repro.tm import (
    DSTM,
    TL2,
    ManagedTM,
    ModifiedTL2,
    PoliteManager,
    SequentialTM,
    TwoPhaseLockingTM,
)

FACTORIES: Dict[str, Callable] = {
    "seq": lambda: SequentialTM(2, 2),
    "2pl": lambda: TwoPhaseLockingTM(2, 2),
    "dstm": lambda: DSTM(2, 2),
    "tl2": lambda: TL2(2, 2),
    "modtl2+pol": lambda: ManagedTM(ModifiedTL2(2, 2), PoliteManager()),
}

PROPS = {"ss": SS, "op": OP}


#: Sub-50 ms measurements are repeated and averaged within a round so
#: tiny cells (2PL, seq) don't make the CI gate jitter.
MIN_MEASURE_S = 0.05


def _timed_round(check: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    check()
    elapsed = time.perf_counter() - t0
    if elapsed >= MIN_MEASURE_S:
        return elapsed
    repeats = max(1, int(MIN_MEASURE_S / max(elapsed, 1e-6)))
    t0 = time.perf_counter()
    for _ in range(repeats):
        check()
    return (time.perf_counter() - t0) / repeats


def run_path(
    factory: Callable,
    compiled: bool,
    rounds: int,
    budget: Optional[int],
    memory: bool,
) -> Dict[str, dict]:
    """Time both properties on one TM instance; rounds per cell.

    The first round is a single timed call (for the compiled path that
    is the *cold* run, engine compilation included); later rounds
    auto-repeat small cells for stable best-round numbers.
    """
    tm = factory()
    out: Dict[str, dict] = {}
    for prop_name, prop in PROPS.items():
        result = None

        def check():
            nonlocal result
            result = check_safety(
                tm, prop, compiled=compiled, max_states=budget
            )

        t0 = time.perf_counter()
        check()
        times: List[float] = [time.perf_counter() - t0]
        for _ in range(rounds - 1):
            times.append(_timed_round(check))
        assert result is not None
        cell = {
            "holds": result.holds,
            "tm_states": result.tm_states,
            "product_states": result.product_states,
            "counterexample": (
                None
                if result.counterexample is None
                else format_word(result.counterexample)
            ),
            "cold_s": round(times[0], 6),
            "best_s": round(min(times), 6),
            "states_per_s_cold": round(result.tm_states / times[0]),
            "states_per_s_best": round(result.tm_states / min(times)),
        }
        if memory:
            mem_tm = factory()  # fresh instance: peak includes compile
            tracemalloc.start()
            check_safety(mem_tm, prop, compiled=compiled, max_states=budget)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            cell["peak_kib"] = round(peak / 1024)
        out[prop_name] = cell
    return out


#: Opt-in --large tier: lazy-spec cells beyond the (2, 2) grid — beyond
#: what the naive path follows in reasonable time — timed on the
#: compiled path with a TM-side vs spec-side split so spec-oracle costs
#: stay visible in the trajectory.  The split instruments the compiled
#: oracle's ``fill``, so the instrumented round is reported separately
#: from the untimed best round.
LARGE_FACTORIES: Dict[str, Callable] = {
    "2pl32": lambda: TwoPhaseLockingTM(3, 2),
    "dstm23": lambda: DSTM(2, 3),
}


def run_large_path(factory: Callable, prop, rounds: int) -> Dict[str, object]:
    """Lazy-spec rounds with a spec-side timer on the first (cold) round.

    The spec share is measured by wrapping the compiled oracle's
    ``fill``, so it counts actual Algorithm 6 stepping, not memo hits.
    Wrapper overhead inflates the instrumented round slightly;
    ``best_s`` comes from later, uninstrumented rounds.
    """
    from repro.spec.compiled import CompiledSpecOracle

    tm = factory()
    acc = [0.0, 0]
    orig_fill = CompiledSpecOracle.fill

    def timed_fill(self, sid, sym):
        t0 = time.perf_counter()
        out = orig_fill(self, sid, sym)
        acc[0] += time.perf_counter() - t0
        acc[1] += 1
        return out

    CompiledSpecOracle.fill = timed_fill  # type: ignore[method-assign]
    try:
        t0 = time.perf_counter()
        result = check_safety(tm, prop, lazy_spec=True)
        instrumented = time.perf_counter() - t0
    finally:
        CompiledSpecOracle.fill = orig_fill  # type: ignore[method-assign]

    times = []
    for _ in range(max(1, rounds - 1)):
        t0 = time.perf_counter()
        result = check_safety(tm, prop, lazy_spec=True)
        times.append(time.perf_counter() - t0)
    return {
        "holds": result.holds,
        "tm_states": result.tm_states,
        "spec_states": result.spec_states,
        "product_states": result.product_states,
        "counterexample": (
            None
            if result.counterexample is None
            else format_word(result.counterexample)
        ),
        "instrumented_cold_s": round(instrumented, 6),
        "spec_side_s": round(acc[0], 6),
        "tm_side_s": round(instrumented - acc[0], 6),
        "spec_share": round(acc[0] / instrumented, 3),
        "spec_steps": acc[1],
        "best_s": round(min(times), 6),
    }


def run_large_tier(rounds: int) -> list:
    return [
        {
            "tm": name,
            "prop": prop_name,
            "compiled_oracle": run_large_path(factory, prop, rounds),
        }
        for name, factory in LARGE_FACTORIES.items()
        for prop_name, prop in PROPS.items()
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rounds", type=int, default=5, help="rounds per cell (default 5)"
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="state budget per cell (max_states); cells exceeding it fail",
    )
    parser.add_argument(
        "--output", default="BENCH_compiled.json", help="JSON output path"
    )
    parser.add_argument(
        "--tms",
        default=",".join(FACTORIES),
        help="comma-separated TM subset (default: all Table 2 TMs)",
    )
    parser.add_argument(
        "--require-speedup",
        type=float,
        default=None,
        help="fail unless every --require-cells cell reaches this"
        " best-round speedup",
    )
    parser.add_argument(
        "--require-cells",
        default="2pl,dstm,tl2",
        help="cells the --require-speedup gate applies to",
    )
    parser.add_argument(
        "--memory",
        action="store_true",
        help="also record tracemalloc peaks (slows the runs; excluded"
        " from the timed rounds)",
    )
    parser.add_argument(
        "--large",
        action="store_true",
        help="also run the opt-in large lazy-spec tier (2PL (3,2),"
        " DSTM (2,3)) with a TM-side vs spec-side time split",
    )
    args = parser.parse_args(argv)

    names = [n.strip().lower() for n in args.tms.split(",") if n.strip()]
    unknown = [n for n in names if n not in FACTORIES]
    if unknown:
        parser.error(f"unknown TMs: {unknown}; choose from {list(FACTORIES)}")

    # Prewarm everything both paths share — the spec cache, its cached
    # state count, and its interned form — so one-time process-global
    # costs don't land on whichever cell happens to run first.
    from repro.automata.interned import intern_dfa

    for prop in PROPS.values():
        spec = cached_det_spec(2, 2, prop)
        spec.num_states
        intern_dfa(spec)

    cells = []
    failures: List[str] = []
    for name in names:
        factory = FACTORIES[name]
        naive = run_path(factory, False, args.rounds, args.budget, args.memory)
        comp = run_path(factory, True, args.rounds, args.budget, args.memory)
        for prop_name in PROPS:
            nv, cp = naive[prop_name], comp[prop_name]
            for key in ("holds", "tm_states", "product_states",
                        "counterexample"):
                if nv[key] != cp[key]:
                    failures.append(
                        f"{name}/{prop_name}: {key} differs between paths"
                        f" ({nv[key]!r} vs {cp[key]!r})"
                    )
            cells.append(
                {
                    "tm": name,
                    "prop": prop_name,
                    "holds": nv["holds"],
                    "tm_states": nv["tm_states"],
                    "naive": nv,
                    "compiled": cp,
                    "speedup_cold": round(nv["cold_s"] / cp["cold_s"], 2),
                    "speedup_best": round(nv["best_s"] / cp["best_s"], 2),
                }
            )

    total_naive = sum(c["naive"]["best_s"] for c in cells)
    total_compiled = sum(c["compiled"]["best_s"] for c in cells)
    if total_compiled > total_naive:
        failures.append(
            f"compiled path slower overall: {total_compiled:.3f}s vs"
            f" naive {total_naive:.3f}s (best rounds)"
        )
    if args.require_speedup is not None:
        required = {
            n.strip().lower() for n in args.require_cells.split(",")
        }
        for cell in cells:
            if cell["tm"] in required and (
                cell["speedup_best"] < args.require_speedup
            ):
                failures.append(
                    f"{cell['tm']}/{cell['prop']}: best-round speedup"
                    f" {cell['speedup_best']}x <"
                    f" required {args.require_speedup}x"
                )

    large_cells: list = []
    if args.large:
        large_cells = run_large_tier(args.rounds)

    report = {
        "benchmark": "compiled packed-state TM engine vs PR 1 lazy path",
        "instance": "(n=2, k=2)",
        "rounds": args.rounds,
        "budget": args.budget,
        "cells": cells,
        "summary": {
            "total_naive_best_s": round(total_naive, 6),
            "total_compiled_best_s": round(total_compiled, 6),
            "overall_speedup_best": round(
                total_naive / total_compiled, 2
            ),
            "failures": failures,
        },
    }
    if large_cells:
        report["large_cells"] = large_cells
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    width = max(len(f"{c['tm']}/{c['prop']}") for c in cells)
    for c in cells:
        label = f"{c['tm']}/{c['prop']}"
        print(
            f"{label:{width}s}  naive {c['naive']['best_s']:8.4f}s"
            f"  compiled {c['compiled']['best_s']:8.4f}s"
            f"  speedup {c['speedup_best']:6.2f}x"
            f"  (cold {c['speedup_cold']:.2f}x,"
            f" {c['compiled']['states_per_s_best']} states/s)"
        )
    print(
        f"overall (best rounds): naive {total_naive:.3f}s,"
        f" compiled {total_compiled:.3f}s,"
        f" speedup {total_naive / total_compiled:.2f}x"
        f" -> {args.output}"
    )
    for c in large_cells:
        comp = c["compiled_oracle"]
        print(
            f"large {c['tm']}/{c['prop']}:"
            f" compiled {comp['best_s']:.3f}s"
            f" (spec share {comp['spec_share']:.0%})"
        )
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
