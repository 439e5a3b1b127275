"""The traced run: each workload's checks in-process, with spans around
the calls into each layer's public functions, plus the floor probes
that work inside forked children (serve, hunt) is attributed against.

Spans are named ``<layer>.<call>`` and carry start, end, parent span,
self time and the id of the check they belong to.  They are held in
memory and written as JSONL to ``.bench_work/`` when the run ends.  Row
discovery (``CompiledTM.safety_row_ids`` memo misses) and spec-oracle
fills (``CompiledSpecOracle.fill``) fire up to millions of times per
check, so they are aggregated — count and total time charged to the
enclosing span — instead of recorded one by one.

Time metrics are means per check over one traced pass of the workload's
check set; counts are totals over that pass; a layer that does not run
on the workload reads 0 — except that hunt, which uses no cache and no
lazy spec, reports cache writes and spec-oracle fills from a cold probe
(:func:`cold_probe`).  ``kernel.pair_loop_s`` is the self time of
``check_safety``: whatever no layer span inside it names.  So
``trace.coverage`` — the share of the traced checks' wall that layer
spans cover — counts it as unattributed.  ``trace.overhead`` is the
traced over the untraced wall of the checks run both ways, minus one.
"""

from __future__ import annotations

import collections
import json
import os
import random
import time
from contextlib import contextmanager
from typing import Dict, Hashable, List, Optional

from common import (
    PROPS,
    PYTHON,
    BenchError,
    bare_start,
    median,
    repro_argv,
    run_proc,
    spawn,
    stop,
    verify,
    work_dir,
)
from workloads import fill_registry_cache, registry_checks


class Tracer:
    """In-memory spans and counters for one traced run."""

    HOT = ("tm.row_discovery", "spec.fill")

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.stack: List[dict] = []
        self.check: Optional[str] = None
        #: Running ``[calls, seconds]`` of each aggregated hot call.
        self.hot = {name: [0, 0.0] for name in self.HOT}
        self.hot_n: Dict[tuple, int] = collections.Counter()
        self.hot_s: Dict[tuple, float] = collections.Counter()
        self.counts: Dict[tuple, float] = collections.Counter()

    def _hot_clock(self) -> float:
        return sum(acc[1] for acc in self.hot.values())

    @contextmanager
    def span(self, name: str):
        span = {
            "id": len(self.spans) + len(self.stack),
            "name": name,
            "check": self.check,
            "parent": self.stack[-1]["id"] if self.stack else None,
            "child_s": 0.0,
            "child_hot_s": 0.0,
            "hot0": self._hot_clock(),
            "start": time.perf_counter(),
        }
        self.stack.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self.stack.pop()
            duration = span["end"] - span["start"]
            hot = self._hot_clock() - span.pop("hot0")
            # Hot calls made directly in this span (not inside a child
            # span, whose duration already covers them) are children too.
            own_hot = hot - span.pop("child_hot_s")
            span["self_s"] = duration - span.pop("child_s") - own_hot
            if self.stack:
                self.stack[-1]["child_s"] += duration
                self.stack[-1]["child_hot_s"] += hot
            self.spans.append(span)

    def snapshot(self):
        return {name: tuple(acc) for name, acc in self.hot.items()}

    def charge(self, check: str, before) -> None:
        """Book the hot calls made since ``before`` to ``check``."""
        for name, acc in self.hot.items():
            self.hot_n[(check, name)] += acc[0] - before[name][0]
            self.hot_s[(check, name)] += acc[1] - before[name][1]

    def count(self, name: str, value: float = 1) -> None:
        self.counts[(self.check, name)] += value

    # -- per-pass aggregates -------------------------------------------

    def total(self, checks, name: str, field: str = "duration") -> float:
        return sum(
            (s["end"] - s["start"]) if field == "duration" else s[field]
            for s in self.spans
            if s["name"] == name and s["check"] in checks
        )

    def hot_total(self, checks, name: str):
        return (
            sum(v for (c, n), v in self.hot_n.items() if n == name and c in checks),
            sum(v for (c, n), v in self.hot_s.items() if n == name and c in checks),
        )

    def counted(self, checks, name: str) -> float:
        return sum(
            v for (c, n), v in self.counts.items() if n == name and c in checks
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")
            for (check, name), n in sorted(
                self.hot_n.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
            ):
                fh.write(json.dumps({
                    "aggregate": name, "check": check, "calls": n,
                    "seconds": self.hot_s[(check, name)],
                }, sort_keys=True) + "\n")


def _traced_backend(tracer: Tracer, inner):
    """A delegating :class:`repro.cache.CacheBackend` that times and
    counts every payload load and save of ``inner``."""
    from repro.cache import CacheBackend

    class TracedBackend(CacheBackend):
        def __init__(self) -> None:
            self.inner = inner

        def load(self, key: Hashable):
            with tracer.span("cache.load"):
                data = inner.load(key)
            tracer.count("cache.loads")
            if data is not None:
                stat = inner.stat(key) or {}
                tracer.count("cache.bytes_read", stat.get("bytes", 0))
            return data

        def save(self, key: Hashable, data) -> bool:
            with tracer.span("cache.save"):
                ok = inner.save(key, data)
            tracer.count("cache.saves")
            if ok:
                stat = inner.stat(key) or {}
                tracer.count("cache.bytes_written", stat.get("bytes", 0))
            return ok

        def keys(self):
            return inner.keys()

        def stat(self, key: Hashable):
            return inner.stat(key)

        def error_counts(self) -> Dict[str, int]:
            return inner.error_counts()

    return TracedBackend()


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap the layers' public calls in spans for the duration."""
    import repro.checking.safety as safety
    from repro.automata.kernel import DenseCSR
    from repro.spec.compiled import CompiledSpecDFA, CompiledSpecOracle
    from repro.tm.compiled import CompiledTM

    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def spanned(owner, attr, name):
        orig = owner.__dict__[attr]

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return orig(*args, **kwargs)

        patch(owner, attr, wrapper)

    for owner, attr, name in (
        (CompiledTM, "load_warm", "tm.load_warm"),
        (CompiledTM, "save_warm", "tm.save_warm"),
        (CompiledSpecOracle, "load_warm", "spec.load_warm"),
        (CompiledSpecOracle, "save_warm", "spec.save_warm"),
        (CompiledSpecDFA, "load_warm", "spec.load_warm"),
        (CompiledSpecDFA, "save_warm", "spec.save_warm"),
        (CompiledSpecDFA, "ensure", "spec.dfa_build"),
        (DenseCSR, "load_warm", "kernel.dense_load"),
        (DenseCSR, "save_warm", "kernel.dense_save"),
        (DenseCSR, "run", "kernel.dense_replay"),
        (safety, "is_strictly_serializable", "checking.certify"),
        (safety, "is_opaque", "checking.certify"),
    ):
        spanned(owner, attr, name)

    clock = time.perf_counter
    rows_acc = tracer.hot["tm.row_discovery"]
    fill_acc = tracer.hot["spec.fill"]
    row_ids = CompiledTM.__dict__["safety_row_ids"]

    def safety_row_ids(self, packed_node):
        if packed_node in self.safety_rows_map():
            return row_ids(self, packed_node)
        t0 = clock()
        row = row_ids(self, packed_node)
        rows_acc[1] += clock() - t0
        rows_acc[0] += 1
        return row

    fill = CompiledSpecOracle.__dict__["fill"]

    def oracle_fill(self, state_id, sym):
        t0 = clock()
        succ = fill(self, state_id, sym)
        fill_acc[1] += clock() - t0
        fill_acc[0] += 1
        return succ

    patch(CompiledTM, "safety_row_ids", safety_row_ids)
    patch(CompiledSpecOracle, "fill", oracle_fill)
    try:
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


# ----------------------------------------------------------------------
# In-process checks
# ----------------------------------------------------------------------


def clear_spec_memos() -> None:
    """Drop every process-wide spec memo, as a fresh process starts."""
    from repro.spec.build import clear_spec_cache
    from repro.spec.compiled import clear_spec_dfa_cache, clear_spec_oracle_cache

    clear_spec_cache()
    clear_spec_oracle_cache()
    clear_spec_dfa_cache()


def fresh_tm(name: str, n: int, k: int):
    """A new TM instance (so a new compiled engine) with every spec memo
    cleared: an in-process check that starts where a fresh process would."""
    from repro.cli import TM_FACTORIES
    from repro.tm.mutate import make_mutant

    clear_spec_memos()
    return make_mutant(name, n, k) if "/" in name else TM_FACTORIES[name](n, k)


class Pass:
    """One pass of a workload's checks in this process."""

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.checks: List[str] = []
        self.wall = 0.0
        self.pairs = 0
        self.violations = 0
        self.warm_nodes = 0
        self.rows_built = 0


class Traced:
    """State of one traced run: tracer, verification tally, metrics."""

    def __init__(self, expected) -> None:
        self.tracer = Tracer()
        self.expected = expected
        self.attempted = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, float] = {}

    def run_pass(self, tag, plan, cache_for=None, lazy=False) -> Pass:
        """Run ``plan`` — ``(tm, prop, n, k, expected)`` tuples — untraced.
        ``cache_for(i)`` gives each check's cache (``None``: no cache)."""
        out = Pass(tag)
        for i, item in enumerate(plan):
            self._check(out, i, item, cache_for(i) if cache_for else None, lazy)
        return out

    def run_paired(self, plan, cache_for=None, lazy=False, traced_cache=None,
                   twin_every=1):
        """Each check of ``plan`` traced; every ``twin_every``-th one also
        untraced, alternating which of the twins goes first so drift
        cancels out of ``trace.overhead`` (traced over untraced wall of
        the twinned checks, minus one).  ``traced_cache(i, cache)`` wraps
        the traced check's cache."""
        plain, traced = Pass("untraced"), Pass("traced")
        twinned = 0.0
        for i, item in enumerate(plan):
            twin = i % twin_every == 0
            for on in ((False, True) if i % 2 == 0 else (True, False)):
                cache = cache_for(i) if cache_for else None
                if not on:
                    if twin:
                        self._check(plain, i, item, cache, lazy)
                    continue
                if traced_cache is not None:
                    cache = traced_cache(i, cache)
                before = traced.wall
                with instrumented(self.tracer):
                    self._check(traced, i, item, cache, lazy, self.tracer)
                if twin:
                    twinned += traced.wall - before
        self.metrics["trace.overhead"] = twinned / plain.wall - 1.0
        return traced

    def _check(self, out: Pass, i: int, item, cache, lazy, tracer=None) -> None:
        from repro.checking import check_safety
        from repro.cli import PROPERTIES
        from repro.core.statements import format_word
        from repro.tm.compiled import compile_tm

        tm_name, prop, n, k, expected = item
        check_id = f"{out.tag}/{tm_name}/{prop}#{i}"
        tm = fresh_tm(tm_name, n, k)
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.check = check_id
            before = tracer.snapshot()
            with tracer.span("check"):
                with tracer.span("checking.check_safety"):
                    res = check_safety(
                        tm, PROPERTIES[prop], lazy_spec=lazy, cache_dir=cache
                    )
            tracer.charge(check_id, before)
            tracer.check = None
        else:
            res = check_safety(
                tm, PROPERTIES[prop], lazy_spec=lazy, cache_dir=cache
            )
        out.wall += time.perf_counter() - t0
        out.checks.append(check_id)
        stats = compile_tm(tm).stats()
        out.warm_nodes += stats["warm_safety_rows"]
        out.rows_built += stats["safety_rows"] - stats["warm_safety_rows"]
        out.pairs += res.product_states
        out.violations += 0 if res.holds else 1
        cex = (
            None if res.counterexample is None
            else format_word(res.counterexample)
        )
        self.verify(
            check_id, expected, prop, res.holds, cex,
            {"tm_states": res.tm_states, "product_states": res.product_states},
        )

    def verify(self, label, expected, prop, holds, cex=None, counts=None):
        self.attempted += 1
        why = verify(expected, prop, holds, cex, counts)
        if why is not None:
            self.failures.append(f"{label}: {why}")

    def layer_metrics(self, p: Pass) -> None:
        """Per-layer metrics of the traced pass ``p``."""
        tr, ids, n = self.tracer, set(p.checks), len(p.checks)
        rows, rows_s = tr.hot_total(ids, "tm.row_discovery")
        fills, fill_s = tr.hot_total(ids, "spec.fill")
        loop_s = tr.total(ids, "checking.check_safety", "self_s")
        root_s = tr.total(ids, "check")
        uncovered = loop_s + tr.total(ids, "check", "self_s")
        m = self.metrics
        m.update({
            "tm.load_warm_s": tr.total(ids, "tm.load_warm") / n,
            "tm.warm_nodes": p.warm_nodes,
            "tm.rows_discovered": rows,
            "tm.row_discovery_s": rows_s / n,
            "tm.save_warm_s": tr.total(ids, "tm.save_warm") / n,
            "spec.dfa_build_s": tr.total(ids, "spec.dfa_build") / n,
            "spec.load_warm_s": tr.total(ids, "spec.load_warm") / n,
            "spec.oracle_fills": fills,
            "spec.fill_s": fill_s / n,
            "kernel.pairs": p.pairs,
            "kernel.pair_loop_s": loop_s / n,
            "kernel.pairs_per_s": p.pairs / loop_s if loop_s > 0 else 0.0,
            "kernel.dense_load_s": tr.total(ids, "kernel.dense_load") / n,
            "kernel.dense_replay_s": tr.total(ids, "kernel.dense_replay") / n,
            "kernel.dense_save_s": tr.total(ids, "kernel.dense_save") / n,
            "checking.check_s": tr.total(ids, "checking.check_safety") / n,
            "checking.violations": p.violations,
            "checking.certify_s": tr.total(ids, "checking.certify") / n,
            "cache.loads": tr.counted(ids, "cache.loads"),
            "cache.load_s": tr.total(ids, "cache.load") / n,
            "cache.bytes_read": tr.counted(ids, "cache.bytes_read"),
            "cache.saves": tr.counted(ids, "cache.saves"),
            "cache.save_s": tr.total(ids, "cache.save") / n,
            "cache.bytes_written": tr.counted(ids, "cache.bytes_written"),
            "trace.coverage": 1.0 - uncovered / root_s,
        })
        if rows != p.rows_built:
            self.failures.append(
                f"{p.tag}: traced row discovery {rows} != engine's {p.rows_built}"
            )

    def warm_guard(self, p: Pass, errors: int) -> None:
        """Warm means warm: a warm pass that discovered rows, filled the
        spec oracle or hit a cache error is a failure, never fast."""
        rows = self.tracer.hot_total(set(p.checks), "tm.row_discovery")[0]
        fills = self.tracer.hot_total(set(p.checks), "spec.fill")[0]
        if rows or fills or errors:
            self.failures.append(
                f"{p.tag}: not warm (rows {rows}, fills {fills},"
                f" cache errors {errors})"
            )

    # -- floors ----------------------------------------------------------

    def import_floor(self) -> None:
        bare = median([bare_start() for _ in range(5)])
        cli = median([
            run_proc([PYTHON, "-c", "import repro.cli"]).wall for _ in range(5)
        ])
        probe = run_proc([
            PYTHON, "-c",
            "import sys, repro.cli; print(int('numpy' in sys.modules))",
        ])
        self.metrics.update({
            "import.python_s": bare,
            "import.cli_s": cli - bare,
            "import.numpy_loaded": int(probe.out.strip() == "1"),
        })

    def campaign_floor(self, cells: List[Dict[str, object]], answers) -> None:
        """``run_cell`` on a trivial cell (the floor) and on the workload's
        cells, each outcome appended to a journal as the runner does."""
        from repro.campaign.journal import Journal
        from repro.campaign.spec import expand_cell
        from repro.campaign.supervisor import run_cell

        tr = self.tracer
        journal = Journal(
            os.path.join(work_dir("traced", "journal", fresh=True), "j.jsonl")
        )
        journal.start("bench", "0")
        floor_cell = expand_cell({"tm": "seq", "property": "ss", "n": 2, "k": 1})
        floor_cell["id"] = "seq/ss/2x1"
        attempts = faults = 0

        def one(cell, tag):
            nonlocal attempts, faults
            clear_spec_memos()  # a forked cell must not inherit our specs
            tr.check = tag
            with tr.span("campaign.run_cell") as span:
                outcome = run_cell(cell)
            entry = dict(outcome, type="cell", id=cell["id"])
            with tr.span("journal.append_cell"):
                journal.append_cell(entry)
            tr.check = None
            attempts += outcome["attempts"]
            faults += len(outcome["faults"])
            return outcome, span["end"] - span["start"]

        floor = [one(floor_cell, "floor")[1] for _ in range(5)]
        walls = []
        for cell in cells:
            outcome, wall = one(cell, "cells")
            walls.append(wall)
            result = outcome.get("result") or {}
            answer = answers[cell["tm"]][cell["property"]]
            if result:
                self.verify(
                    cell["id"], answer, cell["property"], result["holds"],
                    result.get("counterexample"), result,
                )
            else:
                self.verify(cell["id"], answer, cell["property"], None)
        appends = [
            s["end"] - s["start"] for s in tr.spans
            if s["name"] == "journal.append_cell"
        ]
        self.metrics.update({
            "campaign.cell_floor_s": median(floor),
            "campaign.cell_s": sum(walls) / len(walls) if walls else 0.0,
            "campaign.attempts": attempts,
            "campaign.faults": faults,
            "journal.append_s": median(appends),
            "journal.appends": len(appends),
        })

    def serve_floor(self) -> None:
        """A ``repro serve --workers 2`` daemon: inline ``health`` round
        trips (wire and protocol only) and trivial check requests."""
        from repro.serve import ServeClient

        base = work_dir("traced", "daemon", fresh=True)
        proc = spawn(
            repro_argv(
                "serve", "--socket", "s.sock", "--workers", "2",
                "--cache-dir", "cache", "--quiet",
            ),
            cwd=base, log_path=os.path.join(base, "daemon.log"),
        )
        tr = self.tracer
        requests = busy = 0
        try:
            sock = os.path.relpath(os.path.join(base, "s.sock"))
            with ServeClient(socket_path=sock, connect_timeout=60.0) as client:

                def send(record, tag):
                    nonlocal requests, busy
                    tr.check = tag
                    with tr.span("serve.request") as span:
                        response = client.request(record)
                    tr.check = None
                    requests += 1
                    busy += response.get("status") == "busy"
                    return response, span["end"] - span["start"]

                health = [send({"op": "health"}, "floor")[1] for _ in range(20)]
                trivial = {"tm": "seq", "property": "ss", "n": 2, "k": 1}
                floor = [send(trivial, "floor")[1] for _ in range(5)]
                client.shutdown()
        except BaseException:
            proc.terminate()
            raise
        finally:
            code, _ = stop(proc)
        if code != 0:
            self.failures.append(f"probe daemon exited {code}")
        self.metrics.update({
            "serve.health_rtt_s": median(health),
            "serve.floor_rtt_s": median(floor),
            "serve.busy": busy,
            "serve.requests": requests,
        })


# ----------------------------------------------------------------------
# Per-workload traced runs
# ----------------------------------------------------------------------


def _registry_plan(expected, rng):
    plan = [
        (tm, prop, 2, 2, expected["registry_2x2"][f"{tm}/{prop}"])
        for tm, prop in registry_checks()
    ]
    rng.shuffle(plan)
    return plan


def _backend_errors(backend) -> int:
    return sum(backend.error_counts().values())


def traced_oneshot(t: Traced, rng) -> None:
    """Warm disk-cache checks; the same payloads also through the mmap
    backend (per layer only), and the fresh-process walls that
    ``cli.residual_s`` is derived from."""
    from repro.cache import DiskCacheBackend, MmapCacheBackend

    plan = _registry_plan(t.expected, rng)
    base = work_dir("traced", "oneshot", fresh=True)
    disk, mmap_dir = os.path.join(base, "disk"), os.path.join(base, "mmap")
    fill_registry_cache(disk)
    proc = run_proc(repro_argv(
        "safety", "all", "--cache-dir", mmap_dir, "--cache-backend", "mmap",
    ))
    if proc.code != 1:
        raise BenchError(f"mmap cache fill exited {proc.code}")
    backend = _traced_backend(t.tracer, DiskCacheBackend(disk))
    traced = t.run_paired(
        plan, cache_for=lambda i: disk, traced_cache=lambda i, c: backend
    )
    t.layer_metrics(traced)
    errors = _backend_errors(backend)
    t.metrics["cache.errors"] = errors
    t.warm_guard(traced, errors)

    mmap_backend = _traced_backend(t.tracer, MmapCacheBackend(mmap_dir))
    with instrumented(t.tracer):
        mm = Pass("mmap")
        for i, item in enumerate(plan):
            t._check(mm, i, item, mmap_backend, False, t.tracer)
    t.warm_guard(mm, _backend_errors(mmap_backend))
    n = len(plan)
    t.metrics.update({
        "cache.load_s.disk": t.metrics["cache.load_s"],
        "tm.load_warm_s.disk": t.metrics["tm.load_warm_s"],
        "cache.load_s.mmap": t.tracer.total(set(mm.checks), "cache.load") / n,
        "tm.load_warm_s.mmap": t.tracer.total(set(mm.checks), "tm.load_warm") / n,
    })
    fresh = [
        run_proc(repro_argv("safety", tm, "-p", prop, "--cache-dir", disk)).wall
        for tm, prop, _n, _k, _e in plan
    ]
    t.metrics["cli.residual_s"] = (
        sum(fresh) / n - t.metrics["import.python_s"]
        - t.metrics["import.cli_s"] - t.metrics["checking.check_s"]
    )


def traced_hunt(t: Traced, rng) -> None:
    """Every other cell of the roster through ``run_cell`` — first, while
    this process is still as small as a hunt's parent, since every cell
    forks it — then all of them in-process, every other one twinned
    untraced: the halving keeps the run well inside its time limit."""
    from repro.campaign.spec import expand_cell

    answers = t.expected["hunt_2x2"]
    plan = [
        (tm, prop, 2, 2, a[prop]) for tm, a in answers.items() for prop in PROPS
    ]
    rng.shuffle(plan)
    cells = []
    for tm, prop, n, k, _ in plan:
        cell = expand_cell({"tm": tm, "property": prop, "n": n, "k": k})
        cell["id"] = f"{tm}/{prop}/{n}x{k}"
        cells.append(cell)
    t.campaign_floor(cells[::2], answers)
    traced = t.run_paired(plan, twin_every=2)
    t.layer_metrics(traced)
    cold_probe(t)


#: The cold probe: checks with ``--lazy-spec`` on an empty cache.
COLD_PROBE = (("dstm", "ss"), ("modtl2", "ss"))


def cold_probe(t: Traced) -> None:
    """Hunt cells use neither a cache nor the lazy spec, so on hunt the
    cache-write and spec-oracle metrics come from a cold probe: the
    ``--lazy-spec`` path at (2, 2), each check on an empty disk cache."""
    from repro.cache import DiskCacheBackend

    answers = t.expected["registry_2x2"]
    base = work_dir("traced", "cold", fresh=True)
    probe = Pass("cold")
    backends = []
    with instrumented(t.tracer):
        for i, (tm, prop) in enumerate(COLD_PROBE):
            inner = DiskCacheBackend(os.path.join(base, f"cache-{i}"))
            backends.append(_traced_backend(t.tracer, inner))
            item = (tm, prop, 2, 2, answers[f"{tm}/{prop}"])
            t._check(probe, i, item, backends[-1], True, t.tracer)
    tr, ids, n = t.tracer, set(probe.checks), len(probe.checks)
    fills, fill_s = tr.hot_total(ids, "spec.fill")
    t.metrics.update({
        "spec.oracle_fills": fills,
        "spec.fill_s": fill_s / n,
        "cache.saves": tr.counted(ids, "cache.saves"),
        "cache.save_s": tr.total(ids, "cache.save") / n,
        "cache.bytes_written": tr.counted(ids, "cache.bytes_written"),
        "cache.errors": sum(_backend_errors(b) for b in backends),
        "tm.save_warm_s": tr.total(ids, "tm.save_warm") / n,
        "kernel.dense_save_s": tr.total(ids, "kernel.dense_save") / n,
    })


TRACED = {
    "oneshot-warm": traced_oneshot,
    "hunt": traced_hunt,
}

#: Metrics only some workloads' layers produce; 0 where the layer does
#: not run on the workload.
_ABSENT = (
    "cli.residual_s", "cache.load_s.disk", "cache.load_s.mmap",
    "tm.load_warm_s.disk", "tm.load_warm_s.mmap",
)


def run_traced(workload: str, seed: int, expected) -> Traced:
    t = Traced(expected)
    rng = random.Random(seed)
    t.import_floor()
    TRACED[workload](t, rng)
    if "campaign.cell_s" not in t.metrics:
        t.campaign_floor([], {})
    t.serve_floor()
    for name in _ABSENT:
        t.metrics.setdefault(name, 0.0)
    t.tracer.write(os.path.join(
        work_dir(), f"trace-{workload}-seed{seed}.jsonl"
    ))
    return t
