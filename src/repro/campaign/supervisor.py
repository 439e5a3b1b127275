"""Per-cell supervision: isolate, bound, retry, degrade.

Each campaign cell runs ``check_safety`` in its own subprocess: a hang,
an OOM kill, or a crash takes down only the child, and the supervisor's
wall clock is the one bound that covers *every* failure shape.  The child reports back over a pipe; the parent waits
with ``poll(timeout)`` **before** joining (join-first deadlocks when
the result exceeds the pipe buffer).

Retry policy: a faulted attempt (timeout, crash, memory, exception) is
retried up to ``retries`` times with exponential backoff, degrading the
configuration first — a warm ``cache_dir`` falls back to cold — so a
fault in the cache layer cannot fail a cell that the plain cold path
can finish.  Degradation never changes verdicts: warm starts are
optimization-only (the repo-wide byte-identical contract).
A cell whose every attempt faults is recorded as ``timeout``/``error``
without aborting the campaign.

Fault injection (spec ``inject``, validated in :mod:`.spec`) exists so
the tests and the CI smoke can exercise exactly these paths: SIGKILL
the child, hang it, raise in it, or balloon its RSS, each on the first
N attempts only — the retry then demonstrates recovery.

``run_cell`` is also the **per-request entry point of the resident
daemon** (:mod:`repro.serve`): the daemon passes its resident tiered
cache backend as ``cache`` (the forked child inherits the in-memory
tier for free) and sets ``collect_warm=True`` so the child ships every
payload it *built* back over the result pipe — the daemon absorbs those
blobs into its resident tier, which is how warm state accumulates in a
process whose checks all run in throwaway children.

The **spec table** comes back the same way, for every caller.  The
compiled DFA-sided check needs the int-rows specification for its
(n, k, property) — the same table for every TM — and a child that
found the process-wide memo (:func:`repro.spec.compiled.cached_spec_dfa`)
empty at fork time builds (or warm-loads) it itself, under the cell's
timeout, memory cap and retry ladder.  It ships the table back with its
result, flattened by :func:`~repro.spec.compiled.flatten_spec_rows`
(the warm cache's encoding) together with whether it still owes a save;
:func:`run_cell` validates it as a warm load would and installs it into
the supervisor's own memo, so every later forked cell on that
(n, k, property) inherits it copy-on-write and builds nothing
(``stats["spec_states_built"] == 0``).  A child that inherited the
table reports only whether it persisted it, so a later cell's cache
receives the table exactly when one process running the same checks in
order would have saved it.  Building in the supervisor instead would
escape every bound: a (2, 3) spec can exhaust the campaign process.  A
table that fails to pack in the child or to validate here is dropped —
the next cell rebuilds it — and tallied as the cell's
``stats["spec_handback"]`` (which the daemon also totals in its
``stats`` record).  Results never vary with any of this.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import threading
import time
from typing import Dict, List, Optional, Tuple

#: Fault classes a single attempt can report.
FAULT_TIMEOUT = "timeout"
FAULT_CRASH = "crash"
FAULT_MEMORY = "memory"
FAULT_EXCEPTION = "exception"

#: Grace period for terminate before escalating to SIGKILL.
_TERM_GRACE_S = 5.0

#: Serializes spec-memo installs (the daemon runs cells on several
#: threads).
_INSTALL_LOCK = threading.Lock()

#: Default ceiling on any single retry delay (decorrelated jitter can
#: otherwise triple its way to minutes on high retry counts).  Cells
#: override it with the validated ``backoff_cap_s`` policy key.
BACKOFF_CAP_S = 30.0


def _retry_delay(
    base_s: float, prev_s: float, rng=random.uniform,
    cap_s: float = BACKOFF_CAP_S,
) -> float:
    """The next retry delay: decorrelated jitter.

    ``uniform(base, prev * 3)`` capped at ``cap_s`` (the cell's
    ``backoff_cap_s`` policy, default :data:`BACKOFF_CAP_S`) — the
    expected delay still grows exponentially, but simultaneous faulted
    cells (or daemon requests all hit by the same dying pool) spread out
    instead of retrying in lockstep the way the old deterministic
    ``base * 2**attempt`` schedule made them.
    """
    return min(cap_s, rng(base_s, max(base_s, prev_s * 3)))


def _apply_memory_cap(memory_mb: Optional[int]) -> None:
    if not memory_mb:
        return
    try:
        import resource

        limit = int(memory_mb) * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ImportError, ValueError, OSError):
        # Platform without rlimits (or a cap below the current usage):
        # the wall-clock timeout still bounds the attempt.  Anything
        # else — say a TypeError from a mangled policy value — is a
        # programming error and must surface as an ``exception`` fault,
        # not vanish here.
        pass


def _apply_injections(inject: Dict[str, object], attempt: int) -> None:
    if attempt <= inject.get("sigkill_attempts", 0):
        os.kill(os.getpid(), signal.SIGKILL)
    if attempt <= inject.get("hang_attempts", 0):
        time.sleep(float(inject.get("hang_s", 3600)))
    if attempt <= inject.get("fail_attempts", 0):
        raise RuntimeError(f"injected failure (attempt {attempt})")
    alloc_mb = inject.get("alloc_mb")
    if alloc_mb:
        # Ballast to trip the RLIMIT_AS cap; kept alive via the raise
        # path only — a successful check frees it immediately.
        ballast = bytearray(int(alloc_mb) * 1024 * 1024)
        del ballast


def _resolve_cell_cache(cell: Dict[str, object], cache=None):
    """The warm cache a cell's check should use.

    ``cell["cache_dir"]`` gates warmth (the degradation ladder clears it
    for cold attempts); when a ``cache`` backend object is supplied (the
    daemon's resident tiered store, inherited by the forked child) it
    takes the place of whatever the cell names.
    """
    cache_dir = cell.get("cache_dir")
    if not cache_dir:
        return None
    if cache is not None:
        return cache
    backend = cell.get("cache_backend") or "disk"
    if backend == "disk":
        return cache_dir
    from ..cache import make_backend

    return make_backend(backend, cache_dir)


def _run_check(
    cell: Dict[str, object], cache=None
) -> Tuple[Dict[str, object], Dict[str, object], Optional[Dict[str, float]]]:
    """The actual check, in-process (the child body, minus plumbing).

    Returns ``(result, stats, profile)``: the canonical verdict payload
    (identical whether the check ran here, in a campaign cell, or behind
    the daemon), a small engine-introspection dict — ``safety_rows`` is
    the number of TM transition rows this run actually *built* (0 means
    the check was served entirely from warm state), ``warm_safety_rows``
    the rows restored from the cache, ``warm_dense_pairs`` the product
    pairs of restored dense tables (a warm holding check replays its
    table alone and restores no rows) — and the per-phase profile split
    when the cell asked for one (``profile: true``).  The worker adds
    ``spec_states_built`` on DFA-sided cells (the spec states this
    child built itself, 0 when it inherited the table).
    """
    from ..checking import check_safety
    from ..tm.registry import PROPERTIES, make_tm
    from ..core.statements import format_word

    tm = make_tm(
        cell["tm"], cell["n"], cell["k"], cell.get("manager")
    )
    profile: Optional[Dict[str, float]] = (
        {} if cell.get("profile") else None
    )
    res = check_safety(
        tm,
        PROPERTIES[cell["property"]],
        lazy_spec=bool(cell.get("lazy_spec")),
        compiled=bool(cell.get("compiled", True)),
        dense_kernel=cell.get("dense_kernel"),
        cache_dir=_resolve_cell_cache(cell, cache),
        max_states=cell.get("max_states"),
        profile=profile,
    )
    result = {
        "tm_name": res.tm_name,
        "holds": res.holds,
        "counterexample": (
            None
            if res.counterexample is None
            else format_word(res.counterexample)
        ),
        "tm_states": res.tm_states,
        "spec_states": res.spec_states,
        "product_states": res.product_states,
        "seconds": round(res.seconds, 6),
    }
    stats: Dict[str, object] = {}
    if cell.get("compiled", True):
        from ..tm.compiled import compile_tm

        engine_stats = compile_tm(tm).stats()
        warm = engine_stats.get("warm_safety_rows", 0)
        stats = {
            "safety_rows": engine_stats["safety_rows"] - warm,
            "warm_safety_rows": warm,
            "warm_dense_pairs": engine_stats.get("warm_dense_pairs", 0),
        }
    return result, stats, profile


def _spec_dfa_for(cell: Dict[str, object]):
    """The memoized spec table a cell's check uses, or ``None``: only
    the compiled DFA-sided check reads it (a ``lazy_spec`` oracle fills
    its rows per product; the naive path uses the rich DFA)."""
    if not cell.get("compiled", True) or cell.get("lazy_spec"):
        return None
    from ..spec.compiled import cached_spec_dfa
    from ..tm.registry import PROPERTIES

    return cached_spec_dfa(
        cell["n"], cell["k"], PROPERTIES[cell["property"]]
    )


def _spec_hand_back(spec, held: bool) -> Dict[str, object]:
    """The result-message fields that return the spec table to the
    supervisor: the whole table when this child found the memo empty
    and filled it, only the post-check dirty flag when it inherited the
    table.  Packing never faults the already computed check: a failure
    travels as ``spec_dfa_error`` instead of the table."""
    if held:
        return {"spec_dfa": {"dirty": spec.dirty}}
    if spec.rows is None:
        return {}
    from ..spec.compiled import flatten_spec_rows

    try:
        flat = flatten_spec_rows(spec.rows)
    except Exception as exc:  # tallied by the supervisor
        return {"spec_dfa_error": repr(exc)}
    return {
        "spec_dfa": {
            "rows": flat,
            "num_states": len(spec.rows),
            "dirty": spec.dirty,
        }
    }


def _install_spec_table(
    cell: Dict[str, object], msg: Dict[str, object]
) -> Optional[str]:
    """Take a successful child's spec hand-back into this process's
    memo.  Names the outcome — ``installed``, ``rejected`` (the table
    failed validation) or ``pack_failed`` (the child could not flatten
    it) — or returns ``None`` when no table was offered.  Never raises:
    a malformed table is rejected and the memo stays empty."""
    if "spec_dfa_error" in msg:
        return "pack_failed"
    payload = msg.get("spec_dfa")
    spec = _spec_dfa_for(cell)
    if payload is None or spec is None:
        return None
    if not isinstance(payload, dict):
        return "rejected"
    with _INSTALL_LOCK:
        if "rows" not in payload:
            # The child ran on the table this process holds; it owes
            # no save once the child has persisted it.
            if spec.rows is not None and payload.get("dirty") is False:
                spec.mark_persisted()
            return None
        if spec.rows is not None:
            return None  # a concurrent cell installed it first
        installed = spec.install(
            payload.get("rows"),
            payload.get("num_states"),
            dirty=payload.get("dirty") is True,
        )
    return "installed" if installed else "rejected"


def _cell_worker(
    conn,
    cell: Dict[str, object],
    attempt: int,
    cache=None,
    collect_warm: bool = False,
) -> None:
    try:
        _apply_memory_cap(cell.get("memory_mb"))
        _apply_injections(cell.get("inject") or {}, attempt)
        baseline = (
            cache.snapshot_keys()
            if collect_warm and cache is not None and cell.get("cache_dir")
            else None
        )
        spec = _spec_dfa_for(cell)
        held = spec is not None and spec.rows is not None
        result, stats, profile = _run_check(cell, cache)
        msg: Dict[str, object] = {
            "ok": True, "result": result, "stats": stats,
        }
        if spec is not None:
            stats["spec_states_built"] = 0 if held else spec.built_states
            msg.update(_spec_hand_back(spec, held))
        if profile is not None:
            msg["profile"] = {
                key: round(value, 6) for key, value in profile.items()
            }
        if baseline is not None:
            # Ship the payloads this child *built* back to the parent:
            # its forked copy of the resident tier dies with it.
            msg["warm"] = cache.export_blobs(exclude=baseline)
        conn.send(msg)
    except MemoryError:
        conn.send(
            {"ok": False, "fault": FAULT_MEMORY,
             "detail": "memory cap exceeded"}
        )
    except BaseException as exc:  # report, don't die silently
        # Full repr + raise site: a TypeError from a bad mutant must be
        # triageable from the journal alone, not conflated with checker
        # faults ("worker died" / "memory cap exceeded").
        detail = repr(exc)
        tb = getattr(exc, "__traceback__", None)
        if tb is not None:
            import traceback

            frames = traceback.extract_tb(tb)
            if frames:
                last_frame = frames[-1]
                detail += (
                    f" @ {os.path.basename(last_frame.filename)}"
                    f":{last_frame.lineno}"
                )
        conn.send(
            {"ok": False, "fault": FAULT_EXCEPTION, "detail": detail}
        )
    finally:
        conn.close()


def _degrade(cell: Dict[str, object]) -> Optional[str]:
    """Mutate ``cell`` one rung down the ladder; name the rung taken."""
    if cell.get("cache_dir"):
        cell["cache_dir"] = None
        return "cold"
    return None


def _attempt(
    cell: Dict[str, object],
    attempt: int,
    cache=None,
    collect_warm: bool = False,
) -> Dict[str, object]:
    """One supervised attempt: ``{"ok": ..., ...}`` like the child's
    message, plus the synthesized timeout/crash faults."""
    ctx = multiprocessing.get_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_cell_worker,
        args=(child_conn, cell, attempt, cache, collect_warm),
    )
    proc.start()
    child_conn.close()
    timeout_s = float(cell.get("timeout_s") or 300.0)
    try:
        if not parent_conn.poll(timeout_s):
            proc.terminate()
            proc.join(_TERM_GRACE_S)
            if proc.is_alive():
                proc.kill()
                proc.join()
            return {
                "ok": False,
                "fault": FAULT_TIMEOUT,
                "detail": f"no result within {timeout_s:g}s",
            }
        try:
            msg = parent_conn.recv()
        except EOFError:
            proc.join()
            return {
                "ok": False,
                "fault": FAULT_CRASH,
                "detail": f"worker died (exit code {proc.exitcode})",
            }
        proc.join()
        return msg
    finally:
        parent_conn.close()
        if proc.is_alive():  # pragma: no cover - belt and braces
            proc.kill()
            proc.join()


def run_cell(
    cell: Dict[str, object],
    *,
    cache=None,
    collect_warm: bool = False,
) -> Dict[str, object]:
    """Run one cell to a journal entry (sans ``type``/``id``).

    Statuses: ``pass``/``fail`` from a completed check, ``timeout``
    when the final attempt hit the wall clock, ``error`` for any other
    exhausted fault.  ``faults`` records every failed attempt with the
    degradation rung the *next* attempt took.

    ``cache`` substitutes a live backend object for the cell's named
    ``cache_dir`` (the daemon's resident tiered store); with
    ``collect_warm=True`` a successful outcome carries a ``warm`` dict
    of the encoded payloads the child built, for the caller to absorb.
    The ``result`` payload itself never varies with these knobs — the
    byte-identity contract extends through the daemon.
    """
    cell = dict(cell)  # degradation mutates a private copy
    retries = int(cell.get("retries") or 0)
    backoff_s = float(cell.get("backoff_s") or 0.0)
    backoff_cap_s = float(cell.get("backoff_cap_s") or BACKOFF_CAP_S)
    retry_seed = cell.get("retry_seed")
    # A seeded cell draws its decorrelated jitter from a private PRNG,
    # making the whole retry schedule — and hence hunt wall-clock
    # behaviour under fault injection — reproducible end-to-end.
    rng = (
        random.Random(retry_seed).uniform
        if retry_seed is not None
        else random.uniform
    )
    faults: List[Dict[str, object]] = []
    attempts = 0
    last: Dict[str, object] = {}
    delay = backoff_s
    for attempt in range(1, retries + 2):
        attempts = attempt
        last = _attempt(cell, attempt, cache, collect_warm)
        if last.get("ok"):
            handback = _install_spec_table(cell, last)
            if handback is not None:
                last.setdefault("stats", {})["spec_handback"] = handback
            result = dict(last["result"])
            seconds = result.pop("seconds", None)
            outcome = {
                "status": "pass" if result["holds"] else "fail",
                "result": result,
                "error": None,
                "attempts": attempts,
                "faults": faults,
                "seconds": seconds,
            }
            if last.get("stats"):
                outcome["stats"] = last["stats"]
            if last.get("profile") is not None:
                outcome["profile"] = last["profile"]
            if collect_warm:
                outcome["warm"] = last.get("warm") or {}
            return outcome
        degraded = _degrade(cell) if attempt <= retries else None
        faults.append(
            {
                "attempt": attempt,
                "class": last.get("fault", FAULT_EXCEPTION),
                "detail": last.get("detail", ""),
                "degraded": degraded,
            }
        )
        if attempt <= retries and backoff_s > 0:
            delay = _retry_delay(
                backoff_s, delay, rng, cap_s=backoff_cap_s
            )
            time.sleep(delay)
    status = (
        "timeout" if last.get("fault") == FAULT_TIMEOUT else "error"
    )
    return {
        "status": status,
        "result": None,
        "error": last.get("detail", ""),
        "attempts": attempts,
        "faults": faults,
        "seconds": None,
    }
