"""Shared plumbing: the checkout layout, child processes, known answers,
percentiles and provenance.

Everything the benchmark writes goes under ``.bench_work/`` in the
checkout it runs from; child processes get ``TMPDIR`` pointed there too.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
HERE = os.path.dirname(os.path.abspath(__file__))
PYTHON = sys.executable

#: The 7 registry TMs of ``repro safety all``, in the CLI's order.
REGISTRY = ("2pl", "dstm", "modtl2", "norec", "opt", "seq", "tl2")
PROPS = ("ss", "op")

#: Below this many samples ``check_tail_s`` is the maximum (see :func:`tail`).
TAIL_MIN_SAMPLES = 20

#: End-to-end times are reported in seconds of a host on which a bare
#: ``python -c pass`` process takes this long (see :func:`bare_start`).
NOMINAL_START_S = 0.05


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, broken setup)."""


def require_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(
            f"no repro sources under {SRC}: run from the repository root"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def work_dir(*parts: str, fresh: bool = False) -> str:
    path = os.path.join(WORK, *parts)
    if fresh:
        shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)
    return path


def child_env() -> Dict[str, str]:
    """The environment of every ``repro`` child: sources on the path,
    temporaries inside the checkout, no fault schedule or default cache
    inherited from the caller."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = work_dir("tmp")
    env["REPRO_CACHE_DIR"] = work_dir("default-cache")
    for key in ("REPRO_FAULT_SCHEDULE", "REPRO_TRACE", "PYTHONSTARTUP"):
        env.pop(key, None)
    return env


def repro_argv(*args: str) -> List[str]:
    return [PYTHON, "-m", "repro", *args]


class Proc:
    """One finished child: exit code, output, wall and peak RSS."""

    def __init__(self, code: int, out: str, wall: float, rss_mb: float):
        self.code = code
        self.out = out
        self.wall = wall
        self.rss_mb = rss_mb


def _reap(proc: subprocess.Popen, deadline: Optional[float]) -> Tuple[int, float]:
    """``wait4`` the child (so its rusage — which covers its own reaped
    children — is ours), killing it if it outlives ``deadline``."""
    while True:
        pid, status, usage = os.wait4(
            proc.pid, 0 if deadline is None else os.WNOHANG
        )
        if pid:
            code = os.waitstatus_to_exitcode(status)
            proc.returncode = code
            return code, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            deadline = None
        else:
            time.sleep(0.01)


def run_proc(
    argv: Sequence[str],
    *,
    cwd: Optional[str] = None,
    stderr_path: Optional[str] = None,
    timeout: float = 170.0,
) -> Proc:
    """Run one child to completion; the wall runs from spawn to exit."""
    err = open(stderr_path or os.devnull, "wb")
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), cwd=cwd, env=child_env(),
            stdout=subprocess.PIPE, stderr=err,
        )
        out = proc.stdout.read()
        proc.stdout.close()
        code, rss = _reap(proc, time.monotonic() + timeout)
        wall = time.perf_counter() - t0
    finally:
        err.close()
    return Proc(code, out.decode("utf-8", "replace"), wall, rss)


def bare_start() -> float:
    """The wall of one bare ``python -c pass`` process.

    The shared host this benchmark runs on drifts in speed by up to 2x
    over minutes, and every process — a bare start, a warm check, a cold
    check — slows or speeds up by the same factor.  Sampled through a
    run, this start time measures that factor and nothing of ``repro``:
    end-to-end times are scaled by ``NOMINAL_START_S`` over its median.
    """
    return run_proc([PYTHON, "-c", "pass"]).wall


def spawn(argv: Sequence[str], *, cwd: str, log_path: str) -> subprocess.Popen:
    """Start a long-lived child (the daemon); see :func:`stop`."""
    log = open(log_path, "wb")
    try:
        return subprocess.Popen(
            list(argv), cwd=cwd, env=child_env(),
            stdout=log, stderr=subprocess.STDOUT,
        )
    finally:
        log.close()


def stop(proc: subprocess.Popen, grace: float = 20.0) -> Tuple[int, float]:
    """Wait for a child that was asked to exit; SIGTERM, then SIGKILL,
    if it does not.  Returns ``(exit code, peak RSS MB)``."""
    if proc.returncode is not None:
        return proc.returncode, 0.0
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        time.sleep(0.02)
    proc.send_signal(signal.SIGTERM)
    return _reap(proc, time.monotonic() + 5.0)


# ----------------------------------------------------------------------
# Known answers
# ----------------------------------------------------------------------


def load_expected() -> Dict[str, Dict[str, Dict[str, object]]]:
    """The known answers; each hunt verdict must follow from its TM's
    label (a bug violates opacity, and strict serializability unless it
    is opacity-only; a correct TM holds both)."""
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    for tm, answer in expected["hunt_2x2"].items():
        bug = answer["label"] == "bug"
        if answer["op"]["holds"] == bug or answer["ss"]["holds"] != (
            not bug or answer.get("op_only", False)
        ):
            raise BenchError(f"expected.json: {tm} verdicts contradict its label")
    return expected


def certifies(word: str, prop: str) -> bool:
    """True iff ``word`` really violates ``prop`` under the reference
    decision procedures (the counterexample certifies)."""
    from repro.core.properties import is_opaque, is_strictly_serializable
    from repro.core.statements import parse_word

    parsed = parse_word(word)
    holds = (
        is_strictly_serializable(parsed) if prop == "ss"
        else is_opaque(parsed)
    )
    return not holds


def verify(
    expected: Dict[str, object],
    prop: str,
    holds: Optional[bool],
    counterexample: Optional[str] = None,
    counts: Optional[Dict[str, object]] = None,
) -> Optional[str]:
    """``None`` when one check's answer matches its known answer, else
    why not.  ``counts`` is compared when the surface reports it."""
    if holds is None:
        return "no verdict"
    if holds != expected["holds"]:
        return f"verdict {holds} != expected {expected['holds']}"
    if counts is not None:
        for key in ("tm_states", "product_states"):
            if counts.get(key) != expected[key]:
                return f"{key} {counts.get(key)} != pinned {expected[key]}"
    if not holds:
        if counterexample is None:
            return "violation without a counterexample"
        pinned = expected.get("counterexample")
        if pinned is not None and counterexample != pinned:
            return f"counterexample {counterexample!r} != pinned {pinned!r}"
        if not certifies(counterexample, prop):
            return f"counterexample {counterexample!r} does not certify"
    return None


# ----------------------------------------------------------------------
# Statistics and provenance
# ----------------------------------------------------------------------


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)``: the highest percentile with at least ten
    samples beyond it — the 11th largest sample.  A sample too small for
    that to lie above its median (fewer than 20) reports its maximum as
    percentile 100."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < TAIL_MIN_SAMPLES:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def git_sha() -> str:
    """The checkout's commit, or "unknown" outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(seed: int, trace: bool) -> Dict[str, object]:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "cpu_count": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "seed": seed,
        "trace": trace,
    }
