"""The two end-to-end workloads, run with tracing off.

Each workload reaches checks the way a user does — fresh ``repro
safety`` processes or one ``repro hunt`` process — times every check
from the outside, and verifies every answer against ``expected.json``.
The seed fixes check order; the program only sees the generated
commands and spec files.

A run does a fixed amount of work, set from ``--seconds``: at 40 s,
three oneshot-warm rounds (42 processes, ~20 s on a 2-core box) and
two hunts (76 cells, ~65 s).  Fixed work keeps the sample count — and
so the tail percentile — the same on every run and on both sides of a
comparison.  The host-speed reference (:func:`common.bare_start`) is
sampled before every oneshot-warm check and around every hunt.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import time
from typing import Dict, List, Optional, Tuple

from common import (
    PROPS,
    REGISTRY,
    BenchError,
    bare_start,
    child_env,
    repro_argv,
    run_proc,
    verify,
    work_dir,
    _reap,
)

#: Set-ups per run; ``setup_s`` is their median.  oneshot-warm's set-up
#: fills the warm cache (~6 s), so it sets up twice; hunt's three times.
SETUPS = {"oneshot-warm": 2, "hunt": 3}

#: Rounds of each workload's check set per run at ``--seconds 40``: a
#: round is 14 fresh processes (~7 s on a 2-core box) or one 38-cell
#: hunt (~33 s).
ROUNDS_AT_40 = {"oneshot-warm": 3, "hunt": 2}

#: Host-speed samples taken just before and just after each hunt; a
#: oneshot-warm run takes one before every check.
HUNT_REFS = 25

_ROW = re.compile(r"^\S+\s+(Y|N), (?:\[(.*)\], )?[0-9.]+s\s*$")


class Outcome:
    """What one end-to-end run measured."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.setups: List[float] = []
        #: Host-speed reference samples (:func:`common.bare_start`).
        self.refs: List[float] = []
        #: Time spent sampling them, kept out of ``wall``.
        self.ref_s = 0.0
        self.wall = 0.0
        self.rss_mb = 0.0
        self.attempted = 0
        self.failures: List[str] = []

    def record(self, check: str, wall: Optional[float], why: Optional[str]) -> None:
        """One attempted check: its wall (``None`` if it never answered)
        and its failure reason (``None`` when the answer verified)."""
        self.attempted += 1
        if wall is not None:
            self.samples.append(wall)
        if why is not None:
            self.failures.append(f"{check}: {why}")

    def sample_host(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = time.perf_counter()
            self.refs.append(bare_start())
            self.ref_s += time.perf_counter() - t0


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(ROUNDS_AT_40[workload] * seconds / 40))


def registry_checks() -> List[Tuple[str, str]]:
    return [(tm, prop) for tm in REGISTRY for prop in PROPS]


def parse_safety_row(out: str) -> Tuple[Optional[bool], Optional[str]]:
    """``(holds, counterexample)`` from a one-cell ``repro safety`` table."""
    lines = [line for line in out.splitlines() if line.strip()]
    match = _ROW.match(lines[-1]) if lines else None
    if match is None:
        return None, None
    return match.group(1) == "Y", match.group(2)


def _cli_check(
    outcome: Outcome, label: str, argv: List[str], prop: str,
    expected: Dict[str, object],
) -> Optional[str]:
    proc = run_proc(argv)
    outcome.rss_mb = max(outcome.rss_mb, proc.rss_mb)
    holds, cex = parse_safety_row(proc.out)
    why = verify(expected, prop, holds, cex)
    if why is None and proc.code != (0 if holds else 1):
        why = f"exit code {proc.code}"
    outcome.record(label, proc.wall if holds is not None else None, why)
    return why


def warm_up() -> None:
    """A trivial fresh check: compiles bytecode on a first run and warms
    the page cache, so neither lands on a measured check."""
    proc = run_proc(repro_argv("safety", "seq", "-n", "2", "-k", "1"))
    if proc.code != 0:
        raise BenchError(f"warm-up check exited {proc.code}")


def fill_registry_cache(cache: str) -> None:
    shutil.rmtree(cache, ignore_errors=True)
    proc = run_proc(repro_argv("safety", "all", "--cache-dir", cache))
    if proc.code != 1:  # modtl2 violates: exit 1 is the healthy fill
        raise BenchError(f"cache fill exited {proc.code}")


def oneshot_warm(seed: int, seconds: int, expected) -> Outcome:
    """Fresh ``repro safety <tm> -p <prop>`` processes on a filled disk
    cache: a researcher re-running Table 2."""
    out = Outcome()
    rng = random.Random(seed)
    cache = os.path.join(work_dir("oneshot-warm"), "cache")
    for _ in range(SETUPS["oneshot-warm"]):
        t0 = time.perf_counter()
        fill_registry_cache(cache)
        out.setups.append(time.perf_counter() - t0)
    checks = registry_checks()
    t0 = time.perf_counter()
    for _ in range(rounds_for("oneshot-warm", seconds)):
        rng.shuffle(checks)
        for tm, prop in checks:
            out.sample_host()
            _cli_check(
                out, f"{tm}/{prop}",
                repro_argv("safety", tm, "-p", prop, "--cache-dir", cache),
                prop, expected["registry_2x2"][f"{tm}/{prop}"],
            )
    out.wall = time.perf_counter() - t0 - out.ref_s
    return out


def hunt_spec(rng: random.Random, expected) -> Dict[str, object]:
    """The default roster — its mutants and controls in seeded order —
    against both properties: every seeded bug must be caught, no correct
    TM falsely killed."""
    mutants = [tm for tm in expected if "/" in tm]
    controls = [tm for tm in expected if "/" not in tm]
    rng.shuffle(mutants)
    rng.shuffle(controls)
    return {
        "name": "bench-hunt", "mutants": mutants, "controls": controls,
        "properties": ["ss", "op"], "sizes": [[2, 2]],
    }


def hunt(seed: int, seconds: int, expected) -> Outcome:
    """``repro hunt`` over the default roster; a check is one cell, timed
    from its progress line to its outcome line."""
    out = Outcome()
    rng = random.Random(seed)
    answers = expected["hunt_2x2"]
    base = work_dir("hunt", fresh=True)
    spec_path = os.path.join(base, "hunt.json")
    for _ in range(SETUPS["hunt"]):
        t0 = time.perf_counter()
        warm_up()
        out.setups.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    for r in range(rounds_for("hunt", seconds)):
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(hunt_spec(rng, answers), fh)
        out.sample_host(HUNT_REFS)
        _run_hunt(out, base, spec_path, answers, r)
        out.sample_host(HUNT_REFS)
    out.wall = time.perf_counter() - t0 - out.ref_s
    return out


def _run_hunt(out: Outcome, base: str, spec_path: str, answers, r: int) -> None:
    journal = os.path.join(base, f"hunt-{r}.jsonl")
    report = os.path.join(base, f"report-{r}.json")
    with open(os.path.join(base, "stdout.md"), "wb") as sink:
        proc = subprocess.Popen(
            repro_argv(
                "hunt", spec_path, "--journal", journal, "--no-resume",
                "--report-json", report,
            ),
            cwd=base, env=child_env(), stdout=sink,
            stderr=subprocess.PIPE,
        )
        walls: Dict[str, float] = {}
        started: Optional[Tuple[str, float]] = None
        for raw in proc.stderr:
            now = time.perf_counter()
            line = raw.decode("utf-8", "replace").strip()
            if line.startswith("[") and line.endswith("..."):
                started = (line.split()[1], now)
            elif line.startswith("->") and started is not None:
                cell, t_start = started
                walls[cell] = now - t_start
                started = None
        proc.stderr.close()
        code, rss = _reap(proc, time.monotonic() + 170.0)
    out.rss_mb = max(out.rss_mb, rss)
    entries = {}
    if os.path.exists(journal):
        with open(journal, encoding="utf-8") as fh:
            for line in fh:
                entry = json.loads(line)
                if entry.get("type") == "cell":
                    entries[entry["id"]] = entry
    for tm, answer in answers.items():
        for prop in PROPS:
            cell = f"{tm}/{prop}/2x2"
            entry = entries.get(cell) or {}
            result = entry.get("result") or {}
            why = (
                f"cell {entry.get('status', 'missing')}"
                if not result
                else verify(
                    answer[prop], prop, result.get("holds"),
                    result.get("counterexample"), result,
                )
            )
            out.record(cell, walls.get(cell), why)
    summary = {}
    if os.path.exists(report):
        with open(report, encoding="utf-8") as fh:
            summary = json.load(fh).get("summary", {})
    bugs = sum(1 for a in answers.values() if a["label"] == "bug")
    want = {
        "caught": bugs, "correct": len(answers) - bugs, "escaped": 0,
        "false-kill": 0, "incomplete": 0,
    }
    if code != 1 or summary != want:
        out.failures.append(f"hunt exit {code}, summary {summary}")


WORKLOADS = {
    "oneshot-warm": oneshot_warm,
    "hunt": hunt,
}
