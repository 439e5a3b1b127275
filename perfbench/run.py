"""End-to-end benchmark of the checker.

Run from the repository root::

    python3 perfbench/run.py --workload oneshot-warm --seed 1 --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``oneshot-warm`` — fresh ``repro safety <tm> -p <prop> --cache-dir``
  processes over the 7 registry TMs x {ss, op} at (2, 2), warm disk cache;
* ``hunt`` — ``repro hunt`` over the default mutant roster at (2, 2)
  against both properties.

``--trace 0`` runs the workload as users reach it and reports the
end-to-end metrics, its times scaled to a host of nominal speed: one on
which a bare ``python -c pass`` takes 50 ms, sampled through the run
(:func:`common.bare_start`; the unscaled figures are on the details
line); ``--trace 1`` runs its checks in-process with spans
around each layer's public calls and reports the per-layer metrics
(:mod:`traced`).  Every answer is checked against ``expected.json``; the
last stdout line is the result object, the line before it the details
(sample count, tail percentile, failures, provenance).  Exit status is
0 when every answer verified, 1 when any did not, 2 when the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    NOMINAL_START_S,
    BenchError,
    load_expected,
    median,
    provenance,
    require_checkout,
    tail,
)

UNITS = {
    "check_p50_s": "s", "check_tail_s": "s", "checks_per_s": "1/s",
    "ok_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
}


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith("_s.disk") or name.endswith("_s.mmap"):
        return "s"
    if name in ("trace.coverage", "trace.overhead"):
        return "ratio"
    if name.startswith("cache.bytes"):
        return "bytes"
    if name == "import.numpy_loaded":
        return "flag"
    return "count"


def end_to_end(workload: str, seed: int, seconds: int, expected):
    from workloads import WORKLOADS

    out = WORKLOADS[workload](seed, seconds, expected)
    if not out.samples:
        raise BenchError("no check answered")
    pct, tail_s = tail(out.samples)
    failed = min(out.attempted, len(out.failures))
    raw = {
        "check_p50_s": median(out.samples),
        "check_tail_s": tail_s,
        "checks_per_s": len(out.samples) / out.wall,
        "setup_s": median(out.setups),
    }
    # Seconds on a host of nominal speed: see common.bare_start.
    start_s = median(out.refs)
    scale = NOMINAL_START_S / start_s
    metrics = {
        "check_p50_s": raw["check_p50_s"] * scale,
        "check_tail_s": raw["check_tail_s"] * scale,
        "checks_per_s": raw["checks_per_s"] / scale,
        "ok_frac": (out.attempted - failed) / out.attempted,
        "setup_s": raw["setup_s"] * scale,
        "peak_rss_mb": out.rss_mb,
    }
    details = {
        "samples": len(out.samples),
        "tail_percentile": pct,
        "failed_frac": failed / out.attempted,
        "setups": len(out.setups),
        "workload_wall_s": out.wall,
        "bare_start_s": start_s,
        "bare_start_samples": len(out.refs),
        "unscaled": raw,
    }
    units = {name: UNITS[name] for name in metrics}
    return out.attempted, out.failures, metrics, units, details


def per_layer(workload: str, seed: int, expected):
    from traced import run_traced

    t = run_traced(workload, seed, expected)
    metrics = dict(sorted(t.metrics.items()))
    units = {name: _unit(name) for name in metrics}
    return t.attempted, t.failures, metrics, units, {}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_checkout()
        expected = load_expected()
        prov = provenance(args.seed, bool(args.trace))
        if args.trace:
            attempted, failures, metrics, units, details = per_layer(
                args.workload, args.seed, expected
            )
        else:
            attempted, failures, metrics, units, details = end_to_end(
                args.workload, args.seed, args.seconds, expected
            )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    prov["loadavg_after"] = list(os.getloadavg())
    failed = min(attempted, len(failures))
    print(json.dumps({
        "workload": args.workload, **details, "failures": failures[:20],
        "provenance": prov,
    }, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
