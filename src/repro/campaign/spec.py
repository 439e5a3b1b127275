"""Campaign specs: a validated JSON matrix of checks.

A spec file looks like::

    {
      "name": "nightly",
      "defaults": {"timeout_s": 120, "retries": 2, "cache_dir": "/tmp/c"},
      "matrix": {
        "tms": ["2pl", "dstm"],
        "properties": ["ss", "op"],
        "sizes": [[2, 1], [2, 2]]
      },
      "cells": [
        {"tm": "modtl2", "property": "op", "n": 2, "k": 2,
         "timeout_s": 600}
      ]
    }

``matrix`` expands to the full cross product; ``cells`` adds (or
overrides) individual cells.  Every cell inherits ``defaults`` and may
override any policy key.  Validation is strict — unknown keys, unknown
TM/property/manager names, bad types, and duplicate cell ids are all
:class:`CampaignSpecError`\\ s (a ``ValueError``, so the CLI maps them
to exit 2) — because a campaign that dies on cell 40 of 60 from a typo
wastes the first 39 cells.

The spec digest (sha256 over the canonical JSON of the expanded cells)
names the campaign for journal resume: a journal written for a
different digest refuses to resume rather than silently replaying
mismatched cells.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

from ..cache import BACKEND_NAMES


class CampaignSpecError(ValueError):
    """A campaign spec failed validation (CLI exit 2)."""


#: Policy keys a cell (or ``defaults``) may set, with campaign-level
#: defaults.  ``timeout_s`` bounds each *attempt*, not the whole cell.
POLICY_DEFAULTS: Dict[str, object] = {
    "timeout_s": 300.0,
    "retries": 2,
    "backoff_s": 0.1,
    "backoff_cap_s": 30.0,
    "memory_mb": None,
    "cache_dir": None,
    "cache_backend": "disk",
    "lazy_spec": False,
    "compiled": True,
    "dense_kernel": None,
    "max_states": None,
    "manager": None,
    "inject": None,
    "profile": False,
    "retry_seed": None,
}

#: Fault-injection knobs (testing/CI only): kill/hang/fail the worker
#: on its first N attempts, or allocate ballast to trip the RSS cap.
INJECT_KEYS = frozenset(
    ["sigkill_attempts", "hang_attempts", "hang_s", "fail_attempts",
     "alloc_mb"]
)

_CELL_ONLY_KEYS = frozenset(["tm", "property", "n", "k"])


def _known_names():
    from ..tm.registry import MANAGERS, PROPERTIES, TM_FACTORIES

    return TM_FACTORIES, PROPERTIES, MANAGERS


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CampaignSpecError(message)


def _is_mutant_name(name: object) -> bool:
    # Mutant ids (tl2/drop-rvalidate[@seedN]) are first-class TM names
    # everywhere a cell is validated — including daemon check requests,
    # which makes hunts runnable against ``repro serve`` for free.
    if not isinstance(name, str) or "/" not in name:
        return False
    from ..tm.mutate import is_mutant_id

    return is_mutant_id(name)


def _check_policy(policy: Dict[str, object], where: str) -> None:
    tms, props, managers = _known_names()
    for key, value in policy.items():
        _require(
            key in POLICY_DEFAULTS,
            f"{where}: unknown key {key!r}"
            f" (choose from {sorted(POLICY_DEFAULTS)})",
        )
    if "timeout_s" in policy:
        value = policy["timeout_s"]
        _require(
            isinstance(value, (int, float)) and not isinstance(value, bool)
            and value > 0,
            f"{where}: timeout_s must be a positive number",
        )
    if "retries" in policy and policy["retries"] is not None:
        value = policy["retries"]
        _require(
            isinstance(value, int) and not isinstance(value, bool)
            and value >= 0,
            f"{where}: retries must be a non-negative integer",
        )
    if "backoff_s" in policy:
        value = policy["backoff_s"]
        _require(
            isinstance(value, (int, float)) and not isinstance(value, bool)
            and value >= 0,
            f"{where}: backoff_s must be a non-negative number",
        )
    if "backoff_cap_s" in policy:
        value = policy["backoff_cap_s"]
        _require(
            isinstance(value, (int, float)) and not isinstance(value, bool)
            and value > 0,
            f"{where}: backoff_cap_s must be a positive number",
        )
    for key in ("memory_mb", "max_states"):
        if key in policy and policy[key] is not None:
            value = policy[key]
            _require(
                isinstance(value, int) and not isinstance(value, bool)
                and value > 0,
                f"{where}: {key} must be a positive integer or null",
            )
    if "retry_seed" in policy and policy["retry_seed"] is not None:
        value = policy["retry_seed"]
        _require(
            isinstance(value, int) and not isinstance(value, bool)
            and value >= 0,
            f"{where}: retry_seed must be a non-negative integer or null",
        )
    for key in ("lazy_spec", "compiled", "profile"):
        if key in policy:
            _require(
                isinstance(policy[key], bool),
                f"{where}: {key} must be a boolean",
            )
    if "dense_kernel" in policy and policy["dense_kernel"] is not None:
        _require(
            isinstance(policy["dense_kernel"], bool),
            f"{where}: dense_kernel must be a boolean or null",
        )
    if "cache_dir" in policy and policy["cache_dir"] is not None:
        _require(
            isinstance(policy["cache_dir"], str) and policy["cache_dir"],
            f"{where}: cache_dir must be a non-empty string or null",
        )
    if "cache_backend" in policy:
        _require(
            policy["cache_backend"] in BACKEND_NAMES,
            f"{where}: cache_backend must be one of {BACKEND_NAMES}",
        )
    if "manager" in policy and policy["manager"] is not None:
        _require(
            policy["manager"] in managers,
            f"{where}: unknown manager {policy['manager']!r}"
            f" (choose from {sorted(managers)})",
        )
    if "inject" in policy and policy["inject"] is not None:
        inject = policy["inject"]
        _require(
            isinstance(inject, dict),
            f"{where}: inject must be an object",
        )
        for key, value in inject.items():
            _require(
                key in INJECT_KEYS,
                f"{where}: unknown inject key {key!r}"
                f" (choose from {sorted(INJECT_KEYS)})",
            )
            _require(
                isinstance(value, (int, float))
                and not isinstance(value, bool) and value >= 0,
                f"{where}: inject.{key} must be a non-negative number",
            )


def _cell_id(cell: Dict[str, object]) -> str:
    base = "{}/{}/{}x{}".format(
        cell["tm"], cell["property"], cell["n"], cell["k"]
    )
    manager = cell.get("manager")
    return f"{base}+{manager}" if manager else base


def _expand_cell(
    raw: Dict[str, object], defaults: Dict[str, object], where: str
) -> Dict[str, object]:
    tms, props, _managers = _known_names()
    _require(isinstance(raw, dict), f"{where}: cell must be an object")
    unknown = set(raw) - _CELL_ONLY_KEYS - set(POLICY_DEFAULTS)
    _require(
        not unknown,
        f"{where}: unknown key(s) {sorted(unknown)}",
    )
    _require("tm" in raw, f"{where}: missing 'tm'")
    _require("property" in raw, f"{where}: missing 'property'")
    _require(
        raw["tm"] in tms or _is_mutant_name(raw["tm"]),
        f"{where}: unknown TM {raw['tm']!r}"
        f" (choose from {sorted(tms)} or a mutant id)",
    )
    _require(
        raw["property"] in props,
        f"{where}: unknown property {raw['property']!r}"
        f" (choose from {sorted(props)})",
    )
    for key in ("n", "k"):
        if key in raw:
            value = raw[key]
            _require(
                isinstance(value, int) and not isinstance(value, bool)
                and value >= 1,
                f"{where}: {key} must be a positive integer",
            )
    overrides = {
        key: value for key, value in raw.items()
        if key not in _CELL_ONLY_KEYS
    }
    _check_policy(overrides, where)
    cell = dict(POLICY_DEFAULTS)
    cell.update(defaults)
    cell.update(overrides)
    cell["tm"] = raw["tm"]
    cell["property"] = raw["property"]
    cell["n"] = raw.get("n", 2)
    cell["k"] = raw.get("k", 2)
    cell["id"] = _cell_id(cell)
    return cell


def expand_cell(
    raw: Dict[str, object],
    defaults: Optional[Dict[str, object]] = None,
    where: str = "request",
) -> Dict[str, object]:
    """Validate one raw cell dict into a fully-defaulted cell.

    The public face of :func:`_expand_cell` — the serve layer runs each
    incoming check request through exactly this validation so a daemon
    request and a campaign cell are the same object with the same
    strictness (unknown keys, unknown TM/property names, bad types all
    raise :class:`CampaignSpecError`).
    """
    return _expand_cell(raw, defaults or {}, where)


class CampaignSpec:
    """A validated, fully expanded campaign: ``cells`` in run order."""

    def __init__(
        self, name: str, cells: List[Dict[str, object]]
    ) -> None:
        self.name = name
        self.cells = cells
        canonical = json.dumps(
            {"name": name, "cells": cells}, sort_keys=True
        )
        self.digest = hashlib.sha256(canonical.encode()).hexdigest()

    def cell(self, cell_id: str) -> Optional[Dict[str, object]]:
        for cell in self.cells:
            if cell["id"] == cell_id:
                return cell
        return None


def parse_spec(data: object) -> CampaignSpec:
    """Validate and expand one decoded spec document."""
    _require(isinstance(data, dict), "campaign spec must be a JSON object")
    unknown = set(data) - {"name", "defaults", "matrix", "cells"}
    _require(
        not unknown,
        f"campaign spec: unknown key(s) {sorted(unknown)}"
        " (expected name/defaults/matrix/cells)",
    )
    name = data.get("name", "campaign")
    _require(
        isinstance(name, str) and name, "campaign spec: name must be a"
        " non-empty string"
    )
    defaults = data.get("defaults", {})
    _require(
        isinstance(defaults, dict), "campaign spec: defaults must be an"
        " object"
    )
    _check_policy(defaults, "defaults")

    cells: List[Dict[str, object]] = []
    matrix = data.get("matrix")
    if matrix is not None:
        _require(
            isinstance(matrix, dict), "matrix must be an object"
        )
        unknown = set(matrix) - {"tms", "properties", "sizes"}
        _require(not unknown, f"matrix: unknown key(s) {sorted(unknown)}")
        tms = matrix.get("tms", [])
        props = matrix.get("properties", [])
        sizes = matrix.get("sizes", [[2, 2]])
        _require(
            isinstance(tms, list) and tms,
            "matrix.tms must be a non-empty list",
        )
        _require(
            isinstance(props, list) and props,
            "matrix.properties must be a non-empty list",
        )
        _require(
            isinstance(sizes, list) and sizes
            and all(
                isinstance(size, list) and len(size) == 2 for size in sizes
            ),
            "matrix.sizes must be a non-empty list of [n, k] pairs",
        )
        for tm in tms:
            for prop in props:
                for n, k in sizes:
                    cells.append(
                        _expand_cell(
                            {"tm": tm, "property": prop, "n": n, "k": k},
                            defaults,
                            f"matrix cell {tm}/{prop}/{n}x{k}",
                        )
                    )
    matrix_ids = {cell["id"] for cell in cells}
    for index, raw in enumerate(data.get("cells", [])):
        cell = _expand_cell(raw, defaults, f"cells[{index}]")
        # An explicit cell may override its matrix-expanded twin, but
        # two explicit cells with the same id are a spec mistake.
        if cell["id"] in matrix_ids:
            cells = [c for c in cells if c["id"] != cell["id"]]
            matrix_ids.discard(cell["id"])
        cells.append(cell)
    _require(bool(cells), "campaign spec: no cells (empty matrix/cells)")
    seen = set()
    for cell in cells:
        _require(
            cell["id"] not in seen,
            f"duplicate cell id {cell['id']!r}",
        )
        seen.add(cell["id"])
    return CampaignSpec(name, cells)


def load_spec(path: str) -> CampaignSpec:
    """Parse + validate a spec file (bad JSON is a spec error too)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CampaignSpecError(f"cannot read campaign spec: {exc}")
    except json.JSONDecodeError as exc:
        raise CampaignSpecError(f"campaign spec is not valid JSON: {exc}")
    return parse_spec(data)
