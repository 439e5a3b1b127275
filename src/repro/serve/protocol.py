"""The ``repro serve`` wire protocol: newline-delimited JSON records.

One request per line, one response line per request, over a local
AF_UNIX socket or TCP.  Requests are JSON objects with an ``op``:

``check`` (the default when ``op`` is omitted)
    A safety check: ``tm`` and ``property`` are required, ``n``/``k``
    and every campaign policy key (``timeout_s``, ``retries``,
    ``lazy_spec``, ``inject`` for fault drills, ...) are optional and
    validated with exactly the strictness of a campaign cell — a
    daemon request *is* a campaign cell, expanded by the same
    :func:`repro.campaign.spec.expand_cell`.  Two extras belong to the
    protocol, not the cell: ``id`` (any string/int, echoed verbatim in
    the response so clients can pipeline) and ``warm`` (boolean,
    default true: serve from the daemon's resident tiered cache;
    ``false`` forces a cold check).  ``cache_dir``/``cache_backend``
    are rejected — the daemon owns its store; requests only choose
    warm or cold.

``health`` / ``stats``
    Introspection records, answered inline even while checks are in
    flight (they never enter the admission queue).

``shutdown``
    Ask the daemon to drain: stop accepting, finish in-flight
    requests, exit 0 — the same path as SIGTERM.

Responses echo ``op`` and ``id`` and carry ``status``:
``pass``/``fail`` (the check completed; ``result`` is the canonical
verdict payload, byte-identical to the one-shot CLI and the campaign
journal), ``timeout``/``error`` (every supervised attempt faulted;
``faults`` lists them), or ``busy`` (the admission queue was full or
the daemon is draining — resubmit later; nothing was run).
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

from ..campaign.spec import CampaignSpecError, expand_cell


class ProtocolError(ValueError):
    """A malformed request line (the daemon answers, it never dies)."""


#: Request operations.
OPS = ("check", "health", "stats", "shutdown")

#: Request keys that belong to the protocol layer, not the cell.
_PROTOCOL_KEYS = frozenset(["op", "id", "warm"])

#: Cell keys a request may not set: the daemon owns its cache.
_FORBIDDEN_KEYS = frozenset(["cache_dir", "cache_backend"])

#: ``status`` values a check response may carry.
CHECK_STATUSES = ("pass", "fail", "timeout", "error", "busy")


def encode(record: Dict[str, object]) -> bytes:
    """One canonical response/request line (sorted keys, ``\\n``)."""
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


def parse_request(line: bytes) -> Dict[str, object]:
    """Decode and shape-check one request line."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    op = obj.setdefault("op", "check")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r} (choose from {list(OPS)})"
        )
    request_id = obj.get("id")
    if request_id is not None and not isinstance(request_id, (str, int)):
        raise ProtocolError("id must be a string or integer")
    if op != "check":
        extra = set(obj) - {"op", "id"}
        if extra:
            raise ProtocolError(
                f"op {op!r} takes no keys beyond id (got {sorted(extra)})"
            )
    return obj


def build_cell(
    request: Dict[str, object],
    defaults: Optional[Dict[str, object]] = None,
) -> Tuple[Dict[str, object], bool]:
    """``(cell, warm)`` for a parsed ``check`` request.

    The cell comes out of the campaign layer's own validation, so an
    invalid request raises :class:`ProtocolError` with the same message
    a bad campaign spec would get, and a valid one is indistinguishable
    from a campaign cell by the time the supervisor sees it.
    """
    warm = request.get("warm", True)
    if not isinstance(warm, bool):
        raise ProtocolError("warm must be a boolean")
    forbidden = _FORBIDDEN_KEYS & set(request)
    if forbidden:
        raise ProtocolError(
            f"request may not set {sorted(forbidden)}: the daemon owns"
            " its cache; use warm: false for a cold check"
        )
    raw = {
        key: value for key, value in request.items()
        if key not in _PROTOCOL_KEYS
    }
    where = "request" if request.get("id") is None else (
        f"request {request['id']!r}"
    )
    try:
        cell = expand_cell(raw, defaults, where)
    except CampaignSpecError as exc:
        raise ProtocolError(str(exc))
    return cell, warm


def check_response(
    request_id: Optional[object], outcome: Dict[str, object]
) -> Dict[str, object]:
    """The response record for one supervised-check outcome."""
    record: Dict[str, object] = {
        "op": "check",
        "id": request_id,
        "status": outcome["status"],
        "result": outcome.get("result"),
        "error": outcome.get("error"),
        "attempts": outcome.get("attempts"),
        "faults": outcome.get("faults") or [],
        "seconds": outcome.get("seconds"),
    }
    if outcome.get("stats"):
        record["stats"] = outcome["stats"]
    if outcome.get("profile") is not None:
        record["profile"] = outcome["profile"]
    return record


def busy_response(
    request_id: Optional[object], reason: str = "admission queue full"
) -> Dict[str, object]:
    """The backpressure reply: nothing ran, resubmit later."""
    return {
        "op": "check",
        "id": request_id,
        "status": "busy",
        "result": None,
        "error": reason,
        "attempts": 0,
        "faults": [],
        "seconds": None,
    }


def error_response(
    request_id: Optional[object], message: str
) -> Dict[str, object]:
    """The reply to a request the daemon could not even admit."""
    return {
        "op": "error",
        "id": request_id,
        "status": "error",
        "error": message,
    }
