"""The TM registry: names → algorithms, contention managers, properties.

Every surface that accepts a TM by name — the CLI, campaign specs,
hunts, the supervised cell runner behind batch/hunt/serve — resolves it
here.  Mutant ids (``tl2/drop-rvalidate[@seedN]``, see
:mod:`repro.tm.mutate`) are accepted anywhere a plain name is.
"""

from __future__ import annotations

from typing import Optional

from ..spec.common import OP, SS
from .algorithm import TMAlgorithm
from .compose import ManagedTM
from .contention import (
    AggressiveManager,
    BoundedKarmaManager,
    PermissiveManager,
    PoliteManager,
)
from .dstm import DSTM
from .norec import NOrecTM
from .optimistic import OptimisticTM
from .sequential import SequentialTM
from .tl2 import TL2, ModifiedTL2
from .two_phase_locking import TwoPhaseLockingTM

TM_FACTORIES = {
    "seq": SequentialTM,
    "2pl": TwoPhaseLockingTM,
    "dstm": DSTM,
    "tl2": TL2,
    "modtl2": ModifiedTL2,
    "opt": OptimisticTM,
    "norec": NOrecTM,
}

MANAGERS = {
    "aggressive": AggressiveManager,
    "polite": PoliteManager,
    "permissive": PermissiveManager,
    "karma": BoundedKarmaManager,
}

PROPERTIES = {"ss": SS, "op": OP}


def make_tm(
    name: str, n: int, k: int, manager: Optional[str]
) -> TMAlgorithm:
    """The TM named ``name`` (a registry key or a mutant id) at (n, k),
    wrapped in the named contention manager if one is given.  Unknown
    names exit with a usage message (``SystemExit``), the CLI's error
    contract."""
    if "/" in name:  # mutant ids: tl2/drop-rvalidate[@seedN]
        from .mutate import make_mutant

        try:
            tm = make_mutant(name, n, k)
        except ValueError as exc:
            raise SystemExit(str(exc))
    else:
        try:
            tm = TM_FACTORIES[name.lower()](n, k)
        except KeyError:
            raise SystemExit(
                f"unknown TM {name!r}; choose from"
                f" {sorted(TM_FACTORIES)}, 'all', or a mutant id"
                " (see 'repro hunt --list')"
            )
    if manager is not None:
        try:
            cm_cls = MANAGERS[manager.lower()]
        except KeyError:
            raise SystemExit(
                f"unknown manager {manager!r}; choose from {sorted(MANAGERS)}"
            )
        if cm_cls is BoundedKarmaManager:
            tm = ManagedTM(tm, cm_cls(n))
        else:
            tm = ManagedTM(tm, cm_cls())
    return tm
