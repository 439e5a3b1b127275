"""Dense-integer compilation of automata for the hot inclusion paths.

The inclusion checkers spend their time in two inner loops: walking the
observable/ε transitions of the left automaton and computing macro
successors (``eclosure(post(·, a))``) of the right automaton.  The seed
implementations re-derive both on every visit — hashing rich state
tuples, sorting successor sets with ``key=repr`` per pop, and chasing
ε-edges with a fresh BFS per macro step.  This module compiles an
:class:`~repro.automata.nfa.NFA` or :class:`~repro.automata.dfa.DFA`
*once* into dense-integer states with all of that precomputed:

* states become ``0..n-1``; per-state transition lists are frozen in the
  exact order the naive checkers iterate them (``delta`` dict order for
  symbols, ``repr``-sorted successors), so kernels built on the interned
  form reproduce the naive BFS — and therefore its counterexamples —
  byte for byte;
* macrostates become frozensets of small ints, so the antichain's ⊆
  tests hash and compare machine integers instead of the rich state
  tuples (the spec macrostates stay tiny — a handful of states — which
  makes index sets the right representation, not wide bitsets);
* per-state ε-closures and per-(state, symbol) *closed* successor sets
  (``eclosure(post({q}, a))``) are memoized on first use, so a macro
  step is one union-reduction over a few precomputed sets.

Compiled forms are cached on the source automaton instance (attribute
``_interned``); automata are treated as immutable after construction,
which every construction path in this library respects.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from .dfa import DFA
from .nfa import EPSILON, NFA

Symbol = Hashable

#: Transition row of an interned NFA state: ``(symbol, successors)`` in
#: naive-checker iteration order; ``symbol is None`` marks an ε-move.
TransRow = Tuple[Tuple[Optional[Symbol], Tuple[int, ...]], ...]

_EMPTY: FrozenSet[int] = frozenset()


class InternedNFA:
    """An ε-NFA over dense integer states with memoized closures.

    Attributes:
        source: the NFA this was compiled from.
        n: number of states (indices ``0..n-1``).
        initial: initial state indices, ``repr``-sorted like the naive
            checkers' start order.
        trans: per-state transition rows (see :data:`TransRow`).
        state_of: index → original state.
        index_of: original state → index.
    """

    __slots__ = (
        "source",
        "n",
        "initial",
        "trans",
        "state_of",
        "index_of",
        "_eclosures",
        "_step_closure",
    )

    def __init__(self, nfa: NFA) -> None:
        self.source = nfa
        index: Dict[Hashable, int] = {}
        order: List[Hashable] = []

        def visit(q: Hashable) -> int:
            idx = index.get(q)
            if idx is None:
                idx = index[q] = len(order)
                order.append(q)
            return idx

        def make_row(out: Dict[Symbol, FrozenSet[Hashable]]) -> TransRow:
            row = []
            for symbol, succs in out.items():
                if len(succs) == 1:  # overwhelmingly common; skip repr
                    (succ,) = succs
                    ordered: Tuple[int, ...] = (visit(succ),)
                else:
                    ordered = tuple(
                        visit(s) for s in sorted(succs, key=repr)
                    )
                row.append((None if symbol is EPSILON else symbol, ordered))
            return tuple(row)

        # BFS in the same deterministic order the naive checkers walk.
        init_sorted = sorted(nfa.initial, key=repr)
        for q in init_sorted:
            visit(q)
        trans: List[TransRow] = []
        frontier = 0
        while frontier < len(order):
            q = order[frontier]
            frontier += 1
            trans.append(make_row(nfa.delta.get(q, {})))
        # Unreachable stragglers: indices first (so rows can refer to
        # them), then rows.  Their order is internal — nothing reachable
        # ever iterates them — so no repr-sorting is needed.
        stragglers = [q for q in nfa.delta if q not in index]
        for q in stragglers:
            visit(q)
        for out in nfa.delta.values():
            for succs in out.values():
                for s in succs:
                    visit(s)
        for q in order[frontier:]:
            trans.append(make_row(nfa.delta.get(q, {})))

        self.n = len(order)
        self.state_of: Tuple[Hashable, ...] = tuple(order)
        self.index_of = index
        self.initial: Tuple[int, ...] = tuple(index[q] for q in init_sorted)
        self.trans: Tuple[TransRow, ...] = tuple(trans)
        # Memoized closure machinery (only paid when this automaton is
        # the right-hand side of an antichain check).
        self._eclosures: List[Optional[FrozenSet[int]]] = [None] * self.n
        self._step_closure: Dict[Symbol, List[Optional[FrozenSet[int]]]] = {}

    # ------------------------------------------------------------------
    # Macro-step machinery (used when this automaton is the right-hand
    # side of an antichain inclusion check)
    # ------------------------------------------------------------------

    def eclosure_set(self, i: int) -> FrozenSet[int]:
        """ε-closure of state ``i`` as a frozenset of indices."""
        cached = self._eclosures[i]
        if cached is None:
            result = {i}
            stack = [i]
            while stack:
                q = stack.pop()
                for symbol, succs in self.trans[q]:
                    if symbol is None:
                        for s in succs:
                            if s not in result:
                                result.add(s)
                                stack.append(s)
            cached = self._eclosures[i] = frozenset(result)
        return cached

    def initial_closure(self) -> FrozenSet[int]:
        """``eclosure(initial)`` as a frozenset of indices."""
        result: FrozenSet[int] = _EMPTY
        for i in self.initial:
            result |= self.eclosure_set(i)
        return result

    def closed_post(self, macro: FrozenSet[int], symbol: Symbol) -> FrozenSet[int]:
        """``eclosure(post(macro, symbol))`` as a frozenset of indices.

        One union-reduction over memoized per-(state, symbol) closed
        successor sets.
        """
        table = self._step_closure.get(symbol)
        if table is None:
            table = self._step_closure[symbol] = [None] * self.n
        result: FrozenSet[int] = _EMPTY
        for i in macro:
            entry = table[i]
            if entry is None:
                acc: FrozenSet[int] = _EMPTY
                for sym, succs in self.trans[i]:
                    if sym == symbol:
                        for s in succs:
                            acc |= self.eclosure_set(s)
                entry = table[i] = acc
            result |= entry
        return result

    def to_states(self, macro: FrozenSet[int]) -> FrozenSet[Hashable]:
        """Decode an index macrostate back to original NFA states."""
        return frozenset(self.state_of[i] for i in macro)


class InternedDFA:
    """A DFA over dense integer states with per-state transition dicts.

    ``delta[i]`` maps symbol → successor index; a missing symbol is the
    implicit rejecting sink, exactly as in :class:`DFA`.
    """

    __slots__ = (
        "source",
        "n",
        "initial",
        "delta",
        "state_of",
        "index_of",
        "_delta_ids",
    )

    def __init__(self, dfa: DFA) -> None:
        self.source = dfa
        index: Dict[Hashable, int] = {dfa.initial: 0}
        order: List[Hashable] = [dfa.initial]
        rows: List[Dict[Symbol, int]] = []
        frontier = 0
        while frontier < len(order):
            q = order[frontier]
            frontier += 1
            row: Dict[Symbol, int] = {}
            for symbol, succ in dfa.delta.get(q, {}).items():
                idx = index.get(succ)
                if idx is None:
                    idx = index[succ] = len(order)
                    order.append(succ)
                row[symbol] = idx
            rows.append(row)
        # Unreachable stragglers: index every remaining state (row
        # sources and successor-only targets) first, then build rows,
        # so ``delta`` covers all ``n`` indices.
        for q in dfa.delta:
            if q not in index:
                index[q] = len(order)
                order.append(q)
        for out in dfa.delta.values():
            for succ in out.values():
                if succ not in index:
                    index[succ] = len(order)
                    order.append(succ)
        for q in order[frontier:]:
            rows.append(
                {
                    symbol: index[succ]
                    for symbol, succ in dfa.delta.get(q, {}).items()
                }
            )
        self.n = len(order)
        self.state_of: Tuple[Hashable, ...] = tuple(order)
        self.index_of = index
        self.initial = 0
        self.delta: Tuple[Dict[Symbol, int], ...] = tuple(rows)
        self._delta_ids: Dict[Tuple[Symbol, ...], Tuple[Tuple[int, ...], ...]] = {}

    def delta_by_symbol_ids(
        self, symbols: Tuple[Symbol, ...]
    ) -> Tuple[Tuple[int, ...], ...]:
        """The delta re-indexed by integer symbol id (memoized).

        ``delta_by_symbol_ids(symbols)[i][sym_id]`` is the successor of
        state ``i`` on ``symbols[sym_id]``, or ``-1`` for the implicit
        rejecting sink — the representation the all-int product kernel
        (:func:`repro.automata.kernel.product_packed`) indexes with no
        symbol hashing on the hot path.  Symbols of the DFA that are
        missing from ``symbols`` would be unreachable through an id-only
        checker, so they are rejected loudly rather than dropped.
        """
        cached = self._delta_ids.get(symbols)
        if cached is None:
            sym_id = {s: i for i, s in enumerate(symbols)}
            num = len(symbols)
            table = []
            for row in self.delta:
                ids = [-1] * num
                for symbol, succ in row.items():
                    idx = sym_id.get(symbol)
                    if idx is None:
                        raise ValueError(
                            f"DFA symbol {symbol!r} is not in the id table"
                        )
                    ids[idx] = succ
                table.append(tuple(ids))
            cached = self._delta_ids[symbols] = tuple(table)
        return cached


def intern_nfa(nfa: NFA) -> InternedNFA:
    """Compile (and cache on the instance) the interned form of ``nfa``."""
    cached = getattr(nfa, "_interned", None)
    if cached is None:
        cached = InternedNFA(nfa)
        try:
            nfa._interned = cached  # type: ignore[attr-defined]
        except (AttributeError, TypeError):  # frozen/slotted subclass
            pass
    return cached


def intern_dfa(dfa: DFA) -> InternedDFA:
    """Compile (and cache on the instance) the interned form of ``dfa``."""
    cached = getattr(dfa, "_interned", None)
    if cached is None:
        cached = InternedDFA(dfa)
        try:
            dfa._interned = cached  # type: ignore[attr-defined]
        except (AttributeError, TypeError):
            pass
    return cached
