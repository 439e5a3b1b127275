"""Shared exploration kernel for the language-inclusion checkers.

Both inclusion checkers — product-vs-DFA (:mod:`repro.automata.inclusion`)
and antichain-vs-NFA (:mod:`repro.automata.antichain`) — are the same
BFS over product pairs; they differ only in the right-hand component (a
single DFA state vs. a ⊆-minimal index macrostate).  This module holds
that BFS once, over the interned representation of
:mod:`repro.automata.interned`, so both checkers share:

* **pair semantics** — ``product_states`` counts *discovered* pairs
  (every pair ever inserted into the parent map, initial pairs
  included), not popped pairs;
* **counterexample reconstruction** — the parent map records, per pair,
  its BFS predecessor and the observable symbol emitted (``None`` for
  ε), and failures replay that chain;
* **iteration order** — transition rows are frozen at interning time in
  the exact order the pre-interning implementations iterated, so
  verdicts *and* counterexamples are identical to the naive checkers.

A third entry point, :func:`lazy_product_dfa`, runs the same product
BFS against a *step function* instead of a materialized left automaton:
successor states stream directly into the product and each state's
transition row is computed (and ordered) exactly once, on first visit.
This is what lets the safety pipeline skip building the full TM NFA.

Finally, :func:`product_packed` runs the same BFS over *pre-encoded*
states on both sides: the compiled TM engine (:mod:`repro.tm.compiled`)
hands over packed-int states with rows already symbol-grouped and
ordered, and the specification is an int-indexed row table — the
compiled spec oracle filling its rows on demand, or a materialized DFA
whose rows are all filled.  Integer statement ids, single-machine-word
pair keys and an untraced traversal with a traced rerun on violation
keep BFS order (and hence verdicts and counterexamples) byte-identical
to the naive streamed path.

On top of the packed product sits the **dense kernel**
(:class:`DenseCSR`): the first untraced pass additionally interns
product pairs into dense ids ``0..P-1`` and records every successor list
into flat CSR arrays (``array('q')`` offsets/targets).  Every later run
of the same product — a repeated check, a benchmark round, a process
warm-started from the on-disk cache — then never touches the
dict-of-dicts row memos at all: the BFS becomes batched "gather
successors → mask out seen → extend frontier" sweeps over the CSR with a
bitset seen-set.  Tables of at least :data:`DENSE_NUMPY_MIN_EDGES` edges
take a vectorized numpy path, importing numpy on first such use; smaller
ones — every Table 2 cell at (2, 2) — take the pure-stdlib bytearray
path, which is always present and finishes first below that size
because it skips numpy's import.  Violating products
keep their partial CSR with the violating pair flagged, so warm reruns
short-circuit straight to the traced twin — verdicts,
counterexamples and every reported count stay byte-identical to the
set-based path, which remains available as the differential reference
(``check_safety(dense_kernel=False)`` / ``--no-dense-kernel``).
"""

from __future__ import annotations

from array import array
from collections import deque
from operator import le
from time import perf_counter
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..cache import (
    is_int_vector,
    load_payload,
    narrow_int_vector,
    save_payload,
)
from .dfa import DFA
from .interned import intern_dfa, intern_nfa
from .nfa import EPSILON, NFA

#: Edge count from which :class:`DenseCSR` validates and replays a table
#: through numpy instead of the stdlib path; the gate reads only the
#: table's own size.  Measured in fresh processes (2-core box, numpy
#: 2.4.6), loading and replaying a table costs ~17 ms + ~170 ns/edge on
#: the stdlib path and ~85 ms + ~36 ns/edge through numpy, the 85 ms
#: being mostly numpy's import: the two cross at ~0.4-0.65 M edges.
#: Every (2, 2) table (<= 180k edges) stays on the stdlib path.
DENSE_NUMPY_MIN_EDGES = 500_000


def _numpy_for(edges: int):
    """numpy, imported on first use, for a table of ``edges`` edges — or
    ``None``: the table is below :data:`DENSE_NUMPY_MIN_EDGES`, or numpy
    is absent (the stdlib path is always present)."""
    if edges < DENSE_NUMPY_MIN_EDGES:
        return None
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy genuinely absent
        return None
    return numpy


def _all_below(vec, bound: int) -> bool:
    """Whether every value of the int vector ``vec`` lies in ``[0,
    bound)``, by one builtin ``max`` over its unsigned reinterpretation:
    a negative value wraps to at least ``2**(bits-1)``, which is above
    any bound up to that (larger bounds take ``min`` and ``max``)."""
    if not len(vec):
        return True
    if bound > 1 << (8 * vec.itemsize - 1):
        return min(vec) >= 0 and max(vec) < bound
    unsigned = "I" if vec.itemsize == 4 else "Q"
    return max(memoryview(vec).cast("B").cast(unsigned)) < bound


def _np_vec(np, vec):
    """Zero-copy numpy view of an int vector — ``array('i'/'q')`` or a
    memoryview cast served by the mmap cache backend — with the dtype
    derived from the vector's own item width (the typed-width policy:
    the payload carries the width, consumers adapt)."""
    return np.frombuffer(
        vec, dtype=np.int32 if vec.itemsize == 4 else np.int64
    )


def _np_distinct(np, vec) -> int:
    """Number of distinct values of an int vector: sort, count the steps
    (``np.unique`` gives the same count but imports ``numpy.ma``)."""
    a = np.sort(_np_vec(np, vec))
    return int(a.size and 1 + np.count_nonzero(a[1:] != a[:-1]))

Symbol = Hashable

# Parent map over pair keys (encoded ints or tuples): pair ->
# (predecessor pair, symbol or None for an ε-move); initial pairs map
# to None.
ParentMap = Dict[Hashable, Optional[Tuple[Hashable, Optional[Symbol]]]]


def reconstruct(parent: ParentMap, pair: Hashable) -> Tuple[Symbol, ...]:
    """Observable symbols along the BFS path to ``pair``."""
    symbols: List[Symbol] = []
    current: Optional[Hashable] = pair
    while current is not None:
        entry = parent[current]
        if entry is None:
            break
        prev, symbol = entry
        if symbol is not None:
            symbols.append(symbol)
        current = prev
    symbols.reverse()
    return tuple(symbols)


def product_dfa(a: NFA, dfa: DFA):
    """Product reachability of ``a`` against a deterministic ``dfa``.

    Returns ``(holds, counterexample, discovered_pairs)``.
    """
    ia = intern_nfa(a)
    ib = intern_dfa(dfa)
    trans = ia.trans
    b_delta = ib.delta
    nb = ib.n
    # Pairs are encoded as a_state * nb + dfa_state: one small-int key.
    start = [q * nb + ib.initial for q in ia.initial]
    parent: ParentMap = {pair: None for pair in start}
    queue = deque(start)
    pop = queue.popleft
    push = queue.append
    while queue:
        pair = pop()
        nq, dq = divmod(pair, nb)
        brow = b_delta[dq]
        for symbol, succs in trans[nq]:
            if symbol is None:  # ε: advance the NFA component only
                for succ in succs:
                    nxt = succ * nb + dq
                    if nxt not in parent:
                        parent[nxt] = (pair, None)
                        push(nxt)
                continue
            dsucc = brow.get(symbol)
            if dsucc is None:
                word = reconstruct(parent, pair) + (symbol,)
                return False, word, len(parent)
            for succ in succs:
                nxt = succ * nb + dsucc
                if nxt not in parent:
                    parent[nxt] = (pair, symbol)
                    push(nxt)
    return True, None, len(parent)


class _IndexAntichain:
    """Per-left-state antichains of ⊆-minimal index macrostates.

    Macrostates are frozensets of dense ints — they stay tiny for the
    paper's specifications, so subset tests cost a handful of integer
    hashes (and frozensets cache their own hash for the parent map).
    """

    __slots__ = ("_by_state",)

    def __init__(self, n: int) -> None:
        self._by_state: List[List[frozenset]] = [[] for _ in range(n)]

    def insert(self, state: int, macro: frozenset) -> bool:
        """Insert unless subsumed; drop kept supersets.  True if inserted."""
        kept = self._by_state[state]
        for old in kept:
            if old <= macro:
                return False
        kept[:] = [old for old in kept if not macro <= old]
        kept.append(macro)
        return True


def antichain_inclusion(a: NFA, b: NFA):
    """Forward antichain inclusion of ``a`` in ``b`` (both safety NFAs).

    Returns ``(holds, counterexample, discovered_pairs)``.
    """
    ia = intern_nfa(a)
    ib = intern_nfa(b)
    trans = ia.trans
    closed_post = ib.closed_post
    b_init = ib.initial_closure()
    antichain = _IndexAntichain(ia.n)
    parent: Dict[Tuple[int, frozenset], Optional[Tuple]] = {}
    queue: deque = deque()
    for q in ia.initial:
        if antichain.insert(q, b_init):
            pair = (q, b_init)
            parent[pair] = None
            queue.append(pair)
    pop = queue.popleft
    push = queue.append
    while queue:
        pair = pop()
        aq, bmacro = pair
        for symbol, succs in trans[aq]:
            if symbol is None:  # ε: advance the A component only
                for succ in succs:
                    if antichain.insert(succ, bmacro):
                        nxt = (succ, bmacro)
                        parent[nxt] = (pair, None)
                        push(nxt)
                continue
            bsucc = closed_post(bmacro, symbol)
            if not bsucc:
                word = reconstruct(parent, pair) + (symbol,)
                return False, word, len(parent)
            for succ in succs:
                if antichain.insert(succ, bsucc):
                    nxt = (succ, bsucc)
                    parent[nxt] = (pair, symbol)
                    push(nxt)
    return True, None, len(parent)


StepFn = Callable[[Hashable], Iterable[Tuple[Symbol, Hashable]]]


class _LazyLeft:
    """Incremental interning of a streamed ε-NFA (the product's left side).

    States are indexed on first sight; each state's transition row is
    computed once, on first expansion, in the exact order ``from_step``
    plus the product checker would have used (first-occurrence symbol
    order, ``repr``-sorted successors).  ``max_states`` bounds the
    number of distinct states interned, mirroring ``from_step``'s guard.
    """

    __slots__ = ("step", "max_states", "index", "states_of", "rows")

    def __init__(
        self, step: StepFn, max_states: Optional[int] = None
    ) -> None:
        self.step = step
        self.max_states = max_states
        self.index: Dict[Hashable, int] = {}
        self.states_of: List[Hashable] = []
        self.rows: List[Optional[Tuple]] = []

    def visit(self, q: Hashable) -> int:
        idx = self.index.get(q)
        if idx is None:
            if (
                self.max_states is not None
                and len(self.index) >= self.max_states
            ):
                raise RuntimeError(
                    f"state-space exploration exceeded {self.max_states}"
                    f" states (at {len(self.index) + 1})"
                )
            idx = self.index[q] = len(self.rows)
            self.states_of.append(q)
            self.rows.append(None)
        return idx

    def row_of(self, idx: int) -> Tuple:
        row = self.rows[idx]
        if row is None:
            grouped: Dict[Optional[Symbol], List[Hashable]] = {}
            for symbol, succ in self.step(self.states_of[idx]):
                key = None if symbol is EPSILON else symbol
                grouped.setdefault(key, []).append(succ)
            visit = self.visit
            row = tuple(
                (
                    symbol,
                    tuple(visit(s) for s in sorted(set(succs), key=repr)),
                )
                for symbol, succs in grouped.items()
            )
            self.rows[idx] = row
        return row


RowFn = Callable[[int], Tuple]


def _discover_row_ids(
    row: Tuple,
    discovered: set,
    max_states: Optional[int],
) -> None:
    """Record a freshly expanded all-int row's successors as discovered
    states (singleton successor groups are bare ints, see
    ``CompiledTM.safety_row_ids``).

    Mirrors :class:`_LazyLeft`'s interning moment exactly: the naive
    path interns every successor when a state's row is first built, so
    the discovered-state count (and the ``max_states`` guard, message
    included) stays byte-identical on the packed path.
    """
    if max_states is None:
        for _symbol, succs in row:
            if type(succs) is int:
                discovered.add(succs)
            else:
                discovered.update(succs)
        return
    for _symbol, succs in row:
        for succ in (succs,) if type(succs) is int else succs:
            if succ not in discovered:
                if len(discovered) >= max_states:
                    raise RuntimeError(
                        f"state-space exploration exceeded {max_states}"
                        f" states (at {len(discovered) + 1})"
                    )
                discovered.add(succ)


# ----------------------------------------------------------------------
# The dense kernel: CSR successor tables + bitset BFS over dense pair ids
# ----------------------------------------------------------------------

#: Edge budget of a dense CSR recording.  Beyond this many successor
#: entries the recorder frees its arrays and disables itself for the
#: engine's lifetime — the build degrades to the plain set-based
#: semantics (results are byte-identical either way; only the array
#: fast path for *later* runs is lost).  48M ``int32`` entries ≈ 192 MB,
#: far above every paper instance (DSTM (2,3) records ~30M).  The cap
#: also guarantees dense ids and offsets always fit int32 (the
#: typed-width policy's invariant for the recorded vectors).
DENSE_MAX_EDGES = 48_000_000


class DenseCSR:
    """Array-backed successor table of one product-reachability problem.

    Product pairs are interned into *dense ids* ``0..P-1`` in BFS
    discovery order (initial pairs first); the adjacency is stored in
    CSR form — ``targets[offsets[i]:offsets[i+1]]`` are the dense ids of
    pair ``i``'s successors, in exactly the order the packed product
    emits them.  Two parallel arrays keep the pair components
    for count recovery: ``node_keys[i]`` is the left (TM) component and
    ``spec_ids[i]`` the right (spec) component of pair ``i`` — both used
    only for *distinct* counts and the initial-pair match, so any
    per-run bijective relabeling of either side is admissible.

    A CSR is built as a by-product of the first untraced pass
    (:func:`_product_packed_dense`) and replayed by :meth:`run`: a
    level-synchronous BFS over the arrays with a bitset seen-set —
    "gather successors → mask out seen → extend frontier".  Tables of at
    least :data:`DENSE_NUMPY_MIN_EDGES` edges vectorize the sweep with
    numpy (fancy-indexed gather, boolean-mask seen filtering, dedup
    through a level-local marker bitset extracted with ``flatnonzero``
    — same sorted frontier as ``np.unique`` without its general sort);
    smaller ones, or any table without numpy, take the stdlib path,
    which fuses gather and mask into one loop over a ``bytearray``
    bitset.
    Holding products are *complete* (every
    reachable pair recorded, no flags): :meth:`run` re-derives the exact
    set-path counts.  Violating products keep a *partial* CSR whose
    violating pair is flagged; :meth:`run` then only answers "violated"
    and the caller reruns the traced twin, so counterexamples and
    violation counts are byte-identical by construction.

    ``node_keys`` starts in the builder's engine-local packed encoding
    and is re-digited to the process-stable codec-bits encoding
    (:meth:`repro.tm.compiled.CompiledTM.stable_of_node`) on first
    :meth:`save_warm` — both encodings biject with TM nodes, so the
    distinct counts are unchanged.  Persisted payloads (one per
    ``(algorithm, n, k, property, side)``; see
    :meth:`repro.tm.compiled.CompiledTM.dense_csr`) let a warm process
    run the whole product BFS without touching the row memos at all.

    The vectors follow the typed-width policy of :mod:`repro.cache`:
    recorded as int32 wherever the values provably fit (dense ids and
    offsets always do under :data:`DENSE_MAX_EDGES`; left keys when the
    node span is narrower than 32 bits), int64 otherwise, and a loaded
    table may hold either width — as ``array`` objects from the pickle
    backends or zero-copy ``memoryview`` casts from the mmap backend
    (the BFS indexes them identically; numpy wraps them with
    ``np.frombuffer`` at the loaded width).
    """

    __slots__ = (
        "span_bits",
        "stable_of_node",
        "cache_key",
        "node_keys",
        "spec_ids",
        "offsets",
        "targets",
        "flags",
        "num_init",
        "complete",
        "stable_keys",
        "restored",
        "disabled",
        "_dirty",
    )

    def __init__(
        self,
        span_bits: int,
        stable_of_node: Callable[[int], int],
        cache_key: Optional[tuple] = None,
    ) -> None:
        self.span_bits = span_bits
        self.stable_of_node = stable_of_node
        self.cache_key = cache_key
        self.reset()

    def reset(self) -> None:
        """Drop any recorded table (used before a rebuild and on the
        edge-budget bailout)."""
        self.node_keys: Optional[array] = None
        self.spec_ids: Optional[array] = None
        self.offsets: Optional[array] = None
        self.targets: Optional[array] = None
        self.flags: Tuple[int, ...] = ()
        self.num_init = 0
        self.complete = False
        #: Whether ``node_keys`` is in the codec-bits stable encoding
        #: (after a save/load) or the builder's engine-local packing.
        self.stable_keys = False
        #: Whether the table was restored by :meth:`load_warm`.
        self.restored = False
        self.disabled = False
        self._dirty = False

    @property
    def built(self) -> bool:
        return self.offsets is not None and not self.disabled

    def stats(self) -> Dict[str, int]:
        """Table sizes (for benchmarks and tests)."""
        if not self.built:
            return {"pairs": 0, "edges": 0, "complete": False}
        return {
            "pairs": len(self.node_keys),
            "edges": len(self.targets),
            "complete": self.complete,
        }

    def matches_init(
        self, init: Sequence[int], *, stable: bool = False
    ) -> bool:
        """Whether this table was recorded from exactly these initial
        packed nodes (right component 0, the canonical initial spec
        state, is enforced at record time).  ``stable=True`` passes them
        already in the stable encoding, which only a saved or loaded
        table can match — so a warm caller can ask before interning
        anything."""
        if not self.built or self.num_init != len(init):
            return False
        keys = self.node_keys
        if stable:
            if not self.stable_keys:
                return False
        elif self.stable_keys:
            stable_of = self.stable_of_node
            init = [stable_of(p) for p in init]
        return all(keys[i] == p for i, p in enumerate(init))

    # ------------------------------------------------------------------
    # The array-only BFS
    # ------------------------------------------------------------------

    def run(self) -> Tuple[bool, int, int, int]:
        """Replay the product BFS over the recorded arrays.

        Returns ``(violated, pairs, states_seen, spec_states_seen)``
        with the holding-case counts equal to the set-based path's: the
        replay visits exactly the reachable pair set, and all three
        counts are functions of that set alone (its size and its
        distinct left and right components).  A violated result carries
        no counts — the caller reruns the traced twin.
        """
        np = _numpy_for(len(self.targets))
        if np is not None:
            return self._run_numpy(np)
        return self._run_python()

    def _run_python(self) -> Tuple[bool, int, int, int]:
        offsets = self.offsets
        targets = self.targets
        npairs = len(self.node_keys)
        seen = bytearray(npairs)  # the bitset seen-set (one byte per id)
        frontier = list(range(self.num_init))
        flagged = None
        if self.flags:
            flagged = bytearray(npairs)
            for f in self.flags:
                flagged[f] = 1
            if any(flagged[i] for i in frontier):
                return True, 0, 0, 0
        for i in frontier:
            seen[i] = 1
        pairs = len(frontier)
        while frontier:
            nxt: List[int] = []
            append = nxt.append
            # Gather + mask fused: slice the CSR row, drop already-seen
            # ids via the bitset (which also dedups within the batch).
            for p in frontier:
                for s in targets[offsets[p] : offsets[p + 1]]:
                    if not seen[s]:
                        seen[s] = 1
                        append(s)
            if flagged is not None and any(flagged[s] for s in nxt):
                return True, 0, 0, 0
            pairs += len(nxt)
            frontier = nxt
        states_seen, spec_seen = self._distinct_counts_python(seen)
        return False, pairs, states_seen, spec_seen

    def _distinct_counts_python(
        self, seen: bytearray
    ) -> Tuple[int, int]:
        if self.complete:  # seen covers every recorded pair
            return len(set(self.node_keys)), len(set(self.spec_ids))
        node_keys = self.node_keys  # pragma: no cover - partial CSRs
        spec_ids = self.spec_ids  # always flag a reachable violation
        lefts = {node_keys[i] for i, b in enumerate(seen) if b}
        rights = {spec_ids[i] for i, b in enumerate(seen) if b}
        return len(lefts), len(rights)

    def _run_numpy(self, np) -> Tuple[bool, int, int, int]:
        offsets = _np_vec(np, self.offsets)
        targets = _np_vec(np, self.targets)
        npairs = len(self.node_keys)
        seen = np.zeros(npairs, dtype=bool)
        frontier = np.arange(self.num_init, dtype=np.int64)
        flagged = None
        if self.flags:
            flagged = np.zeros(npairs, dtype=bool)
            flagged[list(self.flags)] = True
            if flagged[frontier].any():
                return True, 0, 0, 0
        seen[frontier] = True
        pairs = int(frontier.size)
        arange = np.arange
        repeat = np.repeat
        marker = np.zeros(npairs, dtype=bool)  # level-local dedup bitset
        while frontier.size:
            # Gather: one fancy-indexed pull of every successor of the
            # level (the arange/repeat pattern expands the CSR slices).
            starts = offsets[frontier]
            counts = offsets[frontier + 1] - starts
            total = int(counts.sum())
            if not total:
                break
            shift = np.cumsum(counts) - counts
            succ = targets[
                arange(total, dtype=np.int64) + repeat(starts - shift, counts)
            ]
            cand = succ[~seen[succ]]  # mask out seen (dups remain)
            if not cand.size:
                break
            # Dedup through the bitset: mark candidates, extract the set
            # bits in sorted id order, clear for the next level.  (A
            # sort-based ``np.unique`` gives the identical frontier but
            # pays an O(E log E) sort where the bitset pays O(P).)
            marker[cand] = True
            fresh = np.flatnonzero(marker)
            marker[fresh] = False
            if flagged is not None and flagged[fresh].any():
                return True, 0, 0, 0
            seen[fresh] = True
            pairs += int(fresh.size)
            frontier = fresh
        if self.complete:
            states_seen = _np_distinct(np, self.node_keys)
            spec_seen = _np_distinct(np, self.spec_ids)
        else:  # pragma: no cover - partial CSRs always flag a violation
            states_seen, spec_seen = self._distinct_counts_python(
                bytearray(seen.tobytes())
            )
        return False, pairs, states_seen, spec_seen

    # ------------------------------------------------------------------
    # Warm-start persistence
    # ------------------------------------------------------------------

    def save_warm(self, cache_dir: str) -> bool:
        """Spill the table to ``cache_dir`` (no-op unless newly recorded
        since the last save/load).  ``node_keys`` is re-digited to the
        stable encoding first, in place — an idempotent, count-preserving
        relabeling."""
        if self.cache_key is None or not self._dirty or not self.built:
            return False
        if not self.stable_keys:
            stable = self.stable_of_node
            self.node_keys = narrow_int_vector(
                stable(p) for p in self.node_keys
            )
            self.stable_keys = True
        ok = save_payload(
            cache_dir,
            self.cache_key,
            {
                "span_bits": self.span_bits,
                "num_init": self.num_init,
                "complete": self.complete,
                "flags": list(self.flags),
                "node_keys": self.node_keys,
                "spec_ids": self.spec_ids,
                "offsets": self.offsets,
                "targets": self.targets,
            },
        )
        if ok:
            self._dirty = False
        return ok

    def load_warm(self, cache_dir: str) -> bool:
        """Restore a table from ``cache_dir`` into a *fresh* (nothing
        recorded) CSR.  Malformed payloads are rejected wholesale;
        returns True iff the table was restored.

        Validation is structural — array types, a monotone offset
        vector, every target/flag id in range, initial pairs on spec
        state 0, left keys within the node span (vectorized through numpy
        on tables of at least :data:`DENSE_NUMPY_MIN_EDGES` edges).  Keys
        are *not* re-decoded against the view codec: an
        in-range forged key can only perturb the two distinct-component
        counts, the same trust already extended to ``spec_ids``.
        """
        if self.cache_key is None or self.built or self._dirty:
            return False
        data = load_payload(cache_dir, self.cache_key)
        if not isinstance(data, dict):
            return False
        node_keys = data.get("node_keys")
        spec_ids = data.get("spec_ids")
        offsets = data.get("offsets")
        targets = data.get("targets")
        flags = data.get("flags")
        num_init = data.get("num_init")
        complete = data.get("complete")
        if (
            data.get("span_bits") != self.span_bits
            or not isinstance(num_init, int)
            or not isinstance(complete, bool)
            or not isinstance(flags, list)
            or not all(
                is_int_vector(a)
                for a in (node_keys, spec_ids, offsets, targets)
            )
        ):
            return False
        npairs = len(node_keys)
        if (
            not npairs
            or len(spec_ids) != npairs
            or len(offsets) != npairs + 1
            or not 0 < num_init <= npairs
            or (complete and flags)
            or (not complete and not flags)
            or offsets[0] != 0
            or offsets[-1] != len(targets)
        ):
            return False
        if not all(
            isinstance(f, int) and 0 <= f < npairs for f in flags
        ):
            return False
        if any(spec_ids[i] for i in range(num_init)):
            return False
        span = 1 << self.span_bits
        np = _numpy_for(len(targets))
        if np is not None:
            o = _np_vec(np, offsets)
            t = _np_vec(np, targets)
            k = _np_vec(np, node_keys)
            if (np.diff(o) < 0).any():
                return False
            if t.size and not (
                (t >= 0).all() and (t < npairs).all()
            ):
                return False
            if not ((k >= 0).all() and (k < span).all()):
                return False
        else:
            # The same three tests at C speed: a mapped pairwise
            # comparison and builtin max, no per-element bytecode.
            if not all(map(le, offsets, offsets[1:])):
                return False
            if not _all_below(targets, npairs):
                return False
            if not _all_below(node_keys, span):
                return False
        self.node_keys = node_keys
        self.spec_ids = spec_ids
        self.offsets = offsets
        self.targets = targets
        self.flags = tuple(flags)
        self.num_init = num_init
        self.complete = complete
        self.stable_keys = True
        self.restored = True
        self._dirty = False
        return True


class DenseAdjacency(NamedTuple):
    """CSR adjacency of a labeled transition system over dense node ids.

    The liveness side of the dense layer: nodes are interned in BFS
    discovery order (``nodes[i]`` is the packed node of dense id ``i``),
    ``targets[offsets[i]:offsets[i+1]]`` are the dense ids of node
    ``i``'s successors in exact row order, and ``labels`` holds — per
    edge, aligned with ``targets`` — an index into ``label_table``
    (``(thread_index, ext, resp)`` triples, interned).  Built by
    :meth:`repro.tm.compiled.CompiledTM.dense_node_adjacency` from the
    memoized node rows; consumed by
    :func:`repro.tm.explore.build_liveness_graph`.
    """

    nodes: List[int]
    offsets: array
    targets: array
    labels: array
    label_table: List[Tuple]


def product_packed(
    row_fn: RowFn,
    initial: Iterable[int],
    spec_rows: Sequence[Sequence[int]],
    *,
    fill: Optional[Callable[[int, int], int]] = None,
    node_span: int,
    row_map: Optional[Dict[int, Tuple]] = None,
    max_states: Optional[int] = None,
    dense: Optional[DenseCSR] = None,
    profile: Optional[Dict[str, float]] = None,
):
    """Product reachability over packed left states and an int-indexed
    deterministic specification: the all-int hot path of the safety
    pipeline.

    ``row_fn(packed_state)`` returns ``((sym_id, succs), ...)`` rows
    (``CompiledTM.safety_row_ids``): symbols in first-occurrence order,
    negative ids for ε-moves, ``succs`` a bare packed int for singleton
    groups or a tuple deduplicated and ordered exactly as
    :class:`_LazyLeft` would have produced it.  ``row_map``, when given,
    is the memo dict behind ``row_fn``, probed directly to skip a Python
    call per pop on warm rows.

    ``spec_rows[spec_id][sym_id]`` is the successor spec state, ``-1``
    for the rejecting sink, or ``-2`` for a cell not yet evaluated —
    which ``fill(spec_id, sym_id)`` evaluates, memoizes into
    ``spec_rows`` and returns.  State 0 is initial.  The two spec sides
    of the safety pipeline are the same table at different fill levels:
    the compiled spec oracle (:class:`repro.spec.compiled.
    CompiledSpecOracle`, ``fill=oracle.fill``) grows its rows on demand,
    while a materialized specification (:class:`repro.spec.compiled.
    CompiledSpecDFA`, or :func:`repro.spec.build.interned_spec_rows`
    over a caller's DFA) is complete, so ``fill`` never runs.

    ``node_span`` is a power-of-two exclusive bound on packed left states
    (``CompiledTM.node_span``), so product pairs encode as ``spec_id <<
    span_bits | packed_state``: one machine-word key.

    Returns ``(holds, counterexample_sym_ids, discovered_pairs,
    states_seen, spec_states_seen)`` — the counterexample is a tuple of
    statement *ids*.  ``initial`` must already be in the naive path's
    order (duplicates are dropped, first occurrence wins);
    ``states_seen`` counts distinct left states discovered (successors
    of every expanded state included) and ``spec_states_seen`` the
    distinct right components of the discovered pairs.  Every output is
    byte-identical to the naive :func:`lazy_product_dfa` /
    :func:`lazy_product_oracle` on the same automata.

    The traversal is *untraced* — a plain seen-set and insertion-order
    list, no parent back-pointers, which is measurably cheaper on the
    holding cells where the whole product is visited.  A violation
    reruns the traced twin (:func:`_product_packed_traced`) with a
    parent map to reconstruct the word; every row/spec query it needs is
    already memoized, so its cost is a fraction of the first pass.
    NOTE: the three bodies (untraced, traced, dense-recording) are
    intentionally parallel; any change to violation handling, ε-moves or
    the ``max_states`` message must be mirrored across all three (the
    conformance matrix in ``tests/checking/test_conformance_matrix.py``
    pins their byte-identity against the naive path).

    A ``dense`` :class:`DenseCSR` (only without a ``max_states`` bound)
    engages the dense kernel: an already-recorded table replays as the
    array-only bitset BFS; an empty one is recorded as a by-product of
    the untraced pass.  ``profile``, when given, accumulates the traced
    rerun's time under ``"trace_rerun_s"``.
    """
    init = list(dict.fromkeys(initial))
    if max_states is not None and len(init) > max_states:
        raise RuntimeError(
            f"state-space exploration exceeded {max_states}"
            f" states (at {max_states + 1})"
        )
    assert node_span & (node_span - 1) == 0, "node_span must be 2**b"

    def rerun_traced():
        t0 = perf_counter()
        out = _product_packed_traced(
            row_fn,
            init,
            spec_rows,
            fill=fill,
            node_span=node_span,
            row_map=row_map,
            max_states=max_states,
        )
        if profile is not None:
            profile["trace_rerun_s"] = (
                profile.get("trace_rerun_s", 0.0) + perf_counter() - t0
            )
        return out

    if dense is not None and max_states is None and not dense.disabled:
        if dense.built and dense.matches_init(init):
            violated, pairs, states_seen, spec_seen = dense.run()
            if not violated:
                return True, None, pairs, states_seen, spec_seen
            return rerun_traced()
        res = _product_packed_dense(
            row_fn,
            init,
            spec_rows,
            fill=fill,
            node_span=node_span,
            row_map=row_map,
            dense=dense,
        )
        if res is not None:
            return res
        return rerun_traced()
    discovered = set(init)
    expanded = set()
    rows_get = (row_map or {}).get
    span_bits = node_span.bit_length() - 1
    span_mask = node_span - 1

    # The initial spec state has id 0, so the start pairs are the packed
    # nodes themselves.
    seen = set(init)
    order = list(init)
    add = seen.add
    append = order.append
    i = 0
    while i < len(order):
        pair = order[i]
        i += 1
        nq = pair & span_mask
        dq = pair >> span_bits
        row = rows_get(nq)
        if row is None:
            row = row_fn(nq)
        if nq not in expanded:
            expanded.add(nq)
            _discover_row_ids(row, discovered, max_states)
        brow = spec_rows[dq]
        for symbol, succs in row:
            if symbol < 0:  # ε: advance the TM component only
                base = pair - nq
            else:
                dsucc = brow[symbol]
                if dsucc == -2:  # unqueried: ask the oracle once, ever
                    dsucc = fill(dq, symbol)
                if dsucc == -1:  # sink: rerun traced for the word
                    return rerun_traced()
                base = dsucc << span_bits
            if type(succs) is int:  # singleton group (the common case)
                nxt = base + succs
                if nxt not in seen:
                    add(nxt)
                    append(nxt)
            else:
                for s in succs:
                    nxt = base + s
                    if nxt not in seen:
                        add(nxt)
                        append(nxt)
    spec_seen = len({p >> span_bits for p in seen})
    return True, None, len(seen), len(discovered), spec_seen


def _product_packed_traced(
    row_fn: RowFn,
    init: List[int],
    spec_rows: Sequence[Sequence[int]],
    *,
    fill: Optional[Callable[[int, int], int]],
    node_span: int,
    row_map: Optional[Dict[int, Tuple]],
    max_states: Optional[int],
):
    """The parent-map twin of :func:`product_packed`, run when a
    violation needs its counterexample reconstructed.  Must visit pairs
    in the identical order (see the NOTE there)."""
    discovered = set(init)
    expanded = set()
    rows_get = (row_map or {}).get
    span_bits = node_span.bit_length() - 1
    span_mask = node_span - 1

    parent: ParentMap = {pair: None for pair in init}
    queue = deque(init)
    pop = queue.popleft
    push = queue.append
    while queue:
        pair = pop()
        nq = pair & span_mask
        dq = pair >> span_bits
        row = rows_get(nq)
        if row is None:
            row = row_fn(nq)
        if nq not in expanded:
            expanded.add(nq)
            _discover_row_ids(row, discovered, max_states)
        brow = spec_rows[dq]
        for symbol, succs in row:
            if symbol < 0:  # ε: advance the TM component only
                base = pair - nq
                label = None
            else:
                dsucc = brow[symbol]
                if dsucc == -2:
                    dsucc = fill(dq, symbol)
                if dsucc == -1:  # sink
                    word = reconstruct(parent, pair) + (symbol,)
                    spec_seen = len({p >> span_bits for p in parent})
                    return (
                        False,
                        word,
                        len(parent),
                        len(discovered),
                        spec_seen,
                    )
                base = dsucc << span_bits
                label = symbol
            for succ in (succs,) if type(succs) is int else succs:
                nxt = base + succ
                if nxt not in parent:
                    parent[nxt] = (pair, label)
                    push(nxt)
    raise AssertionError(
        "traced rerun found no violation after the untraced pass did"
    )


def _product_packed_dense(
    row_fn: RowFn,
    init: List[int],
    spec_rows: Sequence[Sequence[int]],
    *,
    fill: Optional[Callable[[int, int], int]],
    node_span: int,
    row_map: Optional[Dict[int, Tuple]],
    dense: DenseCSR,
):
    """The untraced pass of :func:`product_packed`, recording a
    :class:`DenseCSR` as it goes.

    Pairs are interned into dense ids in discovery order (the insertion-
    order ``order`` list of the set path *is* the id assignment) and
    every emitted successor — fresh or already seen — is appended to the
    CSR row, so the recorded table is the product's full adjacency in
    the exact emission order.  Returns the holds-tuple, or ``None`` on a
    violation: the violating pair is flagged in the (partial) table and
    the caller reruns the traced twin.  Beyond :data:`DENSE_MAX_EDGES`
    recorded entries the recorder bails out (``dense.disabled``) and the
    pass continues with plain set semantics — byte-identical results, no
    array fast path.

    Recording costs the cold pass ~15-35% over the bare set loop on the
    largest cells (appends + dense-id interning), bought back many
    times over by every replay; one-shot cold runs can opt out with
    ``dense_kernel=False``.
    """
    rows_get = (row_map or {}).get
    span_bits = node_span.bit_length() - 1
    span_mask = node_span - 1

    ids: Dict[int, int] = {}
    order: List[int] = []
    # Typed-width policy, chosen up front (no per-append try/except):
    # dense ids and offsets are bounded by DENSE_MAX_EDGES < 2**31 so
    # always int32; left keys need the node span's width.
    node_keys = array("i" if span_bits < 32 else "q")
    spec_ids = array("i")
    offsets = array("i", (0,))
    targets = array("i")
    tappend = targets.append
    for p in init:
        ids[p] = len(order)
        order.append(p)
        node_keys.append(p & span_mask)
        spec_ids.append(0)
    recording = True
    violated_at = -1
    i = 0
    while i < len(order):
        pair = order[i]
        nq = pair & span_mask
        dq = pair >> span_bits
        row = rows_get(nq)
        if row is None:
            row = row_fn(nq)
        brow = spec_rows[dq]
        for symbol, succs in row:
            if symbol < 0:  # ε: advance the TM component only
                base = pair - nq
                sbase = dq
            else:
                dsucc = brow[symbol]
                if dsucc == -2:  # unqueried: ask the oracle once, ever
                    dsucc = fill(dq, symbol)
                if dsucc == -1:  # sink
                    violated_at = i
                    break
                base = dsucc << span_bits
                sbase = dsucc
            for s in (succs,) if type(succs) is int else succs:
                nxt = base + s
                sid = ids.get(nxt)
                if sid is None:
                    sid = ids[nxt] = len(order)
                    order.append(nxt)
                    if recording:
                        node_keys.append(s)
                        spec_ids.append(sbase)
                if recording:
                    tappend(sid)
        if violated_at >= 0:
            break
        if recording and len(targets) > DENSE_MAX_EDGES:
            recording = False
            node_keys = spec_ids = offsets = targets = None
            dense.reset()
            dense.disabled = True
        if recording:
            offsets.append(len(targets))
        i += 1
    if recording:
        npairs = len(order)
        if violated_at >= 0:  # close the aborted row, pad the unexpanded
            offsets.append(len(targets))
            offsets.extend([len(targets)] * (npairs + 1 - len(offsets)))
        dense.node_keys = node_keys
        dense.spec_ids = spec_ids
        dense.offsets = offsets
        dense.targets = targets
        dense.flags = (violated_at,) if violated_at >= 0 else ()
        dense.num_init = len(init)
        dense.complete = violated_at < 0
        dense.stable_keys = False
        dense.restored = False
        dense._dirty = True
    if violated_at >= 0:
        return None
    if recording:
        states_seen = len(set(node_keys))
        spec_seen = len(set(spec_ids))
    else:
        states_seen = len({p & span_mask for p in ids})
        spec_seen = len({p >> span_bits for p in ids})
    return True, None, len(order), states_seen, spec_seen


def _run_product_dfa(left, initial: List[Hashable], dfa: DFA):
    """Shared BFS of the streamed-left × DFA product."""
    ib = intern_dfa(dfa)
    b_delta = ib.delta
    nb = ib.n

    row_of = left.row_of
    start_states = [left.visit(q) for q in initial]
    start = [q * nb + ib.initial for q in start_states]
    parent: ParentMap = {pair: None for pair in start}
    queue = deque(start)
    pop = queue.popleft
    push = queue.append
    while queue:
        pair = pop()
        nq, dq = divmod(pair, nb)
        brow = b_delta[dq]
        for symbol, succs in row_of(nq):
            if symbol is None:
                for succ in succs:
                    nxt = succ * nb + dq
                    if nxt not in parent:
                        parent[nxt] = (pair, None)
                        push(nxt)
                continue
            dsucc = brow.get(symbol)
            if dsucc is None:
                word = reconstruct(parent, pair) + (symbol,)
                return False, word, len(parent), len(left.index)
            for succ in succs:
                nxt = succ * nb + dsucc
                if nxt not in parent:
                    parent[nxt] = (pair, symbol)
                    push(nxt)
    return True, None, len(parent), len(left.index)


def lazy_product_dfa(
    initial: Iterable[Hashable],
    step: StepFn,
    dfa: DFA,
    *,
    max_states: Optional[int] = None,
):
    """On-the-fly product reachability of a streamed ε-NFA against ``dfa``.

    ``step(q)`` yields ``(symbol, successor)`` pairs with ``EPSILON`` for
    internal moves — the same contract as ``NFA.from_step`` — but no NFA
    is ever materialized (see :class:`_LazyLeft`).

    Returns ``(holds, counterexample, discovered_pairs, states_seen)``
    where ``states_seen`` counts distinct left states *discovered*
    (successors of every expanded state included, even after an early
    violation) — when inclusion holds this equals the full reachable
    state count of the streamed automaton.
    """
    left = _LazyLeft(step, max_states)
    return _run_product_dfa(left, sorted(set(initial), key=repr), dfa)


DetStepFn = Callable[[Hashable, Hashable], Optional[Hashable]]

_SINK = object()  # cached "no transition" marker in lazy spec rows


def lazy_product_oracle(
    initial: Iterable[Hashable],
    step: StepFn,
    spec_initial: Hashable,
    spec_step: DetStepFn,
    *,
    max_states: Optional[int] = None,
):
    """Fully lazy product: streamed ε-NFA against a *deterministic oracle*.

    Like :func:`lazy_product_dfa`, but the right-hand side is given by
    its transition function ``spec_step(state, symbol) -> state | None``
    instead of a materialized DFA — nothing on either side is built up
    front, so the check is bounded by the *product* reachable set, not
    by the (possibly astronomically larger) full specification.  Spec
    states are interned on first sight and each (state, symbol) query is
    evaluated at most once.

    Returns ``(holds, counterexample, discovered_pairs, states_seen,
    spec_states_seen)``.
    """
    left = _LazyLeft(step, max_states)
    return _run_product_oracle(
        left, sorted(set(initial), key=repr), spec_initial, spec_step
    )


def _run_product_oracle(
    left,
    initial: List[Hashable],
    spec_initial: Hashable,
    spec_step: DetStepFn,
):
    """Shared BFS of the streamed-left × deterministic-oracle product."""
    row_of = left.row_of

    b_index: Dict[Hashable, int] = {spec_initial: 0}
    b_states: List[Hashable] = [spec_initial]
    b_rows: List[Dict[Symbol, object]] = [{}]

    # Pairs are (left index, spec index) tuples: the spec side grows
    # on demand, so no fixed-width encoding is available.
    start = [(left.visit(q), 0) for q in initial]
    parent: Dict[Tuple[int, int], Optional[Tuple]] = {
        pair: None for pair in start
    }
    queue = deque(start)
    pop = queue.popleft
    push = queue.append
    while queue:
        pair = pop()
        nq, dq = pair
        brow = b_rows[dq]
        for symbol, succs in row_of(nq):
            if symbol is None:
                for succ in succs:
                    nxt = (succ, dq)
                    if nxt not in parent:
                        parent[nxt] = (pair, None)
                        push(nxt)
                continue
            dsucc = brow.get(symbol)
            if dsucc is None:  # not yet queried: ask the oracle once
                target = spec_step(b_states[dq], symbol)
                if target is None:
                    dsucc = brow[symbol] = _SINK
                else:
                    didx = b_index.get(target)
                    if didx is None:
                        didx = b_index[target] = len(b_states)
                        b_states.append(target)
                        b_rows.append({})
                    dsucc = brow[symbol] = didx
            if dsucc is _SINK:
                word = reconstruct(parent, pair) + (symbol,)
                return False, word, len(parent), len(left.index), len(b_index)
            for succ in succs:
                nxt = (succ, dsucc)
                if nxt not in parent:
                    parent[nxt] = (pair, symbol)
                    push(nxt)
    return True, None, len(parent), len(left.index), len(b_index)
