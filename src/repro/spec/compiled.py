"""Compiled deterministic-spec oracle: packed states, memoized rows.

The lazy-spec safety path (``check_safety(..., lazy_spec=True)``) streams
the specification through :func:`repro.spec.det.det_step`, which thaws a
tuple-of-frozensets state, mutates lists, and refreezes on every query —
with the TM side compiled to packed ints (PR 2), this pure-Python rich
stepping is the bottleneck of the large lazy-spec runs.  This module
compiles the spec side the same way the TM side was compiled:

* **packed states** — a whole Algorithm 6 state is one int, with one
  fixed-width record per thread: status (2 bits), the sticky ``doomed``
  flag (1 bit), the ``rs``/``ws``/``prs``/``pws`` variable sets as
  ``k``-bit masks and the ``wp``/``sp`` predecessor sets as ``n``-bit
  masks.  Set algebra becomes mask algebra; no frozensets, no hashing of
  nested tuples;
* **integer statement ids** — statements are indexed by their position
  in :func:`repro.core.statements.statements`, so transition rows are
  flat lists indexed by statement id instead of dicts keyed by rich
  :class:`~repro.core.statements.Statement` tuples (whose enum-bearing
  hashes dominated the product BFS);
* **memoized rows** — each ``(state, statement)`` query is evaluated at
  most once per :class:`CompiledSpecOracle`, and oracles are shared
  process-wide via :func:`cached_spec_oracle` (mirroring
  :func:`repro.spec.build.cached_det_spec`), so repeated checks — the
  two Table 2 properties, benchmark rounds — replay memoized rows
  instead of re-deriving Algorithm 6;
* **warm starts** — the interned state table and memoized rows are pure
  ints, so they spill to the versioned on-disk cache
  (:mod:`repro.cache`) and repeated CLI invocations start warm;
* **dense rows** — transition rows live in flat typed vectors
  (``array('i')`` under the typed-width policy of :mod:`repro.cache`,
  int64 only on overflow; one machine word per ``(state, statement)``
  cell) rather than Python lists: the dense kernel's storage
  discipline, which shrinks the resident tables, makes the persisted
  payloads raw machine words — servable zero-copy by the mmap cache
  backend — and keeps row indexing a C-level operation.

The packed stepper is *exact*: :func:`make_packed_step` mirrors
:func:`~repro.spec.det.det_step` statement for statement (the packing is
a bijection on states, pinned by exhaustive differentials over the
reachable state spaces in ``tests/spec/``), so the
product BFS over the compiled oracle is byte-identical to the rich path.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

from ..cache import (
    int_vector_typecode,
    is_int_vector,
    load_payload,
    narrow_int_vector,
    save_payload,
)
from ..core.statements import Kind, Statement, statements as all_statements
from .common import FINISHED, PENDING, STARTED, OP, SafetyProperty
from .det import DetSpecState

#: Row sentinels: ``UNQUERIED`` marks a (state, statement) pair never
#: evaluated; ``SINK`` caches a rejection (``det_step`` returned None).
UNQUERIED = -2
SINK = -1

#: Status codes of the packed record (2 bits).  Algorithm 6 uses only
#: these three statuses; "finished" is 0 so the reset record is 0 and
#: the initial state packs to the integer 0.
_STATUS_CODE = {FINISHED: 0, STARTED: 1, PENDING: 2}
_STATUS_OF_CODE = (FINISHED, STARTED, PENDING)

_DOOMED = 4  # bit 2 of a record


def _layout(n: int, k: int) -> Tuple[int, ...]:
    """Bit offsets of the packed per-thread record.

    Layout (LSB first): status (2) | doomed (1) | rs (k) | ws (k) |
    prs (k) | pws (k) | wp (n) | sp (n).
    """
    s_rs = 3
    s_ws = s_rs + k
    s_prs = s_ws + k
    s_pws = s_prs + k
    s_wp = s_pws + k
    s_sp = s_wp + n
    width = s_sp + n
    return s_rs, s_ws, s_prs, s_pws, s_wp, s_sp, width


def pack_spec_state(state: DetSpecState, n: int, k: int) -> int:
    """The packed int of a rich Algorithm 6 state (a bijection)."""
    s_rs, _s_ws, _s_prs, _s_pws, s_wp, _s_sp, width = _layout(n, k)
    del s_rs, s_wp
    packed = 0
    for i, rec in enumerate(state):
        status, doomed, rs, ws, prs, pws, wp, sp = rec
        bits = _STATUS_CODE[status]
        if doomed:
            bits |= _DOOMED
        shift = 3
        for vars_ in (rs, ws, prs, pws):
            for v in vars_:
                bits |= 1 << (shift + v - 1)
            shift += k
        for threads in (wp, sp):
            for t in threads:
                bits |= 1 << (shift + t - 1)
            shift += n
        packed |= bits << (width * i)
    return packed


def unpack_spec_state(packed: int, n: int, k: int) -> DetSpecState:
    """Inverse of :func:`pack_spec_state`."""
    _s_rs, _s_ws, _s_prs, _s_pws, _s_wp, _s_sp, width = _layout(n, k)
    rmask = (1 << width) - 1
    out = []
    for i in range(n):
        bits = (packed >> (width * i)) & rmask
        status = _STATUS_OF_CODE[bits & 3]
        doomed = bool(bits & _DOOMED)
        shift = 3
        sets: List[frozenset] = []
        for size in (k, k, k, k, n, n):
            mask = (bits >> shift) & ((1 << size) - 1)
            members = []
            m, x = mask, 1
            while m:
                if m & 1:
                    members.append(x)
                m >>= 1
                x += 1
            sets.append(frozenset(members))
            shift += size
        out.append((status, doomed, *sets))
    return tuple(out)  # type: ignore[return-value]


# Statement opcodes for the packed stepper's dispatch.
_OP_READ, _OP_WRITE, _OP_COMMIT, _OP_ABORT = 0, 1, 2, 3
_OP_OF_KIND = {
    Kind.READ: _OP_READ,
    Kind.WRITE: _OP_WRITE,
    Kind.COMMIT: _OP_COMMIT,
    Kind.ABORT: _OP_ABORT,
}


def statement_table(n: int, k: int) -> Tuple[Statement, ...]:
    """The canonical statement-id table: ``statement_table(n, k)[i]`` is
    the statement with id ``i``.  This is exactly
    :func:`repro.core.statements.statements` — statement ids are shared
    between the compiled TM engine and the compiled spec oracle."""
    return all_statements(n, k, include_abort=True)


def make_packed_step(
    n: int, k: int, prop: SafetyProperty
) -> Callable[[int, int], Optional[int]]:
    """``det_step`` compiled to mask algebra over packed states.

    Returns ``step(packed_state, statement_id) -> packed_state | None``
    with semantics identical to
    ``det_step(state, statement, prop)`` under the
    :func:`pack_spec_state` bijection.  The body mirrors
    :func:`repro.spec.det.det_step` line for line; see that module for
    the algorithmic commentary.
    """
    s_rs, s_ws, s_prs, s_pws, s_wp, s_sp, width = _layout(n, k)
    nmask = (1 << n) - 1
    kmask = (1 << k) - 1
    rmask = (1 << width) - 1
    op_mode = prop is OP
    rng = tuple(range(n))
    shifts = tuple(width * i for i in rng)

    # Per-statement-id dispatch parameters: (opcode, thread index, var bit).
    params: List[Tuple[int, int, int]] = []
    for stmt in statement_table(n, k):
        vb = 0 if stmt.var is None else 1 << (stmt.var - 1)
        params.append((_OP_OF_KIND[stmt.kind], stmt.thread - 1, vb))
    params_t = tuple(params)

    def _start_if_finished(q: List[int], ti: int) -> None:
        if q[ti] & 3:
            return  # already started or pending
        pending_mask = 0
        pending_preds = 0
        for j in rng:
            if (q[j] & 3) == 2:
                pending_mask |= 1 << j
                pending_preds |= (q[j] >> s_sp) & nmask
        q[ti] = (
            (q[ti] | (pending_mask << s_wp))
            | ((pending_mask | pending_preds) << s_sp)
        ) | 1  # status := started (from finished = 0)

    def _reset_thread(q: List[int], ti: int) -> None:
        q[ti] = 0
        clear = ~(((1 << ti) << s_wp) | ((1 << ti) << s_sp))
        for j in rng:
            if j != ti:
                q[j] &= clear

    def step(state: int, sym: int) -> Optional[int]:
        opcode, ti, vb = params_t[sym]
        q = [(state >> sh) & rmask for sh in shifts]
        tb = 1 << ti

        if opcode == _OP_READ:
            if (q[ti] >> s_ws) & vb:
                return state  # local read of an own write
            if op_mode:
                # Threads forced strongly before t by this read: those
                # prohibited from reading v, plus their strong preds.
                strong_new = 0
                for j in rng:
                    if (q[j] >> s_prs) & vb:
                        strong_new |= (1 << j) | ((q[j] >> s_sp) & nmask)
                if strong_new & tb:
                    return None  # reading v closes a strong cycle
            _start_if_finished(q, ti)
            q[ti] |= vb << s_rs
            if (q[ti] >> s_prs) & vb:
                q[ti] |= _DOOMED
            wp_add = 0
            for j in rng:
                if (q[j] >> s_ws) & vb:
                    q[j] |= tb << s_wp
                if (q[j] >> s_prs) & vb:
                    wp_add |= 1 << j
            q[ti] |= wp_add << s_wp
            if op_mode:
                if strong_new:
                    sp_add = strong_new << s_sp
                    for j in rng:
                        if j == ti or ((q[j] >> s_sp) & tb):
                            q[j] |= sp_add
                sp_t = (q[ti] >> s_sp) & nmask
                j = 0
                while sp_t:
                    if sp_t & 1:
                        q[j] |= vb << s_pws
                        if (q[j] >> s_ws) & vb:
                            q[j] |= _DOOMED
                    sp_t >>= 1
                    j += 1

        elif opcode == _OP_WRITE:
            _start_if_finished(q, ti)
            q[ti] |= vb << s_ws
            if (q[ti] >> s_pws) & vb:
                q[ti] |= _DOOMED
            wp_add = 0
            doomed = 0
            for j in rng:
                if j == ti:
                    continue
                if (q[j] >> s_rs) & vb:
                    wp_add |= 1 << j
                    if op_mode and ((q[j] >> s_sp) & tb):
                        doomed = _DOOMED
                if (q[j] >> s_pws) & vb:
                    wp_add |= 1 << j
            q[ti] |= (wp_add << s_wp) | doomed

        elif opcode == _OP_COMMIT:
            rec = q[ti]
            wp_t = (rec >> s_wp) & nmask
            if wp_t & tb:
                return None  # a weak-predecessor cycle through t
            if rec & _DOOMED:
                return None
            strong = 0
            if op_mode:
                # Strong closure of the weak predecessors.
                strong = wp_t
                m, j = wp_t, 0
                while m:
                    if m & 1:
                        strong |= (q[j] >> s_sp) & nmask
                    m >>= 1
                    j += 1
                if strong & tb:
                    return None  # committing closes a strong cycle
            ws_t = (rec >> s_ws) & kmask
            rs_t = (rec >> s_rs) & kmask
            prs_t = (rec >> s_prs) & kmask
            pws_t = (rec >> s_pws) & kmask
            wp_targets = 0  # threads with t in wp, or a ww-conflict with t
            for j in rng:
                if (q[j] >> s_wp) & tb:
                    wp_targets |= 1 << j
                elif j != ti and ((q[j] >> s_ws) & kmask) & ws_t:
                    wp_targets |= 1 << j
            prs_add = (prs_t | ws_t) << s_prs
            pws_add = (pws_t | ws_t | rs_t) << s_pws
            m, j = wp_t, 0
            while m:
                if m & 1:
                    r = q[j]
                    if ((r >> s_ws) & kmask) & ws_t:
                        r |= _DOOMED
                    r = ((r & ~3) | 2) | prs_add | pws_add  # := pending
                    q[j] = r
                m >>= 1
                j += 1
            if wp_t:
                wp_add = wp_t << s_wp
                m, j = wp_targets, 0
                while m:
                    if m & 1:
                        q[j] |= wp_add
                    m >>= 1
                    j += 1
            if op_mode and strong:
                sp_add = strong << s_sp
                for j in rng:
                    if j == ti or ((q[j] >> s_sp) & tb):
                        q[j] |= sp_add
            _reset_thread(q, ti)

        else:  # abort
            _reset_thread(q, ti)

        packed = 0
        for i in rng:
            packed |= q[i] << shifts[i]
        return packed

    return step


def _cells_within(flat, low: int, high: int) -> bool:
    """Whether every cell of the int vector ``flat`` lies in ``[low,
    high)``.  A plain loop on purpose: over the 41k cells of the (2, 2)
    ss table it takes ~1.5 ms on CPython 3.11, against ~2.9 ms for
    builtin ``min`` plus ``max`` (the interpreter's specialized int
    compares beat the builtins' generic ones; the unsigned-view ``max``
    the dense kernel uses cannot admit the negative sink)."""
    for cell in flat:
        if not low <= cell < high:
            return False
    return True


def flatten_spec_rows(rows) -> array:
    """A complete spec table as one flat typed int vector — the encoding
    :meth:`CompiledSpecDFA.save_warm` persists and a supervised campaign
    cell ships back to its supervisor; :func:`restore_spec_rows` is the
    inverse.  Built ``array`` rows and the memoryview slices the mmap
    backend restores flatten alike, joined as raw machine words at the
    width the rows share (rows of mixed widths raise ``ValueError``)."""
    flat = array((int_vector_typecode(rows[0]) or "i") if rows else "i")
    flat.frombytes(b"".join(rows))
    if len(flat) != sum(map(len, rows)):
        raise ValueError("spec rows of mixed int widths")
    return flat


def restore_spec_rows(flat, num_states, num_symbols: int) -> Optional[Tuple]:
    """The per-state rows of a :func:`flatten_spec_rows` vector, or
    ``None`` when the table is malformed: ``flat`` not a typed int
    vector, ``num_states`` not a positive int, a length other than
    ``num_states * num_symbols``, or a cell outside ``[SINK,
    num_states)``.  Rows are read-only after
    :meth:`CompiledSpecDFA.ensure`, so slices of the flat vector suffice
    — under the mmap backend, zero-copy views into the page cache."""
    if (
        not is_int_vector(flat)
        or not isinstance(num_states, int)
        or num_states <= 0
        or len(flat) != num_states * num_symbols
        or not _cells_within(flat, SINK, num_states)
    ):
        return None
    ns = num_symbols
    return tuple(flat[i * ns : (i + 1) * ns] for i in range(num_states))


class CompiledSpecOracle:
    """Interned, memoized Algorithm 6 oracle over packed states.

    ``rows[state_id][statement_id]`` is the successor's dense state id,
    :data:`SINK` for a rejection, or :data:`UNQUERIED` — filled on
    demand by :meth:`fill`.  Rows are flat typed vectors — ``array('i')``
    under the typed-width policy of :mod:`repro.cache`, widened to
    ``array('q')`` per row on overflow.  State id 0 is always the
    initial state
    (which packs to the integer 0).  Construct via
    :func:`cached_spec_oracle` to share tables process-wide.
    """

    def __init__(self, n: int, k: int, prop: SafetyProperty) -> None:
        self.n = n
        self.k = k
        self.prop = prop
        self.symbols = statement_table(n, k)
        self.num_symbols = len(self.symbols)
        self.step_packed = make_packed_step(n, k, prop)
        self._ids = {0: 0}
        # Typed-width policy: rows start int32 (state ids, SINK and
        # UNQUERIED all fit) and individual rows widen to int64 in
        # :meth:`fill` in the (never yet observed) case of > 2**31 - 1
        # interned states.
        self._fresh_row = array("i", [UNQUERIED]) * self.num_symbols
        self.states: List[int] = [0]
        self.rows: List[array] = [array("i", self._fresh_row)]
        self._dirty = False

    #: Dense id of the initial state.
    initial_id = 0

    def step_id(self, state_id: int, sym: int) -> int:
        """Memoized dense-id transition; :data:`SINK` rejects."""
        succ = self.rows[state_id][sym]
        if succ == UNQUERIED:
            succ = self.fill(state_id, sym)
        return succ

    def fill(self, state_id: int, sym: int) -> int:
        """Evaluate and memoize one ``(state, statement)`` query."""
        target = self.step_packed(self.states[state_id], sym)
        succ = SINK if target is None else self.intern_packed(target)
        try:
            self.rows[state_id][sym] = succ
        except OverflowError:  # pragma: no cover - > 2**31 - 1 states
            self.rows[state_id] = row = array("q", self.rows[state_id])
            row[sym] = succ
        self._dirty = True
        return succ

    def intern_packed(self, packed: int) -> int:
        """The dense id of a packed state, interning it (with a fresh
        all-unqueried row) on first sight."""
        sid = self._ids.get(packed)
        if sid is None:
            sid = self._ids[packed] = len(self.states)
            self.states.append(packed)
            self.rows.append(array("i", self._fresh_row))
            self._dirty = True
        return sid

    def stats(self) -> dict:
        """Sizes of the intern/memo tables (for benchmarks and tests)."""
        filled = sum(
            1 for row in self.rows for cell in row if cell != UNQUERIED
        )
        return {"states": len(self.states), "filled_rows": filled}

    # ------------------------------------------------------------------
    # Warm-start persistence
    # ------------------------------------------------------------------

    def _cache_key(self) -> tuple:
        return ("spec-oracle", self.n, self.k, self.prop.value)

    def load_warm(self, cache_dir: str) -> bool:
        """Restore interned states and rows from ``cache_dir``.

        Only a *fresh* oracle (nothing interned beyond the initial
        state) is restored — merging differently-ordered tables is not
        supported.  Malformed payloads are rejected wholesale; returns
        True iff the oracle was warmed.
        """
        if len(self.states) > 1 or self._dirty:
            return False
        data = load_payload(cache_dir, self._cache_key())
        if not isinstance(data, dict):
            return False
        states = data.get("states")
        rows = data.get("rows")
        # Packed states usually persist as a typed int vector
        # (narrowed), but can exceed int64 on large (n, k) — a plain
        # list of Python ints is the declared fallback.
        if not (isinstance(states, list) or is_int_vector(states)):
            return False
        states = list(states)
        if not states or states[0] != 0:
            return False
        nstates = len(states)
        tc = int_vector_typecode(rows)
        if tc is None or len(rows) != nstates * self.num_symbols:
            return False
        for state in states:
            if not isinstance(state, int) or state < 0:
                return False
        if len(set(states)) != nstates:
            return False
        if not _cells_within(rows, UNQUERIED, nstates):
            return False
        ns = self.num_symbols
        # Copy each flat-row slice into a mutable per-state array —
        # :meth:`fill` writes into rows, so mmap-served views must not
        # be aliased here.
        self.states = states
        self.rows = [
            array(tc, rows[i * ns : (i + 1) * ns]) for i in range(nstates)
        ]
        self._ids = {state: i for i, state in enumerate(states)}
        self._dirty = False
        return True

    def save_warm(self, cache_dir: str) -> bool:
        """Spill the tables to ``cache_dir`` (no-op unless dirty).  Rows
        flatten into one typed int vector (int32 unless any row widened)
        — raw machine words on disk, sliced back on load; packed states
        narrow to the smallest width they fit (a plain list if even
        int64 overflows)."""
        if not self._dirty:
            return False
        tc = "q" if any(r.typecode == "q" for r in self.rows) else "i"
        flat = array(tc)
        for row in self.rows:
            flat.extend(row)
        try:
            states: object = narrow_int_vector(self.states)
        except OverflowError:  # beyond int64: pickle the plain ints
            states = list(self.states)
        ok = save_payload(
            cache_dir,
            self._cache_key(),
            {"states": states, "rows": flat},
        )
        if ok:
            self._dirty = False
        return ok


@lru_cache(maxsize=None)
def cached_spec_oracle(
    n: int, k: int, prop: SafetyProperty
) -> CompiledSpecOracle:
    """The process-wide shared oracle for ``(n, k, prop)`` — every check
    and benchmark round on the same instance replays one memo table."""
    return CompiledSpecOracle(n, k, prop)


def clear_spec_oracle_cache() -> None:
    """Drop all shared oracles (frees their interned tables)."""
    cached_spec_oracle.cache_clear()


class CompiledSpecDFA:
    """The *materialized* deterministic spec, compiled to int rows.

    The DFA-sided safety product (``check_safety(lazy_spec=False)``)
    would otherwise hash a rich :class:`~repro.core.statements.Statement`
    per transition against the spec DFA's delta dicts.  This class holds
    the same automaton as a complete int-indexed table —
    ``rows[state][sym_id]`` is the successor index or :data:`SINK`,
    state 0 initial, symbol ids the canonical statement ids shared with
    the compiled TM engine.  It is a :class:`CompiledSpecOracle` whose
    rows are all filled in (same sink encoding, no :data:`UNQUERIED`
    cell), so :func:`repro.automata.kernel.product_packed` consumes it
    exactly like the oracle, and never needs to fill a row.

    The table is built on demand (:meth:`ensure`) from a private build
    of the canonical specification via
    :func:`repro.spec.build.interned_spec_rows`, which frees the rich
    automaton before the product search starts; because it is pure
    ints, it also spills to the on-disk warm cache, and a warm-started
    process runs the DFA-sided check without ever materializing the rich
    DFA.  All observable product outputs are invariant under the state
    indexing (any bijection yields the same verdicts, counterexamples
    and counts), so disk-restored tables are interchangeable with
    freshly interned ones.  Construct via :func:`cached_spec_dfa`.
    """

    def __init__(self, n: int, k: int, prop: SafetyProperty) -> None:
        self.n = n
        self.k = k
        self.prop = prop
        self.symbols = statement_table(n, k)
        self.num_symbols = len(self.symbols)
        #: One flat typed int vector per state — ``array('i')`` when
        #: built, zero-copy slices of the persisted flat table when
        #: warm-loaded (memoryviews under the mmap backend).
        self.rows: Optional[Tuple] = None
        self._dirty = False
        #: States :meth:`ensure` interned in this process (0 while the
        #: table is absent, warm-loaded or installed).
        self.built_states = 0

    @property
    def num_states(self) -> int:
        assert self.rows is not None, "ensure() the table first"
        return len(self.rows)

    def ensure(self) -> "CompiledSpecDFA":
        """Build the table unless already built (or warm-loaded via
        :meth:`load_warm`); idempotent."""
        if self.rows is not None:
            return self
        from .build import interned_spec_rows

        self.rows = tuple(
            array("i", row)
            for row in interned_spec_rows(self.n, self.k, self.prop)
        )
        self._dirty = True
        self.built_states = len(self.rows)
        return self

    @property
    def dirty(self) -> bool:
        """Whether the table holds work no :meth:`save_warm` persisted."""
        return self._dirty

    def mark_persisted(self) -> None:
        """Record that another holder of this very table (a forked
        campaign cell that inherited it) persisted it: a later
        :meth:`save_warm` here is then a no-op, as in one process."""
        self._dirty = False

    def install(self, flat, num_states, *, dirty: bool = False) -> bool:
        """Adopt a table in the :func:`flatten_spec_rows` encoding — a
        warm-cache payload, or the table a supervised campaign cell
        built and shipped back (:mod:`repro.campaign.supervisor`).

        Fresh tables only; a malformed table is rejected wholesale
        (:func:`restore_spec_rows`) and this one stays empty.  ``dirty``
        carries over whether the process that built the table still
        owed a save, so it is persisted later exactly when that process
        would have persisted it.  Returns True iff installed.
        """
        if self.rows is not None or self._dirty:
            return False
        rows = restore_spec_rows(flat, num_states, self.num_symbols)
        if rows is None:
            return False
        # The flag first: a child forked in between (daemon threads)
        # must never see the table without the save it is owed.
        self._dirty = bool(dirty)
        self.rows = rows
        return True

    # ------------------------------------------------------------------
    # Warm-start persistence
    # ------------------------------------------------------------------

    def _cache_key(self) -> tuple:
        return ("spec-dfa", self.n, self.k, self.prop.value)

    def load_warm(self, cache_dir: str) -> bool:
        """Restore the int table from ``cache_dir`` (fresh tables only;
        malformed payloads rejected wholesale)."""
        if self.rows is not None or self._dirty:
            return False
        data = load_payload(cache_dir, self._cache_key())
        if not isinstance(data, dict):
            return False
        return self.install(data.get("rows"), data.get("num_states"))

    def save_warm(self, cache_dir: str) -> bool:
        """Spill the table to ``cache_dir`` (no-op unless dirty): one
        flat typed vector plus the state count."""
        if not self._dirty or self.rows is None:
            return False
        ok = save_payload(
            cache_dir,
            self._cache_key(),
            {
                "rows": flatten_spec_rows(self.rows),
                "num_states": len(self.rows),
            },
        )
        if ok:
            self._dirty = False
        return ok


@lru_cache(maxsize=None)
def cached_spec_dfa(n: int, k: int, prop: SafetyProperty) -> CompiledSpecDFA:
    """The process-wide shared int-rows spec DFA for ``(n, k, prop)``
    (built lazily — call :meth:`CompiledSpecDFA.ensure` before use)."""
    return CompiledSpecDFA(n, k, prop)


def clear_spec_dfa_cache() -> None:
    """Drop all shared int-rows spec DFAs."""
    cached_spec_dfa.cache_clear()
