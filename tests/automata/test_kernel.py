"""The lazy product kernels: streamed exploration vs. materialization.

``lazy_product_dfa`` must agree exactly (verdict, counterexample,
discovered pairs) with materializing the NFA first and running the
product checker; ``lazy_product_oracle`` must additionally agree when
the DFA side is streamed through its transition function.  Counterexample
minimality is checked by exhaustive enumeration of shorter words.
"""

from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.dfa import DFA
from repro.automata.inclusion import check_inclusion_in_dfa
from repro.automata.kernel import lazy_product_dfa, lazy_product_oracle
from repro.automata.nfa import EPSILON, NFA


@st.composite
def random_safety_nfas(draw, symbols="ab", max_states=5, with_eps=True):
    n_states = draw(st.integers(1, max_states))
    delta = {}
    labels = list(symbols) + ([EPSILON] if with_eps else [])
    for q in range(n_states):
        out = {}
        for sym in labels:
            targets = draw(
                st.frozensets(st.integers(0, n_states - 1), max_size=2)
            )
            if targets:
                out[sym] = targets
        delta[q] = out
    return NFA(initial=frozenset([0]), delta=delta)


@st.composite
def random_safety_dfas(draw, symbols="ab", max_states=4):
    n_states = draw(st.integers(1, max_states))
    delta = {}
    for q in range(n_states):
        out = {}
        for sym in symbols:
            target = draw(
                st.one_of(st.none(), st.integers(0, n_states - 1))
            )
            if target is not None:
                out[sym] = target
        delta[q] = out
    return DFA(initial=0, delta=delta)


def step_of(nfa):
    """A from_step-style step function replaying ``nfa``'s transitions."""

    def step(q):
        for symbol, succs in nfa.delta.get(q, {}).items():
            for s in succs:
                yield symbol, s

    return step


class TestLazyProductDFA:
    @given(random_safety_nfas(), random_safety_dfas())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_materialized(self, a, d):
        holds, cex, pairs, seen = lazy_product_dfa(a.initial, step_of(a), d)
        ref = check_inclusion_in_dfa(a, d)
        assert holds == ref.holds
        assert cex == ref.counterexample
        assert pairs == ref.product_states

    @given(random_safety_nfas(), random_safety_dfas())
    @settings(max_examples=60, deadline=None)
    def test_states_seen_is_full_reachable_set_when_holds(self, a, d):
        holds, _, _, seen = lazy_product_dfa(a.initial, step_of(a), d)
        if holds:
            reachable = a.restrict_to_reachable().num_states
            assert seen == reachable

    @given(
        random_safety_nfas(max_states=4, with_eps=False),
        random_safety_dfas(max_states=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_counterexample_is_minimal(self, a, d):
        """No strictly shorter word of L(A) escapes L(B).

        (ε-free automata only: with ε-moves the BFS minimizes total
        steps, which is minimal-up-to-ε in observable symbols.)
        """
        holds, cex, _, _ = lazy_product_dfa(a.initial, step_of(a), d)
        if holds:
            return
        assert a.accepts(cex) and not d.accepts(cex)
        alphabet = sorted(a.alphabet(), key=repr)
        for length in range(len(cex)):
            for word in iproduct(alphabet, repeat=length):
                assert not (a.accepts(word) and not d.accepts(word)), (
                    f"shorter violation {word} than reported {cex}"
                )

    def test_max_states_guard(self):
        def step(q):
            yield "a", q + 1

        d = DFA(initial=0, delta={0: {"a": 0}})
        with pytest.raises(RuntimeError) as exc:
            lazy_product_dfa([0], step, d, max_states=10)
        assert "10" in str(exc.value)

    def test_violation_found_before_budget_exhausted(self):
        """The lazy product can report a violation without exploring the
        full (here: unbounded) state space."""

        def step(q):
            yield "a", q + 1  # infinite chain

        d = DFA(initial=0, delta={0: {"a": 1}, 1: {}})
        holds, cex, _, seen = lazy_product_dfa(
            [0], step, d, max_states=100
        )
        assert not holds
        assert cex == ("a", "a")
        assert seen <= 100


class TestLazyProductOracle:
    @given(random_safety_nfas(), random_safety_dfas())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_lazy_dfa(self, a, d):
        r_dfa = lazy_product_dfa(a.initial, step_of(a), d)
        r_orc = lazy_product_oracle(
            a.initial, step_of(a), d.initial, d.step
        )
        assert r_orc[:4] == r_dfa[:4]

    @given(random_safety_nfas(), random_safety_dfas())
    @settings(max_examples=60, deadline=None)
    def test_spec_states_seen_bounded_by_dfa(self, a, d):
        holds, _, _, _, spec_seen = lazy_product_oracle(
            a.initial, step_of(a), d.initial, d.step
        )
        assert spec_seen <= d.num_states

    def test_oracle_never_queried_outside_product(self):
        """The spec oracle is only consulted for symbols the streamed
        automaton actually emits from reachable product states."""
        queries = []

        def spec_step(state, symbol):
            queries.append((state, symbol))
            return state if symbol == "a" else None

        def step(q):
            if q == 0:
                yield "a", 1

        holds, _, _, _, _ = lazy_product_oracle([0], step, "S", spec_step)
        assert holds
        assert queries == [("S", "a")]


class TestProductDfaPacked:
    """``product_packed`` over a complete (DFA-sided) spec table against
    the naive ``lazy_product_dfa`` on hand-built row tables — and, with
    the rows left unqueried, against ``lazy_product_oracle`` filling
    them on demand.

    The left automaton is given twice over the same packed states: once
    as symbol-id rows (bare ints for singleton groups, ``-1`` for ε) for
    the packed product, once as a step function over the symbol objects
    for the naive one; the right side once as an int-indexed row table,
    once as a DFA over the symbol objects.  Everything observable must
    match, with the packed counterexample decoding to the naive one
    through the symbol table.
    """

    SYMBOLS = ("a", "b")
    NODE_SPAN = 8  # a power of two covering packed left states 0..4

    def _step(self, rows_ids):
        """A from_step-style step function replaying the id rows."""

        def step(q):
            for sym, succs in rows_ids.get(q, ()):
                label = EPSILON if sym < 0 else self.SYMBOLS[sym]
                for s in (succs,) if type(succs) is int else succs:
                    yield label, s

        return step

    def _spec(self, spec_rows):
        """A DFA equivalent to the int row table."""
        delta = {
            i: {
                self.SYMBOLS[s]: succ
                for s, succ in enumerate(row)
                if succ >= 0
            }
            for i, row in enumerate(spec_rows)
        }
        return DFA(initial=0, delta=delta)

    def _decode(self, result):
        holds, word_ids, pairs, states, spec_states = result
        word = (
            None
            if word_ids is None
            else tuple(self.SYMBOLS[s] for s in word_ids)
        )
        return holds, word, pairs, states, spec_states

    def _compare(self, rows_ids, spec_rows, max_states=None):
        from repro.automata.kernel import product_packed

        row_ids_fn = lambda q: rows_ids.get(q, ())
        dfa = self._spec(spec_rows)
        naive = lazy_product_dfa(
            [0], self._step(rows_ids), dfa, max_states=max_states
        )
        packed = product_packed(
            row_ids_fn, [0], spec_rows,
            node_span=self.NODE_SPAN, max_states=max_states,
        )
        assert self._decode(packed)[:4] == naive
        # The same product with every spec cell unqueried (-2): the
        # oracle fills the table on demand, exactly like the naive
        # streamed oracle.
        lazy_rows = [[-2] * len(row) for row in spec_rows]

        def fill(state, sym):
            lazy_rows[state][sym] = spec_rows[state][sym]
            return spec_rows[state][sym]

        filled = product_packed(
            row_ids_fn, [0], lazy_rows, fill=fill,
            node_span=self.NODE_SPAN, max_states=max_states,
        )
        oracle = lazy_product_oracle(
            [0], self._step(rows_ids), dfa.initial, dfa.step,
            max_states=max_states,
        )
        assert self._decode(filled) == oracle
        return packed

    def test_holding_product(self):
        rows = {
            0: ((0, 1), (-1, 2)),          # a -> 1, eps -> 2
            1: ((1, (0, 2)),),             # b -> {0, 2}
            2: ((0, 2),),                  # a self-loop
        }
        spec = ((1, 0), (1, 1))            # total delta: never violates
        got = self._compare(rows, spec)
        assert got[0] is True

    def test_violation_and_counterexample(self):
        rows = {
            0: ((0, 1),),                  # a -> 1
            1: ((-1, 2),),                 # eps -> 2
            2: ((1, 3),),                  # b -> 3 ... but spec rejects b
        }
        spec = ((1, -1), (0, -1))          # b always rejects
        got = self._compare(rows, spec)
        assert got[0] is False and got[1] == (0, 1)  # word "a b"

    def test_max_states_guard_message_identical(self):
        from repro.automata.kernel import product_packed

        rows = {q: ((0, q + 1),) for q in range(5)}
        spec = ((0, -1),)  # a self-loop on the only spec state
        with pytest.raises(RuntimeError) as naive:
            lazy_product_dfa(
                [0], self._step(rows), self._spec(spec), max_states=3
            )
        with pytest.raises(RuntimeError) as packed:
            product_packed(
                lambda q: rows.get(q, ()), [0], spec,
                node_span=self.NODE_SPAN, max_states=3,
            )
        assert str(naive.value) == str(packed.value)


class TestDenseKernel:
    """The dense kernel: CSR recording, bitset BFS, persistence.

    Synthetic products over hand-built id rows (the fixtures of
    ``TestProductDfaPacked``), with an identity stable encoding — the
    packed left states already are their own process-stable keys here.
    Every dense result must equal the set-based call bit for bit, on
    the numpy fast path and the stdlib fallback alike.
    """

    SYMBOLS = ("a", "b")
    NODE_SPAN = 8
    HOLDING_ROWS = {
        0: ((0, 1), (-1, 2)),          # a -> 1, eps -> 2
        1: ((1, (0, 2)),),             # b -> {0, 2}
        2: ((0, 2),),                  # a self-loop
    }
    HOLDING_SPEC = ((1, 0), (1, 1))
    VIOLATING_ROWS = {
        0: ((0, 1),),                  # a -> 1
        1: ((-1, 2),),                 # eps -> 2
        2: ((1, 3),),                  # b -> 3 ... but spec rejects b
    }
    VIOLATING_SPEC = ((1, -1), (0, -1))

    def _dense(self, cache_key=None):
        from repro.automata.kernel import DenseCSR

        return DenseCSR(
            span_bits=3, stable_of_node=lambda p: p, cache_key=cache_key
        )

    def _run(self, rows, spec, dense):
        from repro.automata.kernel import product_packed

        return product_packed(
            lambda q: rows.get(q, ()), [0], spec,
            node_span=self.NODE_SPAN, dense=dense,
        )

    def test_csr_construction_is_the_exact_adjacency(self):
        dense = self._dense()
        got = self._run(self.HOLDING_ROWS, self.HOLDING_SPEC, dense)
        assert got == (True, None, 5, 3, 2)
        # Dense ids in discovery order: 0=(n0,s0) 1=(n1,s1) 2=(n2,s0)
        # 3=(n0,s1) 4=(n2,s1); rows recorded in exact emission order.
        assert dense.complete and not dense.flags
        assert list(dense.node_keys) == [0, 1, 2, 0, 2]
        assert list(dense.spec_ids) == [0, 1, 0, 1, 1]
        assert list(dense.offsets) == [0, 2, 4, 5, 7, 8]
        assert list(dense.targets) == [1, 2, 3, 4, 4, 1, 4, 4]
        assert dense.num_init == 1 and dense.matches_init([0])
        assert not dense.matches_init([1])

    @pytest.mark.parametrize("numpy_path", [True, False], ids=["np", "py"])
    def test_warm_rerun_never_touches_rows(self, monkeypatch, numpy_path):
        import repro.automata.kernel as kernel_mod

        if not numpy_path:
            monkeypatch.setattr(kernel_mod, "_np", None)
        elif kernel_mod._np is None:  # pragma: no cover
            pytest.skip("numpy unavailable")
        dense = self._dense()
        cold = self._run(self.HOLDING_ROWS, self.HOLDING_SPEC, dense)

        def poisoned(q):  # a warm run must be array-only
            raise AssertionError("row function touched on a warm run")

        from repro.automata.kernel import product_packed

        warm = product_packed(
            poisoned, [0], self.HOLDING_SPEC,
            node_span=self.NODE_SPAN, dense=dense,
        )
        assert warm == cold

    @pytest.mark.parametrize("numpy_path", [True, False], ids=["np", "py"])
    def test_bitset_dedup_within_a_level(self, monkeypatch, numpy_path):
        """Two length-2 paths converge on one node in the same BFS level:
        the gathered batch contains its dense id twice, the bitset must
        admit it once."""
        import repro.automata.kernel as kernel_mod

        if not numpy_path:
            monkeypatch.setattr(kernel_mod, "_np", None)
        elif kernel_mod._np is None:  # pragma: no cover
            pytest.skip("numpy unavailable")
        rows = {
            0: ((0, (1, 2)),),         # a -> {1, 2}
            1: ((0, 3),),              # both paths meet at node 3
            2: ((0, 3),),
            3: (),
        }
        spec = ((0,),)                 # single all-accepting spec state
        dense = self._dense()
        cold = self._run(rows, spec, dense)
        assert cold == (True, None, 4, 4, 1)
        # the duplicate edge is recorded, the pair only counted once
        assert list(dense.targets).count(3) == 2
        warm = self._run(rows, spec, dense)
        assert warm == cold

    def test_violating_product_flags_partial_csr(self):
        dense = self._dense()
        cold = self._run(self.VIOLATING_ROWS, self.VIOLATING_SPEC, dense)
        reference = self._run(self.VIOLATING_ROWS, self.VIOLATING_SPEC, None)
        assert cold == reference and cold[1] == (0, 1)  # word "a b"
        assert not dense.complete and dense.flags
        assert len(dense.offsets) == len(dense.node_keys) + 1
        # the warm rerun reaches the flagged pair and re-runs traced
        warm = self._run(self.VIOLATING_ROWS, self.VIOLATING_SPEC, dense)
        assert warm == cold

    def test_edge_budget_bailout_disables_recording(self, monkeypatch):
        import repro.automata.kernel as kernel_mod

        monkeypatch.setattr(kernel_mod, "DENSE_MAX_EDGES", 3)
        dense = self._dense()
        got = self._run(self.HOLDING_ROWS, self.HOLDING_SPEC, dense)
        assert got == (True, None, 5, 3, 2)  # set-based semantics intact
        assert dense.disabled and not dense.built
        # a disabled table is skipped entirely on later runs
        again = self._run(self.HOLDING_ROWS, self.HOLDING_SPEC, dense)
        assert again == got

    @pytest.mark.parametrize("numpy_path", [True, False], ids=["np", "py"])
    def test_flagged_initial_pair_short_circuits(
        self, monkeypatch, numpy_path
    ):
        """A product violating on its very first pair flags dense id 0;
        the warm replay must bail before any sweep."""
        import repro.automata.kernel as kernel_mod

        if not numpy_path:
            monkeypatch.setattr(kernel_mod, "_np", None)
        elif kernel_mod._np is None:  # pragma: no cover
            pytest.skip("numpy unavailable")
        rows = {0: ((1, 1),)}          # b from the initial node
        spec = ((0, -1),)              # ... which the spec rejects
        dense = self._dense()
        cold = self._run(rows, spec, dense)
        assert cold[0] is False and cold[1] == (1,)
        assert dense.flags == (0,)
        warm = self._run(rows, spec, dense)
        assert warm == cold

    def test_oracle_side_edge_budget_bailout(self, monkeypatch):
        """The pipeline's oracle-sided builder degrades identically when
        the edge budget trips mid-build."""
        import repro.automata.kernel as kernel_mod
        from repro.checking import check_safety
        from repro.spec import SS
        from repro.tm import DSTM, compile_tm

        monkeypatch.setattr(kernel_mod, "DENSE_MAX_EDGES", 10)
        reference = check_safety(
            DSTM(2, 1), SS, lazy_spec=True, dense_kernel=False
        )
        tm = DSTM(2, 1)
        # dense_kernel=True: recording no longer engages by default on
        # cache-less one-shot runs (the auto-gating default).
        res = check_safety(tm, SS, lazy_spec=True, dense_kernel=True)
        assert (res.holds, res.product_states, res.tm_states) == (
            reference.holds,
            reference.product_states,
            reference.tm_states,
        )
        csr = compile_tm(tm).dense_csr("oracle", SS)
        assert csr.disabled and not csr.built

    @pytest.mark.parametrize("numpy_path", [True, False], ids=["np", "py"])
    def test_save_load_round_trip(self, tmp_path, monkeypatch, numpy_path):
        import repro.automata.kernel as kernel_mod

        if not numpy_path:
            monkeypatch.setattr(kernel_mod, "_np", None)
        elif kernel_mod._np is None:  # pragma: no cover
            pytest.skip("numpy unavailable")
        d = str(tmp_path)
        dense = self._dense(cache_key=("dense-csr", "synthetic", "t"))
        cold = self._run(self.HOLDING_ROWS, self.HOLDING_SPEC, dense)
        assert dense.save_warm(d)
        assert not dense.save_warm(d)  # dirty-gated
        fresh = self._dense(cache_key=("dense-csr", "synthetic", "t"))
        assert fresh.load_warm(d)
        assert fresh.complete and fresh.stable_keys
        assert list(fresh.targets) == list(dense.targets)
        warm = self._run(self.HOLDING_ROWS, self.HOLDING_SPEC, fresh)
        assert warm == cold
        # a used (or loaded) table refuses another load
        assert not fresh.load_warm(d)

    @pytest.mark.parametrize("numpy_path", [True, False], ids=["np", "py"])
    def test_load_rejects_corrupt_and_malformed_payloads(
        self, tmp_path, monkeypatch, numpy_path
    ):
        from array import array

        import repro.automata.kernel as kernel_mod
        from repro.cache import cache_path, save_payload

        if not numpy_path:
            monkeypatch.setattr(kernel_mod, "_np", None)
        elif kernel_mod._np is None:  # pragma: no cover
            pytest.skip("numpy unavailable")

        d = str(tmp_path)
        key = ("dense-csr", "synthetic", "t")
        dense = self._dense(cache_key=key)
        self._run(self.HOLDING_ROWS, self.HOLDING_SPEC, dense)
        assert dense.save_warm(d)
        ok = self._dense(cache_key=key)
        assert ok.load_warm(d)

        base = {
            "span_bits": 3,
            "num_init": 1,
            "complete": True,
            "flags": [],
            "node_keys": array("q", ok.node_keys),
            "spec_ids": array("q", ok.spec_ids),
            "offsets": array("q", ok.offsets),
            "targets": array("q", ok.targets),
        }

        def variant(**kw):
            payload = dict(base)
            payload.update(kw)
            return payload

        bad_payloads = [
            "not a dict",
            variant(span_bits=4),                       # stale geometry
            variant(num_init=0),
            variant(num_init=99),
            variant(complete=False),                    # complete w/o flags
            variant(flags=[99]),                        # flag out of range
            variant(flags=[0]),                         # flags on complete
            variant(offsets=array("q", [0, 2, 4, 5, 7])),   # wrong length
            variant(offsets=array("q", [0, 4, 2, 5, 7, 8])),  # not monotone
            variant(offsets=array("q", [0, 2, 4, 5, 7, 9])),  # edge count
            variant(targets=array("q", [1, 2, 3, 4, 4, 1, 4, 99])),
            variant(node_keys=array("q", [0, 1, 2, 0, 99])),  # key > span
            variant(node_keys=list(ok.node_keys)),      # list, not array
            variant(spec_ids=array("q", [1, 1, 0, 1, 1])),  # init not spec 0
        ]
        for payload in bad_payloads:
            save_payload(d, key, payload)
            fresh = self._dense(cache_key=key)
            assert not fresh.load_warm(d), payload
        # raw garbage on disk degrades to a cold run too
        with open(cache_path(d, key), "wb") as fh:
            fh.write(b"\x80garbage that is not a pickle")
        fresh = self._dense(cache_key=key)
        assert not fresh.load_warm(d)

    def test_load_rejects_stale_engine_version(self, tmp_path):
        import pickle

        from repro.cache import ENGINE_VERSION, cache_path

        d = str(tmp_path)
        key = ("dense-csr", "synthetic", "t")
        dense = self._dense(cache_key=key)
        self._run(self.HOLDING_ROWS, self.HOLDING_SPEC, dense)
        assert dense.save_warm(d)
        path = cache_path(d, key)
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        payload["version"] = ENGINE_VERSION + 1
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)
        fresh = self._dense(cache_key=key)
        assert not fresh.load_warm(d)
