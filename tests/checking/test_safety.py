"""Tests for the Table 2 safety pipeline."""

import pytest

from repro.checking import build_specs, check_safety, check_safety_both
from repro.checking.safety import CounterexampleUncertifiedError
from repro.core.properties import is_opaque, is_strictly_serializable
from repro.core.statements import parse_word
from repro.spec import OP, SS
from repro.tm import (
    DSTM,
    TL2,
    ManagedTM,
    ModifiedTL2,
    PoliteManager,
    SequentialTM,
    TwoPhaseLockingTM,
    language_contains,
)


@pytest.fixture(scope="module")
def specs22(det_spec_ss_22, det_spec_op_22):
    return {SS: det_spec_ss_22, OP: det_spec_op_22}


class TestTable2Verdicts:
    """Theorem 4: seq, 2PL, DSTM and TL2 ensure opacity (hence strict
    serializability); modified TL2 + polite violates both."""

    @pytest.mark.parametrize(
        "make",
        [SequentialTM, TwoPhaseLockingTM, DSTM, TL2],
        ids=["seq", "2PL", "dstm", "TL2"],
    )
    def test_safe_tms(self, make, specs22):
        tm = make(2, 2)
        ss, op = check_safety_both(tm, specs=specs22)
        assert ss.holds, ss.counterexample
        assert op.holds, op.counterexample

    def test_modified_tl2_polite_unsafe(self, specs22):
        tm = ManagedTM(ModifiedTL2(2, 2), PoliteManager())
        ss, op = check_safety_both(tm, specs=specs22)
        assert not ss.holds and not op.holds

    def test_modified_tl2_unmanaged_also_unsafe(self, specs22):
        ss = check_safety(ModifiedTL2(2, 2), SS, spec=specs22[SS])
        assert not ss.holds

    def test_literal_read_tl2_ss_but_not_opaque(self, specs22):
        """Finding (see EXPERIMENTS.md): with Algorithm 4's literal read
        (no lock check), TL2 stays strictly serializable but loses
        opacity — a fresh transaction may read a variable whose commit
        lock is held by a validated-but-uncommitted writer.  The
        published TL2 samples the lock bit on reads, which is exactly our
        default model (and what Table 2's Y requires)."""
        tm = TL2(2, 2, read_checks_lock=False)
        ss, op = check_safety_both(tm, specs=specs22)
        assert ss.holds
        assert not op.holds
        assert op.counterexample == parse_word(
            "(r,1)1 (w,2)1 (w,1)2 c2 (r,2)2 c1"
        )
        assert not is_opaque(op.counterexample)


class TestCounterexamples:
    def test_counterexample_is_certified(self, specs22):
        tm = ManagedTM(ModifiedTL2(2, 2), PoliteManager())
        res = check_safety(tm, SS, spec=specs22[SS])
        assert res.counterexample is not None
        assert not is_strictly_serializable(res.counterexample)
        assert language_contains(tm, res.counterexample)

    def test_opacity_counterexample_certified(self, specs22):
        tm = ManagedTM(ModifiedTL2(2, 2), PoliteManager())
        res = check_safety(tm, OP, spec=specs22[OP])
        assert res.counterexample is not None
        assert not is_opaque(res.counterexample)

    def test_papers_w1_also_a_violation(self, specs22):
        """Our BFS finds a symmetric variant; the paper's exact w1 is
        equally a member of the bad language and outside piss."""
        tm = ManagedTM(ModifiedTL2(2, 2), PoliteManager())
        w1 = parse_word("(w,2)1 (w,1)2 (r,2)2 (r,1)1 c2 c1")
        assert language_contains(tm, w1)
        assert not is_strictly_serializable(w1)
        assert not specs22[SS].accepts(w1)

    def test_counterexample_length_is_minimal_shape(self, specs22):
        # the shortest violation requires 2 writes + 2 reads + 2 commits
        tm = ManagedTM(ModifiedTL2(2, 2), PoliteManager())
        res = check_safety(tm, SS, spec=specs22[SS])
        assert len(res.counterexample) == 6


class TestResultMetadata:
    def test_sizes_reported(self, specs22):
        res = check_safety(SequentialTM(2, 2), SS, spec=specs22[SS])
        assert res.tm_states == 3
        assert res.spec_states == specs22[SS].num_states
        assert res.product_states > 0

    def test_verdict_string(self, specs22):
        res = check_safety(SequentialTM(2, 2), SS, spec=specs22[SS])
        assert res.verdict().startswith("Y")
        bad = check_safety(
            ManagedTM(ModifiedTL2(2, 2), PoliteManager()),
            SS,
            spec=specs22[SS],
        )
        assert bad.verdict().startswith("N")

    def test_spec_built_on_demand(self):
        res = check_safety(SequentialTM(2, 1), SS)
        assert res.holds

    def test_build_specs_helper(self):
        specs = build_specs(2, 1)
        assert set(specs) == {SS, OP}


class TestSmallInstances:
    @pytest.mark.parametrize(
        "make",
        [SequentialTM, TwoPhaseLockingTM, DSTM, TL2],
        ids=["seq", "2PL", "dstm", "TL2"],
    )
    def test_21_instances_safe(self, make):
        tm = make(2, 1)
        res = check_safety(tm, OP)
        assert res.holds

    def test_single_thread_always_safe(self):
        res = check_safety(DSTM(1, 2), OP)
        assert res.holds


class TestProfile:
    """check_safety(profile=...) fills the per-phase wall-time split."""

    KEYS = {
        "engine_build_s",
        "row_discovery_s",
        "product_bfs_s",
        "trace_rerun_s",
    }

    def test_holding_run_phases(self):
        prof = {}
        res = check_safety(DSTM(2, 1), SS, lazy_spec=True, profile=prof)
        assert res.holds
        assert set(prof) == self.KEYS
        assert prof["trace_rerun_s"] == 0.0
        assert prof["engine_build_s"] >= 0 and prof["product_bfs_s"] > 0
        assert prof["row_discovery_s"] > 0  # a cold engine computed rows

    def test_violating_run_records_trace_rerun(self):
        from repro.tm import ModifiedTL2

        prof = {}
        res = check_safety(ModifiedTL2(2, 2), SS, profile=prof)
        assert not res.holds
        assert prof["trace_rerun_s"] > 0

    def test_profiling_changes_no_result(self):
        plain = check_safety(DSTM(2, 1), OP, lazy_spec=True)
        prof = {}
        profiled = check_safety(
            DSTM(2, 1), OP, lazy_spec=True, profile=prof
        )
        assert (
            profiled.holds, profiled.counterexample, profiled.tm_states,
            profiled.spec_states, profiled.product_states,
        ) == (
            plain.holds, plain.counterexample, plain.tm_states,
            plain.spec_states, plain.product_states,
        )

    def test_uninstrumented_branch_reports_coarse_total(self):
        prof = {}
        res = check_safety(
            DSTM(2, 1), SS, lazy_spec=True, compiled=False,
            profile=prof,
        )
        assert res.holds
        assert prof["product_bfs_s"] > 0  # the whole check, coarsely
        assert prof["engine_build_s"] == prof["trace_rerun_s"] == 0.0
