"""Tests for :mod:`repro.analysis`.

Three layers of evidence that the analyzer is trustworthy:

* golden diagnostics -- seeded-broken kernels must each trigger their
  specific rule (and only error out for real defects);
* a cleanliness property -- every bundled workload analyzes with zero
  error-severity findings;
* static-vs-dynamic cross-checks -- the analyzer's memory predictions
  must agree with the cycle backend's observed activity counters.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import (LaunchShape, Severity, analyze_kernel,
                            analyze_launch, compare_static_dynamic,
                            predict_memory, AnalysisManager, RULES,
                            default_passes)
from repro.backends.surrogate import _memo_key
from repro.isa import Dim3, KernelBuilder, KernelLaunch, Sreg, kernel_digest
from repro.isa.instructions import Instruction
from repro.isa.kernel import Kernel, KernelVerificationError
from repro.request import SimRequest
from repro.runner import request_key
from repro.workloads import all_kernel_launches

SHAPE32 = LaunchShape(n_threads=32)


def rules_of(result):
    return {d.rule for d in result.diagnostics}


def errors_of(result):
    return [d for d in result.diagnostics
            if d.severity >= Severity.ERROR]


# ---------------------------------------------------------------------------
# Golden diagnostics: each seeded defect yields its expected rule id.
# ---------------------------------------------------------------------------

class TestGoldenVerifier:
    def test_use_before_def_register(self):
        kb = KernelBuilder("ubd")
        a, b = kb.regs(2)
        kb.iadd(b, a, 1)  # `a` is never written
        kb.exit()
        result = analyze_kernel(kb.build(), SHAPE32)
        assert "V001" in rules_of(result)
        assert any(d.rule == "V001" and d.severity >= Severity.ERROR
                   for d in result.diagnostics)

    def test_use_before_def_predicate(self):
        kb = KernelBuilder("ubd_pred")
        p = kb.pred()  # never SETP'd
        kb.bra("end", p)
        kb.label("end")
        kb.exit()
        result = analyze_kernel(kb.build(), SHAPE32)
        assert "V002" in rules_of(result)

    def test_out_of_range_branch_target(self):
        kernel = Kernel(name="badbra",
                        instructions=(Instruction("BRA", target=99),
                                      Instruction("EXIT")),
                        n_regs=0, n_preds=0)
        result = analyze_kernel(kernel, SHAPE32)
        assert "V004" in rules_of(result)
        # Structural errors gate the CFG-dependent passes.
        assert result.passes_skipped

    def test_missing_exit(self):
        kernel = Kernel(name="noexit",
                        instructions=(Instruction("NOP"),
                                      Instruction("JMP", target=0)),
                        n_regs=0, n_preds=0)
        result = analyze_kernel(kernel, SHAPE32)
        assert "V006" in rules_of(result)

    def test_clean_kernel_has_no_diagnostics(self):
        kb = KernelBuilder("clean")
        t, a, b, c = kb.regs(4)
        kb.mov(t, Sreg("gtid"))
        kb.ldg(a, t, offset=0)
        kb.ldg(b, t, offset=1024)
        kb.fadd(c, a, b)
        kb.stg(c, t, offset=2048)
        kb.exit()
        result = analyze_kernel(kb.build(), SHAPE32)
        assert result.diagnostics == []


class TestGoldenDivergence:
    def test_divergent_barrier(self):
        kb = KernelBuilder("divbar")
        t = kb.reg()
        p = kb.pred()
        kb.mov(t, Sreg("tid"))
        kb.setp("lt", p, t, 32)
        kb.bra("skip", p, sense=False)
        kb.bar()
        kb.label("skip")
        kb.exit()
        result = analyze_kernel(kb.build(), LaunchShape(n_threads=64))
        assert "D001" in rules_of(result)

    def test_uniform_barrier_is_clean(self):
        kb = KernelBuilder("unibar", smem_words=64)
        t = kb.reg()
        kb.mov(t, Sreg("tid"))
        kb.sts(t, t)
        kb.bar()
        kb.exit()
        result = analyze_kernel(kb.build(), LaunchShape(n_threads=64))
        assert "D001" not in rules_of(result)


class TestGoldenRaces:
    def test_write_write_race_same_site(self):
        kb = KernelBuilder("race_ww", smem_words=4)
        z = kb.reg()
        kb.mov(z, 0)
        kb.sts(z, z)  # every thread stores word 0
        kb.exit()
        result = analyze_kernel(kb.build(), SHAPE32)
        assert "R001" in rules_of(result)
        assert errors_of(result)

    def test_read_write_race_cross_site(self):
        kb = KernelBuilder("race_rw", smem_words=64)
        t, u, v = kb.regs(3)
        kb.mov(t, Sreg("tid"))
        kb.sts(t, t)       # write s[tid] ...
        kb.iadd(u, t, 1)
        kb.lds(v, u)       # ... read s[tid+1] with no barrier between
        kb.stg(v, t)
        kb.exit()
        result = analyze_kernel(kb.build(), SHAPE32)
        assert "R002" in rules_of(result)

    def test_barrier_separates_accesses(self):
        kb = KernelBuilder("race_fixed", smem_words=64)
        t, u, v = kb.regs(3)
        kb.mov(t, Sreg("tid"))
        kb.sts(t, t)
        kb.bar()
        kb.iadd(u, t, 1)
        kb.lds(v, u)
        kb.stg(v, t)
        kb.exit()
        result = analyze_kernel(kb.build(), SHAPE32)
        assert {"R001", "R002"}.isdisjoint(rules_of(result))

    def test_out_of_bounds_shared_store(self):
        kb = KernelBuilder("oob", smem_words=8)
        t = kb.reg()
        kb.mov(t, Sreg("tid"))
        kb.sts(t, t)  # threads 8..31 store past smem_words
        kb.exit()
        result = analyze_kernel(kb.build(), SHAPE32)
        assert "M003" in rules_of(result)


class TestGoldenMemoryLints:
    def test_strided_smem_flags_bank_conflict(self):
        kb = KernelBuilder("strided", smem_words=128)
        t, a = kb.regs(2)
        kb.mov(t, Sreg("tid"))
        kb.imul(a, t, 4)   # stride 4 over 16 banks -> multi-phase
        kb.sts(t, a)
        kb.exit()
        result = analyze_kernel(kb.build(), SHAPE32)
        assert "M001" in rules_of(result)

    def test_strided_global_flags_uncoalesced(self):
        kb = KernelBuilder("gstride")
        t, a, v = kb.regs(3)
        kb.mov(t, Sreg("tid"))
        kb.imul(a, t, 32)  # one 128B segment per lane
        kb.ldg(v, a)
        kb.stg(v, t)
        kb.exit()
        result = analyze_kernel(kb.build(), SHAPE32)
        assert "M002" in rules_of(result)


class TestDiagnosticsModel:
    def test_rule_catalogue_is_consistent(self):
        for rule_id, rule in RULES.items():
            assert rule.rule_id == rule_id
            assert rule.title

    def test_diagnostic_round_trip(self):
        kb = KernelBuilder("ubd2")
        a, b = kb.regs(2)
        kb.iadd(b, a, 1)
        kb.exit()
        result = analyze_kernel(kb.build(), SHAPE32)
        d = result.diagnostics[0]
        payload = d.to_dict()
        assert payload["rule"] == d.rule
        assert payload["kernel"] == "ubd2"
        assert d.rule in d.format() and "ubd2" in d.format()

    def test_severity_parse(self):
        assert Severity.parse("error") is Severity.ERROR
        assert Severity.parse("WARNING") is Severity.WARNING
        with pytest.raises(ValueError):
            Severity.parse("fatal")


# ---------------------------------------------------------------------------
# Strict assembly: KernelBuilder.finish() gates on the verifier.
# ---------------------------------------------------------------------------

class TestStrictAssembly:
    def _broken_builder(self):
        kb = KernelBuilder("broken")
        a, b = kb.regs(2)
        kb.iadd(b, a, 1)
        kb.exit()
        return kb

    def test_finish_raises_on_error_diagnostics(self):
        with pytest.raises(KernelVerificationError) as excinfo:
            self._broken_builder().finish()
        assert "V001" in str(excinfo.value)
        assert excinfo.value.kernel == "broken"
        assert excinfo.value.diagnostics

    def test_build_is_permissive_by_default(self):
        kernel = self._broken_builder().build()
        assert kernel.name == "broken"

    def test_finish_accepts_clean_kernel(self):
        kb = KernelBuilder("fine")
        t = kb.reg()
        kb.mov(t, Sreg("tid"))
        kb.stg(t, t)
        kb.exit()
        assert kb.finish().name == "fine"


# ---------------------------------------------------------------------------
# Properties over the bundled workloads.
# ---------------------------------------------------------------------------

class TestWorkloadProperties:
    def test_all_workloads_are_error_free(self, launches, gt240_config):
        for label, launch in sorted(launches.items()):
            result = analyze_launch(launch, gt240_config)
            errs = errors_of(result)
            assert not errs, (label,
                              [d.format() for d in errs])

    def test_all_passes_run_on_workloads(self, launches, gt240_config):
        result = analyze_launch(launches["matrixMul"], gt240_config)
        assert len(result.passes_run) == len(default_passes())
        assert not result.passes_skipped

    def test_matmul_predicts_bank_conflicts(self, launches, gt240_config):
        launch = launches["matrixMul"]
        am = AnalysisManager(
            launch.kernel,
            LaunchShape(n_threads=launch.block.count,
                        grid=launch.grid.count,
                        warp_size=gt240_config.warp_size,
                        smem_banks=gt240_config.smem_banks))
        report = predict_memory(am.symbolic, am.shape,
                                launch.kernel.name)
        assert report.smem_comparable
        assert not report.smem_conflict_free


# ---------------------------------------------------------------------------
# The analyze_launch memo: keyed on the kernel encoding plus shape.
# ---------------------------------------------------------------------------

class TestAnalyzeLaunchMemo:
    @staticmethod
    def _launch(data=1.0, threads=32, kernel=None):
        if kernel is None:
            kb = KernelBuilder("memo_probe")
            t, v = kb.regs(2)
            kb.mov(t, Sreg("gtid"))
            kb.ldg(v, t)
            kb.stg(v, t, offset=threads)
            kb.exit()
            kernel = kb.build()
        return KernelLaunch(kernel=kernel, grid=Dim3(1),
                            block=Dim3(threads),
                            globals_init={0: np.full(threads, data)},
                            gmem_words=2 * threads)

    def test_memory_contents_share_one_result(self, gt240_config):
        first = analyze_launch(self._launch(data=1.0), gt240_config)
        again = analyze_launch(self._launch(data=7.5), gt240_config)
        assert again is first

    def test_block_size_recomputes(self, gt240_config):
        first = analyze_launch(self._launch(threads=32), gt240_config)
        other = analyze_launch(self._launch(threads=64), gt240_config)
        assert other is not first
        assert other.shape.n_threads == 64

    def test_smem_banks_recompute(self, gt240_config):
        launch = self._launch()
        first = analyze_launch(launch, gt240_config)
        other = analyze_launch(launch, replace(gt240_config,
                                               smem_banks=32))
        assert other is not first
        assert other.shape.smem_banks == 32

    def test_explicit_passes_are_not_memoised(self, gt240_config):
        launch = self._launch()
        first = analyze_launch(launch, gt240_config,
                               passes=default_passes())
        assert analyze_launch(launch, gt240_config,
                              passes=default_passes()) is not first

    @staticmethod
    def _same_repr_pair(field):
        """A clean kernel and an erroring one whose instruction ``repr``
        agrees, differing only in ``field``."""
        kb = KernelBuilder(f"memo_{field}", smem_words=4)
        t, v = kb.regs(2)
        p = kb.pred()
        kb.mov(t, Sreg("tid"))
        kb.setp("lt", p, t, 16)
        if field == "sel_pred":
            kb.selp(v, t, 0, p)
            kb.stg(v, t)
        elif field == "reconv_pc":
            kb.bra("end", p)
            kb.stg(t, t)
            kb.label("end")
        else:
            kb.mov(v, 0)
            kb.sts(v, v)  # every thread stores shared word 0: R001
        kb.exit()
        kernel = kb.build()

        def rebuilt(edit):
            return replace(kernel, instructions=tuple(
                edit(inst) for inst in kernel.instructions))

        if field == "sel_pred":  # replace() drops the SELP selector
            return kernel, rebuilt(replace)
        if field == "reconv_pc":
            return kernel, rebuilt(lambda inst: replace(
                inst, reconv_pc=None) if inst.op == "BRA" else inst)
        return rebuilt(lambda inst: replace(
            inst, mem_space="global") if inst.op == "STS" else inst), kernel

    @pytest.mark.parametrize("field", ["sel_pred", "reconv_pc",
                                       "mem_space"])
    def test_every_instruction_field_enters_the_key(self, gt240_config,
                                                    field):
        """Fields outside the instruction ``repr`` still key the memo,
        so an erroring kernel never reuses its clean twin's verdict."""
        clean, broken = self._same_repr_pair(field)
        assert [repr(i) for i in clean.instructions] \
            == [repr(i) for i in broken.instructions]
        assert not errors_of(analyze_launch(self._launch(kernel=clean),
                                            gt240_config))
        assert errors_of(analyze_launch(self._launch(kernel=broken),
                                        gt240_config))
        # The same identity keys the result cache and the surrogate's
        # memos, so neither can answer one twin with the other's result.
        launches = [self._launch(kernel=k) for k in (clean, broken)]
        assert kernel_digest(clean) != kernel_digest(broken)
        keys = {request_key(SimRequest(config=gt240_config, launch=launch))
                for launch in launches}
        assert len(keys) == 2
        memo_keys = {_memo_key(gt240_config, launch) for launch in launches}
        assert len(memo_keys) == 2

    def test_memo_is_bounded(self, gt240_config, monkeypatch):
        import repro.analysis as analysis
        monkeypatch.setattr(analysis, "_RESULT_MEMO", {})
        monkeypatch.setattr(analysis, "_RESULT_MEMO_LIMIT", 2)
        for threads in (8, 16, 32, 64):
            analyze_launch(self._launch(threads=threads), gt240_config)
            assert len(analysis._RESULT_MEMO) <= 2


# ---------------------------------------------------------------------------
# Static predictions vs. observed cycle-backend counters.
# ---------------------------------------------------------------------------

class TestCrossCheck:
    #: Pinned pair where both a check list and agreement are guaranteed.
    COMPARABLE = ("vectorAdd", "matrixMul")

    @pytest.mark.parametrize("label", COMPARABLE)
    def test_static_matches_dynamic(self, launches, gt240_config, label):
        cross = compare_static_dynamic(launches[label], gt240_config)
        assert cross.agree is True, cross.to_dict()
        assert cross.checks

    @pytest.mark.parametrize(
        "label", sorted(all_kernel_launches()))
    def test_no_workload_disagrees(self, launches, gt240_config, label):
        """Every bundled workload: wherever the static side is
        comparable, prediction and observed counters must agree
        (``agree`` is None when nothing was comparable)."""
        cross = compare_static_dynamic(launches[label], gt240_config)
        assert cross.agree is not False, cross.to_dict()

    def test_conflict_free_kernel_both_sides_zero(self, launches,
                                                  gt240_config):
        cross = compare_static_dynamic(launches["vectorAdd"],
                                       gt240_config)
        payload = cross.to_dict()
        coalescing = [c for c in payload["checks"]
                      if c["check"] == "global_txn_per_access"]
        assert coalescing and coalescing[0]["ok"]


# ---------------------------------------------------------------------------
# U001: provably uninitialized shared-memory reads.
# ---------------------------------------------------------------------------

class TestUninitShared:
    def test_never_written_words_flagged(self):
        kb = KernelBuilder("u_pos", smem_words=16)
        t, v = kb.regs(2)
        kb.mov(t, Sreg("tid"))
        kb.lds(v, t)
        kb.stg(v, t)
        kb.exit()
        result = analyze_kernel(kb.build(), LaunchShape(n_threads=16))
        findings = [d for d in result.diagnostics if d.rule == "U001"]
        assert findings
        assert findings[0].severity == Severity.WARNING
        assert findings[0].data["n_words"] == 16

    def test_fully_initialized_is_clean(self):
        kb = KernelBuilder("u_neg", smem_words=16)
        t, v = kb.regs(2)
        kb.mov(t, Sreg("tid"))
        kb.sts(t, t)
        kb.bar()
        kb.lds(v, t)
        kb.stg(v, t)
        kb.exit()
        result = analyze_kernel(kb.build(), LaunchShape(n_threads=16))
        assert "U001" not in rules_of(result)

    def test_partial_initialization_flags_the_tail(self):
        kb = KernelBuilder("u_part", smem_words=16)
        t, v = kb.regs(2)
        p = kb.pred()
        kb.mov(t, Sreg("tid"))
        kb.setp("lt", p, t, 8)
        kb.sts(t, t, guard=(p, True))
        kb.bar()
        kb.lds(v, t)
        kb.stg(v, t)
        kb.exit()
        result = analyze_kernel(kb.build(), LaunchShape(n_threads=16))
        findings = [d for d in result.diagnostics if d.rule == "U001"]
        assert findings and findings[0].data["n_words"] == 8
        assert min(findings[0].data["words"]) == 8

    def test_unresolvable_store_makes_no_claim(self):
        # The store's address comes from loaded data: the initialized
        # region is unknowable, so the pass must stay silent (sound).
        kb = KernelBuilder("u_bail", smem_words=16)
        t, a, v = kb.regs(3)
        kb.mov(t, Sreg("tid"))
        kb.ldg(a, t)
        kb.sts(t, a)
        kb.bar()
        kb.lds(v, t)
        kb.stg(v, t)
        kb.exit()
        result = analyze_kernel(kb.build(), LaunchShape(n_threads=16))
        assert "U001" not in rules_of(result)

    def test_pass_is_registered(self):
        assert "uninit-shared" in [p.name for p in default_passes()]


# ---------------------------------------------------------------------------
# The `analysis` experiment driver.
# ---------------------------------------------------------------------------

class TestAnalysisExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import exp_analysis
        return exp_analysis.run()

    def test_covers_every_workload(self, result, launches):
        assert {k["kernel"] for k in result["kernels"]} == set(launches)
        assert result["clean"] is True

    def test_crosschecks_recorded_and_agree(self, result):
        assert len(result["crosschecks"]) == 2
        assert result["crosschecks_agree"] is True

    def test_render_and_artifact(self, result, tmp_path):
        from repro.experiments import exp_analysis
        text = exp_analysis.format_table(result)
        assert "cross-check" in text
        paths = exp_analysis._artifacts(result, tmp_path)
        payload = json.loads(paths[0].read_text(encoding="utf-8"))
        assert payload["clean"] is True
