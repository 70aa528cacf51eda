"""Property-based tests over randomly generated kernels.

Hypothesis builds small random SIMT kernels (straight-line arithmetic,
one divergent if/else region, global loads/stores) and checks simulator
invariants that must hold for *any* program:

* functional results are identical across architectures (GT240, GTX580,
  16-wide warps) and warp scheduling policies -- timing models must
  never change values;
* activity counters stay internally consistent;
* the simulation always terminates.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Dim3, KernelBuilder, KernelLaunch, Sreg
from repro.sim import gt240, gtx580, simulate

N = 128          # threads
GMEM = 1024

#: (opcode, arity) pool for random arithmetic bodies; ops chosen to stay
#: finite on arbitrary inputs.
OP_POOL = [
    ("iadd", 2), ("isub", 2), ("imul", 2), ("and_", 2), ("or_", 2),
    ("xor", 2), ("shr", 2), ("imin", 2), ("imax", 2),
    ("fadd", 2), ("fsub", 2), ("fmul", 2), ("fmin", 2), ("fmax", 2),
    ("iabs", 1), ("fneg", 1), ("fabs", 1),
]


@st.composite
def random_kernels(draw):
    """A random but well-formed kernel over 6 registers."""
    kb = KernelBuilder("fuzz")
    regs = kb.regs(6)
    p = kb.pred()
    kb.mov(regs[0], Sreg("gtid"))
    kb.ldg(regs[1], regs[0], offset=0)
    kb.mov(regs[2], draw(st.integers(-100, 100)))
    kb.mov(regs[3], draw(st.integers(1, 31)))

    def emit_body(count):
        for _ in range(count):
            op, arity = draw(st.sampled_from(OP_POOL))
            dst = regs[draw(st.integers(1, 5))]
            srcs = [regs[draw(st.integers(0, 5))] for _ in range(arity)]
            getattr(kb, op)(dst, *srcs)

    emit_body(draw(st.integers(1, 6)))
    # One divergent region: threshold splits the warp.
    threshold = draw(st.integers(0, N))
    kb.setp("lt", p, regs[0], threshold)
    kb.bra("else_", pred=p, sense=False)
    emit_body(draw(st.integers(1, 4)))
    kb.jmp("join")
    kb.label("else_")
    emit_body(draw(st.integers(1, 4)))
    kb.label("join")
    emit_body(draw(st.integers(0, 3)))
    kb.stg(regs[draw(st.integers(1, 5))], regs[0], offset=N)
    kb.exit()
    return kb.build()


def launch_for(kernel):
    rng = np.random.default_rng(1234)
    data = rng.integers(-1000, 1000, N).astype(np.float64)
    return KernelLaunch(kernel, Dim3(2), Dim3(N // 2),
                        globals_init={0: data}, gmem_words=GMEM)


class TestCrossConfigEquivalence:
    @given(kernel=random_kernels())
    @settings(max_examples=25, deadline=None)
    def test_results_identical_across_architectures(self, kernel):
        launch = launch_for(kernel)
        configs = [gt240(), gtx580(), gt240().scaled(warp_size=16)]
        results = [simulate(cfg, launch).gmem[N:2 * N] for cfg in configs]
        for other in results[1:]:
            assert np.array_equal(results[0], other)

    @given(kernel=random_kernels())
    @settings(max_examples=25, deadline=None)
    def test_results_identical_across_schedulers(self, kernel):
        launch = launch_for(kernel)
        results = [
            simulate(gt240().scaled(warp_scheduler=p), launch).gmem[N:2 * N]
            for p in ("rr", "gto", "two_level")
        ]
        for other in results[1:]:
            assert np.array_equal(results[0], other)


@st.composite
def loop_kernels(draw):
    """A random kernel with a data-dependent (bounded) loop."""
    kb = KernelBuilder("fuzzloop")
    regs = kb.regs(5)
    p = kb.pred()
    kb.mov(regs[0], Sreg("gtid"))
    kb.ldg(regs[1], regs[0], offset=0)
    # trip count in [1, 8], derived from the thread id
    modulus = draw(st.integers(2, 8))
    kb.imod(regs[2], regs[0], modulus)
    kb.iadd(regs[2], regs[2], 1)
    kb.mov(regs[3], 0)
    kb.label("loop")
    op, _ = draw(st.sampled_from([("iadd", 2), ("ixor", 2)]))
    if op == "iadd":
        kb.iadd(regs[3], regs[3], regs[1])
    else:
        kb.xor(regs[3], regs[3], regs[1])
    kb.isub(regs[2], regs[2], 1)
    kb.setp("gt", p, regs[2], 0)
    kb.bra("loop", pred=p)
    kb.stg(regs[3], regs[0], offset=N)
    kb.exit()
    return kb.build()


class TestLoopKernels:
    @given(kernel=loop_kernels())
    @settings(max_examples=20, deadline=None)
    def test_loops_identical_across_configs(self, kernel):
        launch = launch_for(kernel)
        a = simulate(gt240(), launch).gmem[N:2 * N]
        b = simulate(gtx580(), launch).gmem[N:2 * N]
        c = simulate(gt240().scaled(warp_scheduler="gto"),
                     launch).gmem[N:2 * N]
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    @given(kernel=loop_kernels())
    @settings(max_examples=10, deadline=None)
    def test_divergent_loops_push_and_pop_balanced(self, kernel):
        out = simulate(gt240(), launch_for(kernel))
        act = out.activity
        # Every pushed token is eventually popped, plus each warp's base
        # token pops when its last lane exits.
        assert act.stack_pops == act.stack_pushes + act.warps_launched


class TestActivityInvariants:
    @given(kernel=random_kernels())
    @settings(max_examples=25, deadline=None)
    def test_counters_consistent(self, kernel):
        out = simulate(gt240(), launch_for(kernel))
        act = out.activity
        act.validate()
        assert act.issued_instructions >= len(kernel) - 2
        assert act.stack_pops <= act.stack_pushes + act.warps_launched
        assert act.threads_launched == N
        # lane ops never exceed threads x issued instructions
        assert act.int_ops + act.fp_ops + act.sfu_ops <= \
            act.issued_instructions * 32

    @given(kernel=random_kernels())
    @settings(max_examples=15, deadline=None)
    def test_power_evaluation_always_physical(self, kernel):
        from repro.core import GPUSimPow
        result = GPUSimPow(gt240()).run(launch_for(kernel))
        assert result.chip_dynamic_w >= 0
        assert result.chip_static_w > 0
        for node in result.power.gpu.walk():
            assert node.static_w >= 0
            assert node.dynamic_w >= 0
