"""The one kernel-facts pass (``repro.analysis.affine.kernel_facts``):
r/w modes for every access (affine or not), one summary per checked
function, and an analyzer crash that degrades soundly and visibly."""

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro import ocl
from repro.analysis import affine
from repro.analysis.access import kernel_buffer_accesses, pointer_param_modes
from repro.kernelc.frontend import compile_source

N = 64


def modes(source, name="k"):
    program = compile_source(source)
    fn = next(f for f in program.functions if f.name == name)
    return pointer_param_modes(program, fn)


@pytest.fixture
def ctx():
    context = ocl.Context.create(ocl.TEST_DEVICE, 1)
    yield context
    context.release()


def launch(ctx, source, *scalars):
    """Build ``source`` uncached, launch kernel ``k`` over N work-items
    on two fresh buffers; returns (kernel, ndrange event)."""
    ocl.clear_build_cache()
    queue = ctx.queues[0]
    a = ctx.create_buffer(4 * N * N, queue.device)
    b = ctx.create_buffer(4 * N * N, queue.device)
    kernel = ctx.create_program(source).build().create_kernel("k")
    kernel.set_args(a, b, *scalars)
    event = queue.enqueue_nd_range_kernel(kernel, (N,), (16,))
    event.wait()
    return kernel, event


class TestFallbackModes:
    def test_non_affine_store_still_reports_w(self, ctx):
        source = """
        __kernel void k(__global const float* in, __global float* out) {
            int i = get_global_id(0);
            out[i * i] = in[i];
        }"""
        kernel, _event = launch(ctx, source)
        summary = affine.kernel_facts(kernel.program.compiled.program,
                                      kernel.compiled.definition)
        assert not summary.params["out"].affine
        by_name = {a.provenance: a for a in kernel_buffer_accesses(
            kernel, ocl.NDRange((N,), (16,)))}
        assert by_name["arg out"].mode == "w"
        assert (by_name["arg out"].start, by_name["arg out"].stop) == (0, 4 * N * N)

    def test_pointer_passed_to_unknown_builtin_is_rw(self):
        assert modes("""
        __kernel void k(__global float* p, __global float* out) {
            int i = get_global_id(0);
            out[i] = vload4(i, p).x;
        }""") == {"p": "rw", "out": "w"}

    def test_const_pointer_to_unknown_builtin_stays_r(self):
        assert modes("""
        __kernel void k(__global const float* p, __global float* out) {
            int i = get_global_id(0);
            out[i] = vload4(i, p).x;
        }""") == {"p": "r", "out": "w"}

    def test_pointer_walked_by_a_loop_keeps_its_root(self):
        # The walking pointer keeps `out` as its root with an unknown
        # offset: the store makes `out` a write fallback, never an
        # affine parameter without footprints.
        source = """
        __kernel void k(__global int* out, int n) {
            __global int* p = out;
            for (int i = 0; i < n; ++i) { *p = 1; p++; }
        }"""
        program = compile_source(source)
        summary = affine.summarize_kernel(program, program.kernels()[0])
        assert not summary.params["out"].affine
        assert summary.params["out"].mode == "rw"  # aliased by p

    def test_switch_fallthrough_is_never_under_approximated(self):
        # c == 1 falls through into case 2 with j == 5: the summary may
        # not claim that only out[0] is written.
        source = """
        __kernel void k(__global int* out, int c) {
            int j = 0;
            switch (c) {
            case 1: j = 5;
            case 2: out[j] = 1; break;
            default: break;
            }
        }"""
        program = compile_source(source)
        summary = affine.summarize_kernel(program, program.kernels()[0])
        out = summary.params["out"]
        assert not out.affine or any(
            fp.index.format() == "5" for fp in out.footprints)

    def test_early_return_in_a_case_does_not_guard_code_after_switch(
            self, ctx):
        # `if (i > 3) return;` only runs when c == 0; with c == 1 every
        # work-item reaches the store after the switch.
        source = """
        __kernel void k(__global float* a, __global float* out, int c) {
            int i = get_global_id(0);
            switch (c) {
            case 0: if (i > 3) return; break;
            default: break;
            }
            out[i] = a[i];
        }"""
        kernel, _event = launch(ctx, source, np.int32(1))
        by_name = {a.buffer_name: a for a in kernel_buffer_accesses(
            kernel, ocl.NDRange((N,), (16,)))}
        for name in ("a", "out"):
            assert (by_name[name].start, by_name[name].stop) == (0, 4 * N)


class TestOneSummaryPerFunction:
    def test_repeated_map_summarizes_each_function_once(self, monkeypatch):
        monkeypatch.setenv("SKELCL_CACHE", "off")
        ocl.clear_build_cache()
        calls = []
        real = affine.summarize_kernel

        def counting(program, fn):
            calls.append(fn)
            return real(program, fn)

        monkeypatch.setattr(affine, "summarize_kernel", counting)
        skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE)
        try:
            m = skelcl.Map("float func(float x) { return 3.5f * x - 1.0f; }")
            data = np.arange(N, dtype=np.float32)
            v = skelcl.Vector(data=data)
            for _ in range(3):
                v = m(v)
                data = 3.5 * data - 1.0
            assert np.allclose(v.to_numpy(), data)
        finally:
            skelcl.terminate()
            ocl.clear_build_cache()
        assert any(fn.is_kernel for fn in calls)
        assert len({id(fn) for fn in calls}) == len(calls)


class TestAnalyzerCrash:
    SOURCE = """
    __kernel void k(__global const float* in, __global float* out) {
        int i = get_global_id(0);
        out[i] = in[i] + 1.0f;
    }"""

    @pytest.fixture
    def crashing(self, monkeypatch):
        def boom(self):
            raise RuntimeError("injected analyzer fault")

        monkeypatch.setattr(affine._Scanner, "run", boom)
        monkeypatch.setenv("SKELCL_CACHE", "off")
        monkeypatch.setenv("SKELCL_SANITIZE", "off")
        ocl.clear_build_cache()
        yield
        ocl.clear_build_cache()

    def test_kernel_builds_runs_and_degrades_to_whole_buffer_rw(
            self, crashing, ctx):
        queue = ctx.queues[0]
        data = np.arange(N, dtype=np.float32)
        src = ctx.create_buffer(4 * N, queue.device)
        dst = ctx.create_buffer(4 * N, queue.device)
        queue.enqueue_write_buffer(src, data).wait()
        kernel = ctx.create_program(self.SOURCE).build().create_kernel("k")
        kernel.set_args(src, dst)
        queue.enqueue_nd_range_kernel(kernel, (N,), (16,)).wait()
        out, _event = queue.enqueue_read_buffer(dst, np.float32, N)
        assert np.array_equal(out, data + 1.0)
        accesses = kernel_buffer_accesses(kernel, ocl.NDRange((N,), (16,)))
        assert [(a.mode, a.start, a.stop) for a in accesses] == [
            ("rw", 0, 4 * N), ("rw", 0, 4 * N)]
        summary = affine.kernel_facts(kernel.program.compiled.program,
                                      kernel.compiled.definition)
        assert summary.params["in"].fallback_reason == \
            "analyzer error: RuntimeError"

    def test_cli_prints_the_reason(self, crashing, tmp_path, capsys):
        from repro.kernelc.__main__ import main

        path = tmp_path / "k.cl"
        path.write_text(self.SOURCE)
        assert main([str(path), "--access"]) == 0
        out = capsys.readouterr().out
        assert "fallback — analyzer error: RuntimeError" in out

    def test_strict_mode_raises(self, crashing, monkeypatch):
        monkeypatch.setenv("SKELCL_SANITIZE", "strict")
        with pytest.raises(RuntimeError, match="injected analyzer fault"):
            ocl.Program(self.SOURCE).build()
