"""Execution semantics tests, run against BOTH paths.

Each test exercises one language feature end-to-end through a kernel and
asserts the numeric result, parametrized over the interpreter and the
production path ("compiler": the built program on the vectorizer, with
its per-item fallback) so the two stay in lockstep.
"""

import numpy as np
import pytest

from repro.kernelc.diagnostics import CompileError
from repro.kernelc.memory import KernelFault

from .helpers import run_kernel

BACKENDS = ["compiler", "interp"]


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def run1(source, arrays, args, n=1, backend="compiler", kernel="k", local=None):
    results, _counters = run_kernel(source, kernel, arrays, args, n, local, backend=backend)
    return results


class TestArithmetic:
    def test_integer_division_truncates_toward_zero(self, backend):
        src = """__kernel void k(__global int* o) {
            o[0] = 7 / 2; o[1] = -7 / 2; o[2] = 7 / -2; o[3] = -7 / -2;
        }"""
        out = run1(src, {"o": np.zeros(4, np.int32)}, ["o"], backend=backend)["o"]
        assert list(out) == [3, -3, -3, 3]

    def test_integer_remainder_sign(self, backend):
        src = """__kernel void k(__global int* o) {
            o[0] = 7 % 3; o[1] = -7 % 3; o[2] = 7 % -3;
        }"""
        out = run1(src, {"o": np.zeros(3, np.int32)}, ["o"], backend=backend)["o"]
        assert list(out) == [1, -1, 1]

    def test_integer_division_by_zero_faults(self, backend):
        src = "__kernel void k(__global int* o, int z) { o[0] = 1 / z; }"
        with pytest.raises(KernelFault):
            run1(src, {"o": np.zeros(1, np.int32)}, ["o", 0], backend=backend)

    def test_float_division_by_zero_gives_inf(self, backend):
        src = "__kernel void k(__global float* o, float z) { o[0] = 1.0f / z; }"
        out = run1(src, {"o": np.zeros(1, np.float32)}, ["o", 0.0], backend=backend)["o"]
        assert np.isinf(out[0])

    def test_unsigned_wraparound(self, backend):
        src = "__kernel void k(__global uint* o) { uint x = 0u; o[0] = x - 1u; }"
        out = run1(src, {"o": np.zeros(1, np.uint32)}, ["o"], backend=backend)["o"]
        assert out[0] == 4294967295

    def test_uchar_store_wraps(self, backend):
        src = "__kernel void k(__global uchar* o) { o[0] = 300; o[1] = (uchar)(256 + 7); }"
        out = run1(src, {"o": np.zeros(2, np.uint8)}, ["o"], backend=backend)["o"]
        assert list(out) == [44, 7]

    def test_shift_count_masked_by_width(self, backend):
        src = "__kernel void k(__global int* o, int s) { o[0] = 1 << s; }"
        out = run1(src, {"o": np.zeros(1, np.int32)}, ["o", 33], backend=backend)["o"]
        assert out[0] == 2  # 33 % 32 == 1

    def test_float_to_int_cast_truncates(self, backend):
        src = """__kernel void k(__global int* o) {
            o[0] = (int)2.9f; o[1] = (int)-2.9f;
        }"""
        out = run1(src, {"o": np.zeros(2, np.int32)}, ["o"], backend=backend)["o"]
        assert list(out) == [2, -2]

    def test_char_literal_arithmetic(self, backend):
        src = "__kernel void k(__global int* o) { o[0] = 'A' + 1; }"
        out = run1(src, {"o": np.zeros(1, np.int32)}, ["o"], backend=backend)["o"]
        assert out[0] == 66

    def test_ternary(self, backend):
        src = "__kernel void k(__global int* o, int x) { o[0] = x > 0 ? 10 : 20; }"
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o", 5], backend=backend)["o"][0] == 10
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o", -5], backend=backend)["o"][0] == 20

    def test_logical_short_circuit_protects_division(self, backend):
        src = """__kernel void k(__global int* o, int z) {
            o[0] = (z != 0 && 10 / z > 1) ? 1 : 0;
        }"""
        out = run1(src, {"o": np.zeros(1, np.int32)}, ["o", 0], backend=backend)["o"]
        assert out[0] == 0

    def test_compound_assignment_ops(self, backend):
        src = """__kernel void k(__global int* o) {
            int x = 10; x += 5; x -= 3; x *= 2; x /= 3; x %= 5; x <<= 2; x >>= 1; x |= 8; x &= 12; x ^= 5;
            o[0] = x;
        }"""
        x = 10
        x += 5; x -= 3; x *= 2; x //= 3; x %= 5; x <<= 2; x >>= 1; x |= 8; x &= 12; x ^= 5
        out = run1(src, {"o": np.zeros(1, np.int32)}, ["o"], backend=backend)["o"]
        assert out[0] == x

    def test_pre_and_post_increment(self, backend):
        src = """__kernel void k(__global int* o) {
            int x = 5;
            o[0] = x++; o[1] = x; o[2] = ++x; o[3] = x--; o[4] = --x;
        }"""
        out = run1(src, {"o": np.zeros(5, np.int32)}, ["o"], backend=backend)["o"]
        assert list(out) == [5, 6, 7, 7, 5]

    def test_comma_operator(self, backend):
        src = "__kernel void k(__global int* o) { int x; int y = (x = 3, x + 1); o[0] = y; }"
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o"], backend=backend)["o"][0] == 4

    def test_sizeof(self, backend):
        src = """__kernel void k(__global int* o, float f) {
            o[0] = sizeof(float); o[1] = sizeof(double); o[2] = sizeof f; o[3] = sizeof(float4);
        }"""
        out = run1(src, {"o": np.zeros(4, np.int32)}, ["o", 0.0], backend=backend)["o"]
        assert list(out) == [4, 8, 4, 16]


class TestControlFlow:
    def test_for_loop_sum(self, backend):
        src = """__kernel void k(__global int* o, int n) {
            int s = 0;
            for (int i = 0; i < n; ++i) s += i;
            o[0] = s;
        }"""
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o", 10], backend=backend)["o"][0] == 45

    def test_while_loop(self, backend):
        src = """__kernel void k(__global int* o, int n) {
            int c = 0;
            while (n > 1) { n = (n % 2 == 0) ? n / 2 : 3 * n + 1; ++c; }
            o[0] = c;
        }"""
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o", 6], backend=backend)["o"][0] == 8

    def test_do_while_runs_once(self, backend):
        src = """__kernel void k(__global int* o) {
            int c = 0;
            do { ++c; } while (0);
            o[0] = c;
        }"""
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o"], backend=backend)["o"][0] == 1

    def test_break_in_for(self, backend):
        src = """__kernel void k(__global int* o) {
            int s = 0;
            for (int i = 0; i < 100; ++i) { if (i == 5) break; s += i; }
            o[0] = s;
        }"""
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o"], backend=backend)["o"][0] == 10

    def test_continue_in_for_runs_increment(self, backend):
        src = """__kernel void k(__global int* o) {
            int s = 0;
            for (int i = 0; i < 10; ++i) { if (i % 2 == 0) continue; s += i; }
            o[0] = s;
        }"""
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o"], backend=backend)["o"][0] == 25

    def test_continue_in_while(self, backend):
        src = """__kernel void k(__global int* o) {
            int s = 0; int i = 0;
            while (i < 10) { ++i; if (i % 2 == 0) continue; s += i; }
            o[0] = s;
        }"""
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o"], backend=backend)["o"][0] == 25

    def test_continue_in_do_while_checks_condition(self, backend):
        src = """__kernel void k(__global int* o) {
            int i = 0; int s = 0;
            do { ++i; if (i > 3) continue; s += i; } while (i < 6);
            o[0] = s; o[1] = i;
        }"""
        out = run1(src, {"o": np.zeros(2, np.int32)}, ["o"], backend=backend)["o"]
        assert list(out) == [6, 6]

    def test_nested_loops_with_break(self, backend):
        src = """__kernel void k(__global int* o) {
            int c = 0;
            for (int i = 0; i < 4; ++i)
                for (int j = 0; j < 4; ++j) {
                    if (j > i) break;
                    ++c;
                }
            o[0] = c;
        }"""
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o"], backend=backend)["o"][0] == 10

    def test_switch_with_fallthrough(self, backend):
        src = """__kernel void k(__global int* o, int x) {
            int r = 0;
            switch (x) {
                case 1: r += 1;
                case 2: r += 2; break;
                case 3: r += 3; break;
                default: r = 99;
            }
            o[0] = r;
        }"""
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o", 1], backend=backend)["o"][0] == 3
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o", 2], backend=backend)["o"][0] == 2
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o", 3], backend=backend)["o"][0] == 3
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o", 7], backend=backend)["o"][0] == 99

    def test_switch_break_inside_loop(self, backend):
        src = """__kernel void k(__global int* o) {
            int s = 0;
            for (int i = 0; i < 5; ++i) {
                switch (i) {
                    case 2: s += 100; break;
                    default: s += 1;
                }
            }
            o[0] = s;
        }"""
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o"], backend=backend)["o"][0] == 104

    def test_continue_inside_switch_inside_loop(self, backend):
        src = """__kernel void k(__global int* o) {
            int s = 0;
            for (int i = 0; i < 5; ++i) {
                switch (i % 2) {
                    case 0: continue;
                    default: ;
                }
                s += i;
            }
            o[0] = s;
        }"""
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o"], backend=backend)["o"][0] == 4

    def test_early_return(self, backend):
        src = """__kernel void k(__global int* o, int x) {
            if (x < 0) { o[0] = -1; return; }
            o[0] = 1;
        }"""
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o", -3], backend=backend)["o"][0] == -1


class TestFunctionsAndMemory:
    def test_helper_function_call(self, backend):
        src = """
        int fib(int n) {
            if (n < 2) return n;
            int a = 0; int b = 1;
            for (int i = 2; i <= n; ++i) { int t = a + b; a = b; b = t; }
            return b;
        }
        __kernel void k(__global int* o) { o[0] = fib(10); }
        """
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o"], backend=backend)["o"][0] == 55

    def test_recursive_function(self, backend):
        # OpenCL C forbids recursion: the build fails at the call site
        # that closes the cycle, before either engine runs.
        src = """
        int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }
        __kernel void k(__global int* o) { o[0] = fact(6); }
        """
        with pytest.raises(CompileError, match="recursive call to 'fact'") as info:
            run1(src, {"o": np.zeros(1, np.int32)}, ["o"], backend=backend)
        assert info.value.diagnostics[0].span.start.line == 2

    def test_pointer_walk(self, backend):
        src = """__kernel void k(__global const int* in, __global int* o, int n) {
            __global const int* p = in;
            int s = 0;
            for (int i = 0; i < n; ++i) { s += *p; ++p; }
            o[0] = s;
        }"""
        arrays = {"in": np.arange(8, dtype=np.int32), "o": np.zeros(1, np.int32)}
        assert run1(src, arrays, ["in", "o", 8], backend=backend)["o"][0] == 28

    def test_pointer_difference(self, backend):
        src = """__kernel void k(__global const int* in, __global int* o) {
            __global const int* p = in + 5;
            o[0] = p - in;
        }"""
        arrays = {"in": np.zeros(8, np.int32), "o": np.zeros(1, np.int32)}
        assert run1(src, arrays, ["in", "o"], backend=backend)["o"][0] == 5

    def test_out_of_bounds_load_faults(self, backend):
        src = "__kernel void k(__global const int* in, __global int* o) { o[0] = in[100]; }"
        arrays = {"in": np.zeros(8, np.int32), "o": np.zeros(1, np.int32)}
        with pytest.raises(KernelFault):
            run1(src, arrays, ["in", "o"], backend=backend)

    def test_out_of_bounds_store_faults(self, backend):
        src = "__kernel void k(__global int* o) { o[-1] = 3; }"
        with pytest.raises(KernelFault):
            run1(src, {"o": np.zeros(4, np.int32)}, ["o"], backend=backend)

    def test_private_array(self, backend):
        src = """__kernel void k(__global int* o) {
            int a[5];
            for (int i = 0; i < 5; ++i) a[i] = i * i;
            int s = 0;
            for (int i = 0; i < 5; ++i) s += a[i];
            o[0] = s;
        }"""
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o"], backend=backend)["o"][0] == 30

    def test_private_array_initializer(self, backend):
        src = """__kernel void k(__global int* o) {
            int w[4] = {1, -2, 3, -4};
            o[0] = w[0] + w[1] + w[2] + w[3];
        }"""
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o"], backend=backend)["o"][0] == -2

    def test_two_dimensional_private_array(self, backend):
        src = """__kernel void k(__global int* o) {
            int m[2][3];
            for (int i = 0; i < 2; ++i)
                for (int j = 0; j < 3; ++j)
                    m[i][j] = i * 3 + j;
            o[0] = m[1][2];
        }"""
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o"], backend=backend)["o"][0] == 5

    def test_constant_global_array(self, backend):
        src = """
        __constant int WEIGHTS[3] = {2, 5, 11};
        __kernel void k(__global int* o) { o[0] = WEIGHTS[0] + WEIGHTS[1] + WEIGHTS[2]; }
        """
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o"], backend=backend)["o"][0] == 18

    def test_pointer_cast_reinterpret(self, backend):
        src = """__kernel void k(__global uchar* bytes, __global int* o) {
            __global int* words = (__global int*)bytes;
            o[0] = words[0];
        }"""
        raw = np.array([1, 0, 0, 0], dtype=np.uint8)  # little-endian 1
        arrays = {"bytes": raw, "o": np.zeros(1, np.int32)}
        assert run1(src, arrays, ["bytes", "o"], backend=backend)["o"][0] == 1


class TestBuiltinsExecution:
    def test_math_builtins(self, backend):
        src = """__kernel void k(__global float* o, float x) {
            o[0] = sqrt(x); o[1] = fabs(-x); o[2] = floor(x); o[3] = ceil(x);
            o[4] = fmin(x, 1.0f); o[5] = fmax(x, 10.0f); o[6] = pow(x, 2.0f);
        }"""
        out = run1(src, {"o": np.zeros(7, np.float32)}, ["o", 6.25], backend=backend)["o"]
        assert out[0] == pytest.approx(2.5)
        assert out[1] == pytest.approx(6.25)
        assert out[2] == 6.0 and out[3] == 7.0
        assert out[4] == 1.0 and out[5] == 10.0
        assert out[6] == pytest.approx(39.0625)

    def test_min_max_clamp_int(self, backend):
        src = """__kernel void k(__global int* o) {
            o[0] = min(3, 5); o[1] = max(-3, -5); o[2] = clamp(17, 0, 10); o[3] = abs(-9);
        }"""
        out = run1(src, {"o": np.zeros(4, np.int32)}, ["o"], backend=backend)["o"]
        assert list(out) == [3, -3, 10, 9]

    def test_mad_and_fma(self, backend):
        src = "__kernel void k(__global float* o) { o[0] = mad(2.0f, 3.0f, 4.0f); o[1] = fma(2.0f, 3.0f, 4.0f); }"
        out = run1(src, {"o": np.zeros(2, np.float32)}, ["o"], backend=backend)["o"]
        assert list(out) == [10.0, 10.0]

    def test_native_prefix_behaves_like_plain(self, backend):
        src = "__kernel void k(__global float* o, float x) { o[0] = native_sin(x) - sin(x); }"
        out = run1(src, {"o": np.zeros(1, np.float32)}, ["o", 0.7], backend=backend)["o"]
        assert out[0] == pytest.approx(0.0, abs=1e-6)

    def test_workitem_ids(self, backend):
        src = """__kernel void k(__global int* gids, __global int* lids, __global int* grps) {
            size_t g = get_global_id(0);
            gids[g] = g;
            lids[g] = get_local_id(0);
            grps[g] = get_group_id(0);
        }"""
        arrays = {
            "gids": np.zeros(8, np.int32),
            "lids": np.zeros(8, np.int32),
            "grps": np.zeros(8, np.int32),
        }
        out = run1(src, arrays, ["gids", "lids", "grps"], n=8, local=4, backend=backend)
        assert list(out["gids"]) == list(range(8))
        assert list(out["lids"]) == [0, 1, 2, 3, 0, 1, 2, 3]
        assert list(out["grps"]) == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_get_global_size_and_num_groups(self, backend):
        src = """__kernel void k(__global int* o) {
            o[0] = get_global_size(0); o[1] = get_local_size(0);
            o[2] = get_num_groups(0); o[3] = get_work_dim();
            o[4] = get_global_size(1); o[5] = get_global_id(2);
        }"""
        out = run1(src, {"o": np.zeros(6, np.int32)}, ["o"], n=4, local=2, backend=backend)["o"]
        assert list(out) == [4, 2, 2, 1, 1, 0]

    def test_dot_and_length(self, backend):
        src = """__kernel void k(__global float* o) {
            float4 a = (float4)(1.0f, 2.0f, 3.0f, 4.0f);
            float4 b = (float4)(4.0f, 3.0f, 2.0f, 1.0f);
            o[0] = dot(a, b);
            o[1] = length((float4)(3.0f, 4.0f, 0.0f, 0.0f));
        }"""
        out = run1(src, {"o": np.zeros(2, np.float32)}, ["o"], backend=backend)["o"]
        assert out[0] == pytest.approx(20.0)
        assert out[1] == pytest.approx(5.0)

    def test_select(self, backend):
        src = "__kernel void k(__global int* o, int c) { o[0] = select(10, 20, c); }"
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o", 1], backend=backend)["o"][0] == 20
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o", 0], backend=backend)["o"][0] == 10

    def test_popcount_and_clz(self, backend):
        src = "__kernel void k(__global int* o) { o[0] = popcount(0xF0F0); o[1] = clz(1); }"
        out = run1(src, {"o": np.zeros(2, np.int32)}, ["o"], backend=backend)["o"]
        assert list(out) == [8, 31]

    def test_convert_sat_like_conversion(self, backend):
        src = "__kernel void k(__global int* o, float x) { o[0] = convert_int(x); }"
        assert run1(src, {"o": np.zeros(1, np.int32)}, ["o", 7.9], backend=backend)["o"][0] == 7

    def test_as_uint_bit_pattern(self, backend):
        src = "__kernel void k(__global uint* o) { o[0] = as_uint(1.0f); }"
        out = run1(src, {"o": np.zeros(1, np.uint32)}, ["o"], backend=backend)["o"]
        assert out[0] == 0x3F800000


class TestVectorsExecution:
    def test_vector_arithmetic_and_store(self, backend):
        src = """__kernel void k(__global float* o) {
            float4 a = (float4)(1.0f, 2.0f, 3.0f, 4.0f);
            float4 b = a * 2.0f + (float4)(1.0f);
            o[0] = b.x; o[1] = b.y; o[2] = b.z; o[3] = b.w;
        }"""
        out = run1(src, {"o": np.zeros(4, np.float32)}, ["o"], backend=backend)["o"]
        assert list(out) == [3.0, 5.0, 7.0, 9.0]

    def test_component_write(self, backend):
        src = """__kernel void k(__global float* o) {
            float4 v = (float4)(0.0f);
            v.x = 1.0f; v.w = 4.0f;
            o[0] = v.x + v.y + v.z + v.w;
        }"""
        assert run1(src, {"o": np.zeros(1, np.float32)}, ["o"], backend=backend)["o"][0] == 5.0

    def test_swizzle_read_and_write(self, backend):
        src = """__kernel void k(__global float* o) {
            float4 v = (float4)(1.0f, 2.0f, 3.0f, 4.0f);
            float2 w = v.wx;
            v.xy = (float2)(9.0f, 8.0f);
            o[0] = w.x; o[1] = w.y; o[2] = v.x; o[3] = v.y;
        }"""
        out = run1(src, {"o": np.zeros(4, np.float32)}, ["o"], backend=backend)["o"]
        assert list(out) == [4.0, 1.0, 9.0, 8.0]

    def test_vector_value_semantics_on_assignment(self, backend):
        src = """__kernel void k(__global float* o) {
            float2 a = (float2)(1.0f, 2.0f);
            float2 b = a;
            b.x = 99.0f;
            o[0] = a.x;
        }"""
        assert run1(src, {"o": np.zeros(1, np.float32)}, ["o"], backend=backend)["o"][0] == 1.0

    def test_vector_load_store_through_pointer(self, backend):
        src = """__kernel void k(__global float4* v, __global float* o) {
            float4 x = v[0];
            v[1] = x * x;
            o[0] = x.y;
        }"""
        arrays = {"v": np.array([1, 2, 3, 4, 0, 0, 0, 0], np.float32), "o": np.zeros(1, np.float32)}
        out = run1(src, arrays, ["v", "o"], backend=backend)
        assert out["o"][0] == 2.0
        assert list(out["v"][4:]) == [1.0, 4.0, 9.0, 16.0]

    def test_vector_compare_and_select(self, backend):
        src = """__kernel void k(__global int* o) {
            int4 a = (int4)(1, 5, 3, 7);
            int4 b = (int4)(4, 2, 3, 9);
            int4 m = a < b;
            o[0] = m.x; o[1] = m.y; o[2] = m.z; o[3] = m.w;
        }"""
        out = run1(src, {"o": np.zeros(4, np.int32)}, ["o"], backend=backend)["o"]
        assert list(out) == [-1, 0, 0, -1]


class TestBarriers:
    def test_local_memory_reverse(self, backend):
        src = """__kernel void k(__global const int* in, __global int* out) {
            __local int tile[8];
            int lid = get_local_id(0);
            tile[lid] = in[get_global_id(0)];
            barrier(CLK_LOCAL_MEM_FENCE);
            out[get_global_id(0)] = tile[7 - lid];
        }"""
        arrays = {"in": np.arange(8, dtype=np.int32), "out": np.zeros(8, np.int32)}
        out = run1(src, arrays, ["in", "out"], n=8, local=8, backend=backend)["out"]
        assert list(out) == list(range(7, -1, -1))

    def test_barrier_per_group_isolation(self, backend):
        src = """__kernel void k(__global const int* in, __global int* out) {
            __local int tile[4];
            int lid = get_local_id(0);
            tile[lid] = in[get_global_id(0)];
            barrier(CLK_LOCAL_MEM_FENCE);
            out[get_global_id(0)] = tile[3 - lid];
        }"""
        arrays = {"in": np.arange(8, dtype=np.int32), "out": np.zeros(8, np.int32)}
        out = run1(src, arrays, ["in", "out"], n=8, local=4, backend=backend)["out"]
        assert list(out) == [3, 2, 1, 0, 7, 6, 5, 4]

    def test_barrier_divergence_detected(self, backend):
        pytest.importorskip("repro.ocl")
        from repro.ocl import Context, Program, TEST_DEVICE

        src = """__kernel void k(__global int* o) {
            if (get_local_id(0) == 0) { barrier(CLK_LOCAL_MEM_FENCE); }
            o[get_global_id(0)] = 1;
        }"""
        ctx = Context.create(TEST_DEVICE)
        buf = ctx.create_buffer(8 * 4)
        program = Program(src).build()
        kernel = program.create_kernel("k").set_args(buf)
        with pytest.raises(KernelFault):
            ctx.queues[0].enqueue_nd_range_kernel(kernel, (8,), (8,))


class TestVloadVstore:
    def test_vload4_reads_consecutive(self, backend):
        src = """__kernel void k(__global const float* in, __global float* o) {
            float4 v = vload4(1, in);
            o[0] = v.x; o[1] = v.y; o[2] = v.z; o[3] = v.w;
        }"""
        arrays = {"in": np.arange(8, dtype=np.float32), "o": np.zeros(4, np.float32)}
        out = run1(src, arrays, ["in", "o"], backend=backend)["o"]
        assert list(out) == [4.0, 5.0, 6.0, 7.0]

    def test_vstore2_writes_consecutive(self, backend):
        src = """__kernel void k(__global float* o) {
            float2 v = (float2)(9.0f, 8.0f);
            vstore2(v, 1, o);
        }"""
        out = run1(src, {"o": np.zeros(4, np.float32)}, ["o"], backend=backend)["o"]
        assert list(out) == [0.0, 0.0, 9.0, 8.0]

    def test_vload_counts_memory_traffic(self, backend):
        src = """__kernel void k(__global const float* in, __global float* o) {
            float4 v = vload4(0, in);
            o[0] = v.x;
        }"""
        arrays = {"in": np.zeros(4, np.float32), "o": np.zeros(1, np.float32)}
        _, counters = run_kernel(src, "k", arrays, ["in", "o"], 1, backend=backend)
        assert counters.memory.global_loads == 4

    def test_vload_out_of_bounds_faults(self, backend):
        src = """__kernel void k(__global const float* in, __global float* o) {
            float4 v = vload4(1, in);
            o[0] = v.x;
        }"""
        arrays = {"in": np.zeros(4, np.float32), "o": np.zeros(1, np.float32)}
        with pytest.raises(KernelFault):
            run1(src, arrays, ["in", "o"], backend=backend)
