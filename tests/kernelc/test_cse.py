"""Soundness tests for the cost pass's load-CSE and strength reduction:
elided work must never change results, and invalidation must be
conservative across stores, calls, barriers and control flow.

Every case runs on both engines, which replay the same CSE decisions, so
agreement alone cannot prove them sound: each case also checks its
result against the value C semantics demand (the randomized sequences
against a Python model of the buffer).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from .helpers import run_both, run_kernel


def outputs_agree(source, arrays, args, n=1, local=None):
    (c_res, c_cnt), (i_res, i_cnt) = run_both(source, "k", arrays, args, n, local)
    for name in arrays:
        np.testing.assert_array_equal(c_res[name], i_res[name], err_msg=name)
    return c_res, c_cnt, i_cnt


class TestCseCorrectness:
    def test_repeated_load_elided_but_value_correct(self):
        src = """__kernel void k(__global const int* a, __global int* o) {
            o[0] = a[3] + a[3] + a[3];
        }"""
        arrays = {"a": np.arange(8, dtype=np.int32), "o": np.zeros(1, np.int32)}
        c_res, c_cnt, i_cnt = outputs_agree(src, arrays, ["a", "o"])
        assert c_res["o"][0] == 9
        # Both engines load once: the repeats reuse the first load.
        assert c_cnt.memory.global_loads == 1
        assert i_cnt.memory.global_loads == 1

    def test_store_invalidates_cached_load(self):
        src = """__kernel void k(__global int* a, __global int* o) {
            int x = a[0];
            a[0] = x + 10;
            o[0] = a[0];
        }"""
        arrays = {"a": np.array([5], np.int32), "o": np.zeros(1, np.int32)}
        c_res, _c, _i = outputs_agree(src, arrays, ["a", "o"])
        assert c_res["o"][0] == 15

    def test_store_through_alias_invalidates(self):
        src = """__kernel void k(__global int* a, __global int* o) {
            __global int* p = a;
            int x = a[0];
            p[0] = 99;
            o[0] = a[0] + x;
        }"""
        arrays = {"a": np.array([1], np.int32), "o": np.zeros(1, np.int32)}
        c_res, _c, _i = outputs_agree(src, arrays, ["a", "o"])
        assert c_res["o"][0] == 100

    def test_index_variable_reassignment_invalidates(self):
        src = """__kernel void k(__global const int* a, __global int* o) {
            int i = 0;
            int x = a[i];
            i = 1;
            o[0] = a[i] + x;
        }"""
        arrays = {"a": np.array([10, 20], np.int32), "o": np.zeros(1, np.int32)}
        c_res, _c, _i = outputs_agree(src, arrays, ["a", "o"])
        assert c_res["o"][0] == 30

    def test_increment_of_index_invalidates(self):
        src = """__kernel void k(__global const int* a, __global int* o) {
            int i = 0;
            int x = a[i];
            ++i;
            o[0] = a[i] + x;
        }"""
        arrays = {"a": np.array([10, 20], np.int32), "o": np.zeros(1, np.int32)}
        c_res, _c, _i = outputs_agree(src, arrays, ["a", "o"])
        assert c_res["o"][0] == 30

    def test_helper_call_invalidates(self):
        src = """
        void bump(__global int* a) { a[0] = a[0] + 1; }
        __kernel void k(__global int* a, __global int* o) {
            int x = a[0];
            bump(a);
            o[0] = a[0] + x;
        }"""
        arrays = {"a": np.array([7], np.int32), "o": np.zeros(1, np.int32)}
        c_res, _c, _i = outputs_agree(src, arrays, ["a", "o"])
        assert c_res["o"][0] == 15

    def test_loop_body_reloads_each_iteration(self):
        src = """__kernel void k(__global int* a, __global int* o) {
            int s = 0;
            for (int i = 0; i < 4; ++i) {
                s += a[0];
                a[0] = a[0] + 1;
            }
            o[0] = s;
        }"""
        arrays = {"a": np.array([1], np.int32), "o": np.zeros(1, np.int32)}
        c_res, _c, _i = outputs_agree(src, arrays, ["a", "o"])
        assert c_res["o"][0] == 1 + 2 + 3 + 4

    def test_load_cached_inside_branch_not_reused_outside(self):
        src = """__kernel void k(__global const int* a, __global int* o, int c) {
            int x = 0;
            if (c) { x = a[0]; }
            o[0] = a[0] + x;
        }"""
        for c in (0, 1):
            arrays = {"a": np.array([4], np.int32), "o": np.zeros(1, np.int32)}
            c_res, _c, _i = outputs_agree(src, arrays, ["a", "o", c])
            assert c_res["o"][0] == (8 if c else 4)

    def test_short_circuit_load_not_hoisted(self):
        # The right side of && must not evaluate when the left is false:
        # the load would be out of bounds for gid >= n.
        src = """__kernel void k(__global const int* a, __global int* o, int n) {
            int gid = get_global_id(0);
            if (gid < n && a[gid] > 0) {
                o[gid] = a[gid];
            }
        }"""
        arrays = {"a": np.array([1, -2], np.int32), "o": np.zeros(4, np.int32)}
        c_res, _c, _i = outputs_agree(src, arrays, ["a", "o", 2], n=4)
        assert list(c_res["o"]) == [1, 0, 0, 0]

    def test_ternary_branches_not_merged(self):
        src = """__kernel void k(__global const int* a, __global int* o, int c) {
            o[0] = c ? a[0] : a[1];
            o[1] = a[0];
        }"""
        for c in (0, 1):
            arrays = {"a": np.array([10, 20], np.int32), "o": np.zeros(2, np.int32)}
            c_res, _c, _i = outputs_agree(src, arrays, ["a", "o", c])
            assert c_res["o"][0] == (10 if c else 20)
            assert c_res["o"][1] == 10

    def test_barrier_invalidates_local_loads(self):
        src = """__kernel void k(__global const int* a, __global int* o) {
            __local int t[2];
            int lid = get_local_id(0);
            t[lid] = a[lid];
            barrier(CLK_LOCAL_MEM_FENCE);
            int x = t[1 - lid];
            barrier(CLK_LOCAL_MEM_FENCE);
            t[lid] = x * 2;
            barrier(CLK_LOCAL_MEM_FENCE);
            o[lid] = t[1 - lid];
        }"""
        arrays = {"a": np.array([3, 4], np.int32), "o": np.zeros(2, np.int32)}
        c_res, _c, _i = outputs_agree(src, arrays, ["a", "o"], n=2, local=2)
        assert list(c_res["o"]) == [6, 8]  # t[1-lid] after doubling: [4*2? ...]

    def test_different_indices_not_merged(self):
        src = """__kernel void k(__global const int* a, __global int* o) {
            o[0] = a[0] + a[1];
        }"""
        arrays = {"a": np.array([1, 2], np.int32), "o": np.zeros(1, np.int32)}
        c_res, c_cnt, _ = outputs_agree(src, arrays, ["a", "o"])
        assert c_res["o"][0] == 3
        assert c_cnt.memory.global_loads == 2

    def test_switch_cases_isolated(self):
        src = """__kernel void k(__global int* a, __global int* o, int c) {
            int s = 0;
            switch (c) {
                case 0: s = a[0]; a[0] = 99; break;
                case 1: s = a[0] * 2; break;
            }
            o[0] = s + a[0];
        }"""
        for c, expected in ((0, 5 + 99), (1, 10 + 5)):
            arrays = {"a": np.array([5], np.int32), "o": np.zeros(1, np.int32)}
            c_res, _c, _i = outputs_agree(src, arrays, ["a", "o", c])
            assert c_res["o"][0] == expected


class TestStrengthReduction:
    def test_multiply_by_one_and_minus_one(self):
        src = """__kernel void k(__global int* o, int x) {
            o[0] = 1 * x;
            o[1] = x * 1;
            o[2] = -1 * x;
            o[3] = x * -1;
        }"""
        arrays = {"o": np.zeros(4, np.int32)}
        c_res, _c, _i = outputs_agree(src, arrays, ["o", 7])
        assert list(c_res["o"]) == [7, 7, -7, -7]

    def test_minus_one_times_unsigned_wraps(self):
        src = "__kernel void k(__global uint* o, uint x) { o[0] = -1 * x; }"
        arrays = {"o": np.zeros(1, np.uint32)}
        c_res, _c, _i = outputs_agree(src, arrays, ["o", 3])
        assert c_res["o"][0] == 4294967293

    def test_add_zero(self):
        src = """__kernel void k(__global float* o, float x) {
            o[0] = x + 0.0f;
            o[1] = 0.0f + x;
            o[2] = x - 0.0f;
        }"""
        arrays = {"o": np.zeros(3, np.float32)}
        c_res, _c, _i = outputs_agree(src, arrays, ["o", 2.5])
        assert list(c_res["o"]) == [2.5, 2.5, 2.5]

    def test_folded_ops_not_charged(self):
        from repro.kernelc import compile_source
        from repro.kernelc.cost import node_cost

        program = compile_source("__kernel void k(__global int* o, int x) { o[0] = 1 * x + 0; }")
        statement = program.function("k").body.statements[0]
        baseline = compile_source("__kernel void k(__global int* o, int x) { o[0] = x; }")
        base_statement = baseline.function("k").body.statements[0]
        assert node_cost(statement.expr) == node_cost(base_statement.expr)


class TestCseRandomized:
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["load", "store", "loadstore"]),
                      st.integers(0, 3), st.integers(-5, 5)),
            min_size=1, max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_random_load_store_sequences(self, ops):
        """Random straight-line load/store sequences over one buffer:
        both engines (with CSE) must produce the memory and accumulator
        results of plain sequential execution."""
        lines = ["int acc = 0;"]
        model = list(range(4))
        acc = 0
        for kind, index, value in ops:
            if kind == "load":
                lines.append(f"acc += a[{index}];")
                acc += model[index]
            elif kind == "store":
                lines.append(f"a[{index}] = acc + {value};")
                model[index] = acc + value
            else:
                lines.append(f"a[{index}] = a[{index}] + {value};")
                model[index] += value
        lines.append("o[0] = acc;")
        body = "\n            ".join(lines)
        src = f"""__kernel void k(__global int* a, __global int* o) {{
            {body}
        }}"""
        arrays = {"a": np.arange(4, dtype=np.int32), "o": np.zeros(1, np.int32)}
        c_res, _c, _i = outputs_agree(src, arrays, ["a", "o"])
        assert list(c_res["a"]) == model
        assert c_res["o"][0] == acc
