"""Property-based differential testing: the production path (the
vectorizer, with its per-item fallback) must agree bit for bit with the
reference interpreter on randomly generated programs, and both must
agree with numpy on vectorizable arithmetic.

Programs are generated as source strings: random integer expression
trees (division-safe), random float expressions and random loop bounds.
Both engines share one value contract (float32 chains evaluate in double
and round at the store), so floats compare exactly too.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from .helpers import run_both, run_kernel

# -- expression generators ----------------------------------------------------

_INT_LEAVES = st.sampled_from(["x", "y", "2", "3", "7", "(-5)", "1"])
_INT_OPS = st.sampled_from(["+", "-", "*", "&", "|", "^"])


def int_expr(depth: int = 3):
    if depth == 0:
        return _INT_LEAVES
    return st.one_of(
        _INT_LEAVES,
        st.tuples(_INT_OPS, int_expr(depth - 1), int_expr(depth - 1)).map(
            lambda t: f"({t[1]} {t[0]} {t[2]})"
        ),
        int_expr(depth - 1).map(lambda e: f"(- {e})"),
        int_expr(depth - 1).map(lambda e: f"(~{e})"),
        # Division guarded against zero and INT_MIN/-1 by construction.
        st.tuples(int_expr(depth - 1), st.sampled_from(["3", "7", "-2"])).map(
            lambda t: f"({t[0]} / {t[1]})"
        ),
        st.tuples(int_expr(depth - 1), st.sampled_from(["3", "5"])).map(
            lambda t: f"({t[0]} % {t[1]})"
        ),
    )


_FLOAT_LEAVES = st.sampled_from(["x", "y", "2.0f", "0.5f", "1.25f", "-3.0f"])
_FLOAT_OPS = st.sampled_from(["+", "-", "*"])


def float_expr(depth: int = 3):
    if depth == 0:
        return _FLOAT_LEAVES
    return st.one_of(
        _FLOAT_LEAVES,
        st.tuples(_FLOAT_OPS, float_expr(depth - 1), float_expr(depth - 1)).map(
            lambda t: f"({t[1]} {t[0]} {t[2]})"
        ),
        float_expr(depth - 1).map(lambda e: f"fabs({e})"),
        float_expr(depth - 1).map(lambda e: f"fmin({e}, 8.0f)"),
        float_expr(depth - 1).map(lambda e: f"fmax({e}, -8.0f)"),
    )


class TestIntegerExpressions:
    @given(expr=int_expr(), x=st.integers(-50, 50), y=st.integers(-50, 50))
    @settings(max_examples=60, deadline=None)
    def test_backends_agree(self, expr, x, y):
        src = f"""__kernel void k(__global long* o, int x, int y) {{
            o[0] = (long)({expr});
        }}"""
        arrays = {"o": np.zeros(1, np.int64)}
        (c_res, c_cnt), (i_res, i_cnt) = run_both(src, "k", arrays, ["o", x, y], 1)
        assert c_res["o"][0] == i_res["o"][0]
        # Memory traffic must match exactly between backends.
        assert c_cnt.memory.global_stores == i_cnt.memory.global_stores

    @given(expr=int_expr(depth=2), x=st.integers(-10, 10), y=st.integers(-10, 10))
    @settings(max_examples=30, deadline=None)
    def test_matches_python_semantics(self, expr, x, y):
        src = f"""__kernel void k(__global long* o, int x, int y) {{
            o[0] = (long)({expr});
        }}"""
        arrays = {"o": np.zeros(1, np.int64)}
        result, _ = run_kernel(src, "k", arrays, ["o", x, y], 1)

        import re

        literal_wrapped = re.sub(r"(?<![\w.])(\d+)", r"_C(\1)", expr)
        env = {"x": _C(x), "y": _C(y), "_C": _C}
        value = eval(literal_wrapped, {"_C": _C}, env)  # noqa: S307 - test oracle
        value = value.v if isinstance(value, _C) else value
        wrapped = ((value + 2**63) % 2**64) - 2**63  # wrap to int64
        assert result["o"][0] == wrapped


class _C:
    """Oracle integer with C semantics (truncating / and %)."""

    def __init__(self, v):
        self.v = v.v if isinstance(v, _C) else int(v)

    @staticmethod
    def _of(x):
        return x.v if isinstance(x, _C) else int(x)

    def __add__(self, o):
        return _C(self.v + self._of(o))

    __radd__ = __add__

    def __sub__(self, o):
        return _C(self.v - self._of(o))

    def __rsub__(self, o):
        return _C(self._of(o) - self.v)

    def __mul__(self, o):
        return _C(self.v * self._of(o))

    __rmul__ = __mul__

    def __and__(self, o):
        return _C(self.v & self._of(o))

    __rand__ = __and__

    def __or__(self, o):
        return _C(self.v | self._of(o))

    __ror__ = __or__

    def __xor__(self, o):
        return _C(self.v ^ self._of(o))

    __rxor__ = __xor__

    def __neg__(self):
        return _C(-self.v)

    def __invert__(self):
        return _C(~self.v)

    def _cdiv(self, a, b):
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q

    def __truediv__(self, o):
        return _C(self._cdiv(self.v, self._of(o)))

    def __rtruediv__(self, o):
        return _C(self._cdiv(self._of(o), self.v))

    def __mod__(self, o):
        b = self._of(o)
        return _C(self.v - self._cdiv(self.v, b) * b)

    def __rmod__(self, o):
        a = self._of(o)
        return _C(a - self._cdiv(a, self.v) * self.v)


class TestFloatExpressions:
    @given(expr=float_expr(), x=st.floats(-4, 4, width=32), y=st.floats(-4, 4, width=32))
    @settings(max_examples=60, deadline=None)
    def test_backends_agree_bit_exact(self, expr, x, y):
        src = f"""__kernel void k(__global float* o, float x, float y) {{
            o[0] = {expr};
        }}"""
        arrays = {"o": np.zeros(1, np.float32)}
        (c_res, c_cnt), (i_res, i_cnt) = run_both(src, "k", arrays, ["o", float(x), float(y)], 1)
        assert c_res["o"].tobytes() == i_res["o"].tobytes()
        assert c_cnt == i_cnt


class TestLoops:
    @given(
        n=st.integers(0, 30),
        step=st.integers(1, 4),
        limit=st.integers(0, 25),
    )
    @settings(max_examples=40, deadline=None)
    def test_loop_with_break_agrees(self, n, step, limit):
        src = """__kernel void k(__global int* o, int n, int step, int limit) {
            int s = 0;
            for (int i = 0; i < n; i += step) {
                if (i > limit) break;
                if (i % 3 == 0) continue;
                s += i;
            }
            o[0] = s;
        }"""
        arrays = {"o": np.zeros(1, np.int32)}
        (c_res, _), (i_res, _) = run_both(src, "k", arrays, ["o", n, step, limit], 1)
        assert c_res["o"][0] == i_res["o"][0]
        # numpy oracle
        expected = sum(
            i for i in range(0, n, step) if i <= limit and i % 3 != 0
        )
        assert c_res["o"][0] == expected

    @given(values=st.lists(st.integers(-100, 100), min_size=1, max_size=32))
    @settings(max_examples=40, deadline=None)
    def test_accumulation_kernel_agrees_with_numpy(self, values):
        src = """__kernel void k(__global const int* in, __global int* o, int n) {
            int best = in[0];
            for (int i = 1; i < n; ++i) {
                if (in[i] > best) best = in[i];
            }
            o[0] = best;
        }"""
        arrays = {"in": np.array(values, np.int32), "o": np.zeros(1, np.int32)}
        (c_res, _), (i_res, _) = run_both(src, "k", arrays, ["in", "o", len(values)], 1)
        assert c_res["o"][0] == i_res["o"][0] == max(values)


class TestMemoryCountersAgreement:
    @given(n=st.integers(1, 16), local=st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=20, deadline=None)
    def test_elementwise_traffic_identical(self, n, local):
        if n % local != 0:
            n = (n // local + 1) * local
        src = """__kernel void k(__global const float* a, __global float* o, int n) {
            int gid = get_global_id(0);
            if (gid < n) { o[gid] = a[gid] * 2.0f + 1.0f; }
        }"""
        arrays = {"a": np.ones(n, np.float32), "o": np.zeros(n, np.float32)}
        (c_res, c_cnt), (i_res, i_cnt) = run_both(src, "k", arrays, ["a", "o", n], n, local)
        assert c_cnt.memory.global_loads == i_cnt.memory.global_loads == n
        assert c_cnt.memory.global_stores == i_cnt.memory.global_stores == n
        assert c_cnt.memory.global_bytes == i_cnt.memory.global_bytes
        np.testing.assert_array_equal(c_res["o"], i_res["o"])


class TestBarrierPrograms:
    @given(values=st.lists(st.integers(-50, 50), min_size=8, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_local_scan_agrees(self, values):
        src = """__kernel void k(__global const int* in, __global int* out) {
            __local int buf[8];
            int lid = get_local_id(0);
            buf[lid] = in[get_global_id(0)];
            barrier(CLK_LOCAL_MEM_FENCE);
            for (int d = 1; d < 8; d *= 2) {
                int t = buf[lid];
                if (lid >= d) { t = buf[lid - d] + t; }
                barrier(CLK_LOCAL_MEM_FENCE);
                buf[lid] = t;
                barrier(CLK_LOCAL_MEM_FENCE);
            }
            out[get_global_id(0)] = buf[lid];
        }"""
        arrays = {"in": np.array(values, np.int32), "out": np.zeros(8, np.int32)}
        (c_res, c_cnt), (i_res, i_cnt) = run_both(src, "k", arrays, ["in", "out"], 8, 8)
        np.testing.assert_array_equal(c_res["out"], i_res["out"])
        np.testing.assert_array_equal(c_res["out"], np.cumsum(values))
        assert c_cnt.barriers == i_cnt.barriers


# -- three-way agreement: production path, interpreter, and vectorizer ------
#
# ``run_kernel``'s "compiler" path is what a built program runs on (the
# vectorizer, falling back per item where it must); "interp" and
# "vector" force one engine.  All three must agree exactly on buffers
# and on every ExecutionCounters field.

_ALL_BACKENDS = ("compiler", "interp", "vector")


def run_three(source, kernel_name, arrays, args, global_size, local_size=None):
    """Run all three backends on fresh copies; returns {backend: (bufs, cnt)}."""
    return {
        backend: run_kernel(
            source, kernel_name, {k: v.copy() for k, v in arrays.items()},
            args, global_size, local_size, backend=backend,
        )
        for backend in _ALL_BACKENDS
    }


def assert_three_way(source, kernel_name, arrays, args, global_size, local_size=None):
    """Bit-exact buffers and equal ops, warp_ops, barriers and memory
    traffic on all three paths; returns the interpreter's buffers."""
    results = run_three(source, kernel_name, arrays, args, global_size, local_size)
    ref_bufs, ref_cnt = results["interp"]
    for backend in ("compiler", "vector"):
        bufs, cnt = results[backend]
        for name in arrays:
            assert bufs[name].tobytes() == ref_bufs[name].tobytes(), (
                f"{backend} buffer {name!r} differs from interp:\n"
                f"interp: {ref_bufs[name]!r}\n{backend}: {bufs[name]!r}"
            )
        assert cnt == ref_cnt, f"{backend} counters {cnt} != interp {ref_cnt}"
    return ref_bufs


_THREEWAY_DTYPES = st.sampled_from([
    ("char", np.int8), ("uchar", np.uint8), ("short", np.int16),
    ("ushort", np.uint16), ("int", np.int32), ("uint", np.uint32),
    ("long", np.int64), ("ulong", np.uint64),
    ("float", np.float32), ("double", np.float64),
])


class TestThreeWayDtypes:
    @given(dtype=_THREEWAY_DTYPES, seed=st.integers(0, 2**31 - 1),
           scale=st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_elementwise_over_every_dtype(self, dtype, seed, scale):
        cname, np_dtype = dtype
        rng = np.random.RandomState(seed)
        n = 16
        if np.issubdtype(np_dtype, np.floating):
            data = rng.uniform(-8, 8, size=n).astype(np_dtype)
            expr = f"x * ({scale}.0f / 2.0f) + y"
        else:
            data = rng.randint(0, 40, size=n).astype(np_dtype)
            expr = f"x * {scale} + (y >> 1)"
        src = f"""__kernel void k(__global {cname}* out,
                                  __global const {cname}* in, int n) {{
            int gid = get_global_id(0);
            {cname} x = in[gid];
            {cname} y = in[(gid + 3) % n];
            out[gid] = ({cname})({expr});
        }}"""
        arrays = {"out": np.zeros(n, np_dtype), "in": data}
        assert_three_way(src, "k", arrays, ["out", "in", n], n, 8)


class TestThreeWayControlFlow:
    @given(expr=int_expr(2), cond=st.sampled_from(
               ["x > y", "gid % 2 == 0", "x < 0", "(x ^ y) > 5"]),
           bound=st.integers(1, 5), x=st.integers(-20, 20),
           y=st.integers(-20, 20))
    @settings(max_examples=60, deadline=None)
    def test_divergent_branch_and_loop(self, expr, cond, bound, x, y):
        src = f"""__kernel void k(__global long* out, int x, int y) {{
            int gid = get_global_id(0);
            long acc = x + gid;
            if ({cond}) {{
                for (int i = 0; i < {bound}; ++i) {{ acc += (long)({expr}) + i; }}
            }} else {{
                acc = acc * 3 - y;
            }}
            out[gid] = acc;
        }}"""
        arrays = {"out": np.zeros(8, np.int64)}
        assert_three_way(src, "k", arrays, ["out", x, y], 8, 4)


class TestThreeWayLocalMemory:
    @given(values=st.lists(st.integers(-30, 30), min_size=16, max_size=16),
           rot=st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_rotated_tile_exchange(self, values, rot):
        src = f"""__kernel void k(__global const int* in, __global int* out) {{
            __local int tile[8];
            int lid = get_local_id(0);
            int gid = get_global_id(0);
            tile[lid] = in[gid] * 2;
            barrier(CLK_LOCAL_MEM_FENCE);
            int partner = (lid + {rot}) % 8;
            out[gid] = tile[partner] - in[gid];
        }}"""
        arrays = {"in": np.array(values, np.int32), "out": np.zeros(16, np.int32)}
        bufs = assert_three_way(src, "k", arrays, ["in", "out"], 16, 8)
        a = np.array(values, np.int32)
        expected = np.empty(16, np.int32)
        for g in range(2):
            for lid in range(8):
                gid = g * 8 + lid
                expected[gid] = a[g * 8 + (lid + rot) % 8] * 2 - a[gid]
        np.testing.assert_array_equal(bufs["out"], expected)
