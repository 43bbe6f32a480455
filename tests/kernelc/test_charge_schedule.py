"""Pinned charge schedule: exact ``ExecutionCounters`` for fixed inputs.

Both engines (the per-item reference interpreter and the lockstep
vectorizer) read their op charges and load-CSE decisions from one
static cost pass (:mod:`repro.kernelc.cost`), so the vector-vs-interp
differential harnesses cannot notice a bug in that pass: both engines
would be wrong the same way.  These pins catch it instead.  The values
are the modeled work the timing model prices, and must not drift.

Each case runs on both backends and must reproduce the pinned counters
of every kernel launch: ops, warp_ops, barriers and all memory-traffic
fields.  The vector-typed kernel has no lockstep lowering and runs on
the per-item engine either way; its output bytes are pinned too.
"""

import hashlib

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro import ocl
from repro.apps.mandelbrot import Mandelbrot
from repro.apps.sobel import SobelEdgeDetection
from repro.kernelc import ExecutionCounters, compile_source
from repro.kernelc.compiler import compile_program
from repro.kernelc.ctypes_ import FLOAT
from repro.kernelc.execmodel import convert_value
from repro.kernelc.memory import Pointer
from repro.ocl import queue as ocl_queue
from repro.ocl.executor import execute_ndrange
from repro.ocl.ndrange import NDRange
from repro.skelcl import Reduce, Scan, Vector, Zip

_FIELDS = ("ops", "warp_ops", "barriers", "global_loads", "global_stores",
           "global_bytes", "local_loads", "local_stores", "local_bytes")


def _snapshot(counters: ExecutionCounters) -> tuple:
    memory = counters.memory
    return (counters.ops, counters.warp_ops, counters.barriers,
            memory.global_loads, memory.global_stores, memory.global_bytes,
            memory.local_loads, memory.local_stores, memory.local_bytes)


def _record_launches(monkeypatch) -> list:
    """Capture the counters of every NDRange launch the queues run."""
    launches = []
    real = ocl_queue.execute_ndrange

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        launches.append(_snapshot(result.counters))
        return result

    monkeypatch.setattr(ocl_queue, "execute_ndrange", recording)
    return launches


def _mandelbrot():
    return Mandelbrot(max_iterations=40, work_group_size=64).render(32, 24).to_numpy()


def _sobel():
    image = (np.arange(24 * 20, dtype=np.int64) * 37 % 251).astype(np.uint8).reshape(20, 24)
    return SobelEdgeDetection().detect(image)


def _dot():
    a = Vector(data=np.linspace(0, 1, 512, dtype=np.float32))
    b = Vector(data=np.linspace(1, 2, 512, dtype=np.float32))
    mult = Zip("float mult(float x, float y) { return x * y; }")
    total = Reduce("float sum(float x, float y) { return x + y; }")
    return np.float32(total(mult(a, b)).get_value())


def _scan():
    data = Vector(data=(np.arange(300, dtype=np.int32) * 7 % 23) - 11)
    return Scan("int add(int x, int y) { return x + y; }")(data).to_numpy()


_SKELETON_CASES = {
    "mandelbrot": _mandelbrot,
    "sobel": _sobel,
    "dot": _dot,
    "scan": _scan,
}

# {case: [per-launch counters in _FIELDS order]}.
_PINNED = {
    "dot": [(6144, 6144, 0, 1024, 512, 6144, 0, 0, 0),
            (51192, 0, 4608, 512, 2, 2056, 1022, 1022, 8176),
            (23056, 0, 2304, 2, 1, 12, 511, 511, 4088)],
    "mandelbrot": [(165271, 427360, 0, 0, 768, 768, 0, 0, 0)],
    "scan": [(66332, 0, 8704, 300, 302, 2408, 7984, 4608, 50368),
             (32278, 0, 4352, 2, 3, 20, 3844, 2304, 24592),
             (3424, 3584, 0, 88, 44, 528, 0, 0, 0)],
    "sobel": [(82572, 0, 1024, 572, 480, 1052, 3840, 1296, 5136)],
}


@pytest.mark.parametrize("backend", ["interp", "vector"])
@pytest.mark.parametrize("case", sorted(_SKELETON_CASES))
def test_skeleton_charge_schedule(case, backend, monkeypatch):
    launches = _record_launches(monkeypatch)
    skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE, backend=backend)
    try:
        _SKELETON_CASES[case]()
    finally:
        skelcl.terminate()
    assert launches == _PINNED[case]


_VECTOR_KERNEL = """
__kernel void k(__global const float4* in, __global float4* out, float s) {
    int i = get_global_id(0);
    float4 v = in[i];
    float4 w = v.wzyx * s + (float4)(0.5f, -1.0f, 2.0f, 0.25f);
    w.x = fmax(w.x, v.y);
    out[i] = w - v * 0.1f;
}
"""

_PINNED_VECTOR = (368, 1472, 0, 16, 16, 512, 0, 0, 0)
_PINNED_VECTOR_BYTES = "ebaa4f9030fa1329718d1a5d1c9c239b75b4c93ade6a163c427a91c63cf81ac9"


@pytest.mark.parametrize("backend", ["interp", "vector"])
def test_vector_typed_kernel_schedule_and_bytes(backend):
    kernel = compile_program(compile_source(_VECTOR_KERNEL)).kernel("k")
    counters = ExecutionCounters()
    data = np.linspace(-3, 5, 64, dtype=np.float32)
    source = Pointer(data.copy(), FLOAT, "global", 0, counters.memory)
    target = Pointer(np.zeros(64, np.float32), FLOAT, "global", 0, counters.memory)
    args = [convert_value(value, param.declared_type) for value, param
            in zip([source, target, 1.7], kernel.definition.params)]
    execute_ndrange(kernel, NDRange.create((16,), (8,)), args,
                    counters=counters, backend=backend)
    assert _snapshot(counters) == _PINNED_VECTOR
    assert hashlib.sha256(target.array.tobytes()).hexdigest() == _PINNED_VECTOR_BYTES
