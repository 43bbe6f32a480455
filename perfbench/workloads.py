"""The three benchmark workloads.

A workload is driven in *steps*.  ``step(i)`` prepares everything that
is not part of the measured op (inputs, oracles, a fresh cache
directory) and returns a :class:`Step`; ``Step.run()`` is the measured
part and returns the host nanoseconds of each op it completed;
``Step.check()`` compares every result with its NumPy oracle.  Closed-
loop workloads complete one op per step; ``serve-mixed`` completes the
jobs that arrived since the previous drain.

``reload_step(j)`` re-runs work whose programs are on disk but no longer
in memory (``repro.ocl.program.clear_build_cache()`` plus a fresh
skeleton), so every build in it is a program-cache disk hit.  Every
``reload_every``-th step of a run is a reload step, so reload ops sample
the same stretch of host time as the other ops.
"""

from __future__ import annotations

import os
import random
import time
from typing import Callable, List, NamedTuple, Sequence

import numpy as np

import repro.skelcl as skelcl
from repro import serve
from repro.apps.images import sobel_reference_uchar, synthetic_image
from repro.apps.sobel import SobelEdgeDetection
from repro.ocl.program import clear_build_cache

import funcgen

DEVICES = ["tesla", "tesla"]
clock = time.perf_counter_ns


class Step(NamedTuple):
    run: Callable[[], List[int]]      # the measured part: host ns per op
    check: Callable[[], List[bool]]   # one verdict per op


def _timed(fn) -> Callable[[], List[int]]:
    def run():
        start = clock()
        fn()
        return [clock() - start]
    return run


def same_bits(result, expected) -> bool:
    result, expected = np.asarray(result), np.asarray(expected)
    return (result.dtype == expected.dtype and result.shape == expected.shape
            and result.tobytes() == expected.tobytes())


def counter_total(metrics, name: str, **labels) -> int:
    want = {(k, str(v)) for k, v in labels.items()}
    return sum(c.value for c in metrics.counters()
               if c.name == name and want <= set(c.labels))


class Workload:
    name = ""
    #: ops in the exact-count probe's measured part and reload part
    probe_ops = 4
    probe_reloads = 2
    #: every this many steps of a run, one is a reload step
    reload_every = 10

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.session = None
        self._cache_dirs = 0

    def fresh_cache_dir(self) -> str:
        """Point the program cache at a new, empty directory."""
        self._cache_dirs += 1
        path = os.path.join(self.workdir, f"cache{self._cache_dirs}")
        skelcl.configure(cache_dir=path)
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def step(self, i: int) -> Step:
        raise NotImplementedError

    def reload_step(self, j: int) -> Step:
        raise NotImplementedError

    def close(self) -> None:
        skelcl.terminate()
        self.session = None

    # -- modeled clock ---------------------------------------------------

    def modeled_ns(self) -> int:
        """The modeled critical path so far.  (``Session.finish_all``
        would also flush a serving session's recorded jobs.)"""
        return self.session.context.finish_all()

    # -- exact-count probe --------------------------------------------------

    def probe(self, tracer) -> dict:
        """Run a fixed op sequence in a fresh session and return every
        count and modeled number that must repeat exactly."""
        self.close()
        clear_build_cache()
        self.setup()
        metrics = self.session.metrics
        start_counts = self._counts(metrics)
        start_ns = self.modeled_ns()
        tracer.install()
        try:
            latencies, ops = [], 0
            for i in range(self.probe_ops):
                before = self.modeled_ns()
                step = self.step(i)
                done = len(step.run())
                ops += done
                if not all(step.check()):
                    raise AssertionError(f"{self.name}: probe op {i} is wrong")
                latencies.extend(self._latencies(before, done))
            end_ns = self.modeled_ns()
            end_counts = self._counts(metrics)
            plan_calls, plan_accepted = tracer.outcomes["plan"]
            loads0 = list(tracer.outcomes["cache_load"])
            for j in range(self.probe_reloads):
                step = self.reload_step(j)
                step.run()
                if not all(step.check()):
                    raise AssertionError(f"{self.name}: probe reload {j} is wrong")
            loads1 = tracer.outcomes["cache_load"]
        finally:
            tracer.uninstall()
        out = {k: (end_counts[k] - start_counts[k]) / ops for k in end_counts}
        out["kernelc.vectorize.plan.accept_ratio"] = (
            plan_accepted / plan_calls if plan_calls else 0.0)
        loads = loads1[0] - loads0[0]
        out["kernelc.progcache.hit_ratio"] = (
            (loads1[1] - loads0[1]) / loads if loads else 0.0)
        out["modeled_us_per_op"] = (end_ns - start_ns) / ops / 1e3
        out["modeled_latency_us_p90"] = percentile(latencies, 90) / 1e3
        out["serve.queue_wait_us_p50"] = self._queue_wait_us_p50()
        out["probe_ops"] = ops
        return out

    def _latencies(self, before_ns: int, done: int) -> List[int]:
        return [self.modeled_ns() - before_ns] * done

    def _queue_wait_us_p50(self) -> float:
        return 0.0

    def _counts(self, metrics) -> dict:
        launches = global_bytes = 0
        for queue in self.session.context.queues:
            for event in queue.events:
                if event.command_type == "ndrange_kernel":
                    launches += 1
                    global_bytes += event.info.get("global_bytes", 0)
        return {
            "ocl.kernel_launches": launches,
            "ocl.kernel_ops": counter_total(metrics, "skelcl_kernel_ops_total"),
            "ocl.global_bytes": global_bytes,
            "ocl.transfer_bytes": counter_total(metrics, "skelcl_transfer_bytes_total"),
            "ocl.build.memory": counter_total(
                metrics, "skelcl_program_builds_total", result="memory"),
            "ocl.build.disk": counter_total(
                metrics, "skelcl_program_builds_total", result="disk"),
            "ocl.build.compiled": counter_total(
                metrics, "skelcl_program_builds_total", result="compiled"),
            "plan.fusions": counter_total(metrics, "skelcl_fusion_total"),
            "serve.batches": counter_total(metrics, "skelcl_serve_batches_total"),
        }


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# =============================================================================
# sobel-stencil: the paper's Fig. 5 workload, warm, one closed-loop caller.
# =============================================================================

class SobelStencil(Workload):
    name = "sobel-stencil"
    probe_ops = 3

    def setup(self) -> None:
        self.fresh_cache_dir()
        self.session = skelcl.init(devices=DEVICES, backend="vector",
                                   detect_races="off", lazy=False)
        self.image = synthetic_image(512, 512, seed=self.seed)
        self.expected = sobel_reference_uchar(self.image)
        self.detector = SobelEdgeDetection()
        for _ in range(2):  # the first detect builds the program
            self.detector.detect(self.image)

    def _op(self, detector) -> Step:
        result = []
        run = _timed(lambda: result.append(detector.detect(self.image)))
        return Step(run, lambda: [same_bits(result[0], self.expected)])

    def step(self, i: int) -> Step:
        return self._op(self.detector)

    def reload_step(self, j: int) -> Step:
        clear_build_cache()
        return self._op(SobelEdgeDetection())


# =============================================================================
# cold-compile: never-seen user functions over all six skeletons.
# =============================================================================

def build_and_run(case: funcgen.Case, fns) -> np.ndarray:
    """Build ``case``'s skeleton from its source (or jit functions),
    run it once on the case's inputs and return the result."""
    kind = case.skeleton
    source = fns[0] if fns else case.source
    if kind == "map":
        return skelcl.Map(source)(skelcl.Vector(data=case.inputs[0])).to_numpy()
    if kind == "zip":
        left, right = (skelcl.Vector(data=x) for x in case.inputs)
        return skelcl.Zip(source)(left, right).to_numpy()
    if kind == "reduce":
        reduce = skelcl.Reduce(source, case.params["identity"])
        return np.asarray(reduce(skelcl.Vector(data=case.inputs[0])).to_numpy())
    if kind == "scan":
        scan = skelcl.Scan(source, case.params["identity"])
        return scan(skelcl.Vector(data=case.inputs[0])).to_numpy()
    if kind == "mapoverlap":
        stencil = skelcl.MapOverlap(source, case.params["reach"],
                                    skelcl.SCL_NEUTRAL, case.params["neutral"])
        return stencil(skelcl.Vector(data=case.inputs[0])).to_numpy()
    if kind == "allpairs":
        if fns:
            zip_op, red_op = skelcl.Zip(fns[0]), skelcl.Reduce(fns[1], "0")
        else:
            zip_op = skelcl.Zip(case.source)
            red_op = skelcl.Reduce(case.params["reduce_source"], "0")
        a, b = (skelcl.Matrix(data=x) for x in case.inputs)
        return skelcl.AllPairs(red_op, zip_op)(a, b).to_numpy()
    raise ValueError(kind)


class ColdCompile(Workload):
    name = "cold-compile"
    probe_ops = funcgen.BLOCK
    probe_reloads = funcgen.BLOCK
    reload_every = 4

    def setup(self) -> None:
        self.fresh_cache_dir()
        self.session = skelcl.init(devices=DEVICES, backend="vector",
                                   detect_races="off", lazy=False)
        self.cases = funcgen.CaseGenerator(
            self.seed, "op", os.path.join(self.workdir, "functions"))
        self.case_dirs = {}
        # Warm-up on a separate stream: first use of every skeleton and
        # of both frontends, so the timed ops are cold only in the
        # program caches.
        warm = funcgen.CaseGenerator(
            self.seed, "warmup", os.path.join(self.workdir, "warmup"))
        for i, skeleton in enumerate(funcgen.SKELETONS):
            case = warm.case(i, (skeleton, funcgen.FRONTENDS[i % 2]))
            self.fresh_cache_dir()
            clear_build_cache()
            result = build_and_run(case, self._jit(case))
            if not same_bits(result, case.expected):
                raise AssertionError(f"warm-up case {i} is wrong:\n{case.source}")

    @staticmethod
    def _jit(case):
        if case.frontend != "jit":
            return None
        return funcgen.load_jit_functions(case.path, skelcl.jit)

    def _op(self, case, fns) -> Step:
        result = []
        run = _timed(lambda: result.append(build_and_run(case, fns)))
        return Step(run, lambda: [same_bits(result[0], case.expected)])

    def step(self, i: int) -> Step:
        case = self.cases.case(i)
        self.case_dirs[i] = self.fresh_cache_dir()
        clear_build_cache()
        return self._op(case, self._jit(case))

    def reload_step(self, j: int) -> Step:
        if j not in self.case_dirs:
            # Not compiled earlier in this run: build it once
            # (unmeasured) so its programs are on disk.
            step = self.step(j)
            step.run()
            step.check()
        case = self.cases.case(j)
        skelcl.configure(cache_dir=self.case_dirs[j])
        clear_build_cache()
        return self._op(case, self._jit(case))


# =============================================================================
# serve-mixed: three tenants, open-loop arrivals on the serving clock.
# =============================================================================

SOBEL_1D = "float func(float* v) { return get(v, 1) - get(v, -1); }"

# 48 dependent iterations per element: a Mandelbrot-style escape loop's
# compute profile without the branchy early-out.
MANDEL = """\
float func(float x) {
    float re = x, im = 0.5f * x;
    for (int i = 0; i < 48; ++i) {
        float r2 = re * re - im * im + x;
        im = 2.0f * re * im + 0.25f;
        re = r2;
    }
    return re + im;
}"""

MULT = "float f(float x, float y) { return x * y; }"
ADD = "float f(float x, float y) { return x + y; }"

TENANTS = ("sobel", "mandel", "dot")
SIZES = {"sobel": 2048, "mandel": 4096, "dot": 1024}

# Jobs arrive one at a time, each from a tenant drawn uniformly.
# Interarrival times on the serving clock are exponential with this
# fixed mean, so the schedule depends only on the seed.  A job needs
# about 33-45 us of modeled service, so the pool is busy about a third
# of the time: well below saturation.  About one drain in thirteen holds
# more than one job, so DRR ordering happens, and about 1% of jobs are
# batched.  At this load most jobs drain alone, and the median job is a
# dot job in the middle of its own cost band.  At a 60 us mean the
# median fell between the bands of jobs draining alone and jobs
# draining together, and jumped between them from run to run.
MEAN_INTERARRIVAL_NS = 120_000


def mandel_reference(x: np.ndarray) -> np.ndarray:
    """The escape loop in double precision, stored as float."""
    x = x.astype(np.float64)
    re, im = x.copy(), 0.5 * x
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(48):
            re, im = re * re - im * im + x, 2.0 * re * im + 0.25
    return (re + im).astype(np.float32)


def sobel_1d_reference(v: np.ndarray) -> np.ndarray:
    padded = np.pad(v, 1)
    return padded[2:] - padded[:-2]


class _Skeletons:
    """One fresh set of tenant skeletons (fresh objects hold no built
    programs, which is what reload ops need)."""

    def __init__(self):
        self.sobel = skelcl.MapOverlap(SOBEL_1D, 1, skelcl.SCL_NEUTRAL, 0.0)
        self.mandel = skelcl.Map(MANDEL)
        self.mult = skelcl.Zip(MULT)
        self.total = skelcl.Reduce(ADD)


class ServeMixed(Workload):
    name = "serve-mixed"
    probe_ops = 12        # ticks; each completes one or more jobs
    probe_reloads = 3
    reload_every = 8

    def setup(self) -> None:
        self.fresh_cache_dir()
        self.server = serve.Server(
            devices=DEVICES, policy="drr", backend="vector", detect_races="off",
            default_quota=serve.TenantQuota(max_queue_depth=1 << 16))
        self.session = self.server.session
        self.clients = {name: self.server.client(name) for name in TENANTS}
        self.skeletons = _Skeletons()
        self.arrivals = random.Random(f"{self.seed}:arrivals")
        self.inputs = np.random.RandomState(self.seed % (2 ** 31))
        self.next_due = 0
        # Modeled latency and queue wait (ns, from the due time) of every
        # checked job; the probe reads them.
        self.latency_ns = []
        self.wait_ns = []
        self._warm_up()
        self.base_ns = self.server.now_ns
        self.next_due = self.base_ns

    def _warm_up(self) -> None:
        step = self._tick([(tenant, self.server.now_ns) for tenant in TENANTS],
                          self.skeletons)
        step.run()
        if not all(step.check()):
            raise AssertionError("serve warm-up wave is wrong")
        self.latency_ns.clear()
        self.wait_ns.clear()

    def _draw_input(self, tenant: str):
        rng = self.inputs
        n = SIZES[tenant]
        if tenant == "sobel":
            return (rng.rand(n).astype(np.float32),)
        if tenant == "mandel":
            return (rng.uniform(-0.6, 0.2, n).astype(np.float32),)
        # Integer-valued floats keep every partial sum exact, so the
        # device reduction order cannot change the result.
        return (rng.randint(-8, 9, n).astype(np.float32),
                rng.randint(-8, 9, n).astype(np.float32))

    def _submit(self, tenant: str, data, skeletons: _Skeletons):
        client = self.clients[tenant]
        if tenant == "mandel":
            return client.submit_map(skeletons.mandel, data[0], label="mandel")
        if tenant == "sobel":
            return client.submit(
                lambda: skeletons.sobel(skelcl.Vector(data=data[0])), label="sobel")
        return client.submit(
            lambda: skeletons.total(skeletons.mult(
                skelcl.Vector(data=data[0]), skelcl.Vector(data=data[1]))),
            label="dot")

    @staticmethod
    def _expected(tenant: str, data) -> np.ndarray:
        if tenant == "mandel":
            return mandel_reference(data[0])
        if tenant == "sobel":
            return sobel_1d_reference(data[0])
        return np.float32(np.dot(data[0].astype(np.float64), data[1]))

    def _tick(self, arrivals, skeletons, record=True) -> Step:
        """Submit ``arrivals`` ([(tenant, due_ns)]), then drain.  With
        ``record``, the checked jobs' modeled latency and wait are kept
        for the probe."""
        inputs = [(tenant, due, self._draw_input(tenant)) for tenant, due in arrivals]
        jobs = []

        def run():
            starts = []
            for tenant, due, data in inputs:
                starts.append(clock())
                jobs.append(self._submit(tenant, data, skeletons))
            self.server.drain()
            end = clock()
            return [end - start for start in starts]

        def check():
            oks = []
            for job, (tenant, due, data) in zip(jobs, inputs):
                value = job.result()
                value = value.to_numpy() if hasattr(value, "to_numpy") else value
                oks.append(same_bits(np.asarray(value, dtype=np.float32),
                                     self._expected(tenant, data)))
                if record:
                    self.latency_ns.append(job.end_ns - due)
                    self.wait_ns.append(job.start_ns - due)
            return oks

        return Step(run, check)

    def _due_arrivals(self):
        """Every job due by the serving clock (fast-forwarding over idle
        time to the next one when none is due yet)."""
        server = self.server
        if self.next_due > server.now_ns:
            server.fast_forward_to(self.next_due)
        arrivals = []
        while self.next_due <= server.now_ns:
            arrivals.append((self.arrivals.choice(TENANTS), self.next_due))
            self.next_due += max(1, int(self.arrivals.expovariate(
                1.0 / MEAN_INTERARRIVAL_NS)))
        return arrivals

    def step(self, i: int) -> Step:
        return self._tick(self._due_arrivals(), self.skeletons)

    def reload_step(self, j: int) -> Step:
        clear_build_cache()
        tenant = TENANTS[j % len(TENANTS)]
        return self._tick([(tenant, self.server.now_ns)], _Skeletons(), record=False)

    def close(self) -> None:
        if getattr(self, "server", None) is not None:
            self.server.close()
            self.server = None
        super().close()

    def _latencies(self, before_ns: int, done: int) -> List[int]:
        return self.latency_ns[-done:]

    def _queue_wait_us_p50(self) -> float:
        return percentile(self.wait_ns, 50) / 1e3


WORKLOADS = {cls.name: cls for cls in (SobelStencil, ColdCompile, ServeMixed)}
