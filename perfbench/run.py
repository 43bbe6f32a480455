"""The repository benchmark: host-clock cost of SkelCL end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sobel-stencil --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched.
``--trace 1`` runs the exact-count probe twice (the run fails if a count
or a modeled number differs), then times ops with layer spans installed
on every other op, and reports the per-layer metrics, the tracing
overhead and a Chrome trace under ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for every metric and workload.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts before any import)
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("sobel-stencil", "cold-compile", "serve-mixed")
#: units of the probe's numbers that are not plain counts
PROBE_UNITS = {"kernelc.vectorize.plan.accept_ratio": "ratio",
               "kernelc.progcache.hit_ratio": "ratio",
               "modeled_us_per_op": "modeled_us",
               "modeled_latency_us_p90": "modeled_us",
               "serve.queue_wait_us_p50": "modeled_us",
               "ocl.global_bytes": "bytes",
               "ocl.transfer_bytes": "bytes"}
#: fresh processes whose set-up time is measured (this one included)
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit "
                             "(used to sample set-up in fresh processes)")
    return parser.parse_args(argv)


def pin_settings(workdir: str):
    """Every setting explicit: SKELCL_* variables are dropped and no
    path outside ``workdir`` (such as ``~/.cache/skelcl``) is used."""
    for var in [v for v in os.environ if v.startswith("SKELCL_")]:
        del os.environ[var]
    import repro.skelcl as skelcl

    return skelcl.configure(reset=True, backend="vector", sanitize="off",
                            cache=True, lazy=False, dir=workdir,
                            cache_dir=os.path.join(workdir, "cache0"))


def settings_snapshot() -> dict:
    import repro.skelcl as skelcl

    return {k: (v if isinstance(v, (str, bool, int, type(None))) else repr(v))
            for k, v in dataclasses.asdict(skelcl.current_settings()).items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sample_setup_in_fresh_processes(args, count: int):
    """Set-up seconds of ``count`` fresh interpreter processes."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class Tally:
    """Op host times and outcomes of one phase."""

    def __init__(self):
        self.op_ns = []
        self.busy_ns = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, step, tracer=None) -> None:
        """Run (traced when ``tracer`` is given) and check one step."""
        try:
            if tracer is not None:
                tracer.install()
            try:
                start = time.perf_counter_ns()
                times = step.run()
                self.busy_ns += time.perf_counter_ns() - start
            finally:
                if tracer is not None:
                    tracer.uninstall()
            oks = step.check()
        except Exception as exc:  # a failing op is counted, not fatal
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return
        self.attempted += len(oks)
        self.failed += oks.count(False)
        if False in oks:
            self.errors.append("result differs from the NumPy oracle")
        self.op_ns.extend(times)


def quantile_ms(values_ns, q) -> float:
    from workloads import percentile

    return percentile(values_ns, q) / 1e6


def timed_phase(workload, seconds, tracer=None):
    """Closed- or open-loop steps for ``seconds`` of host time, with a
    reload step in place of every ``workload.reload_every``-th step.
    With a tracer, every other op step runs traced.  Returns the
    (untraced, traced, reload) tallies."""
    plain, traced, reload = Tally(), Tally(), Tally()
    deadline = time.perf_counter() + seconds
    i = j = 0
    while time.perf_counter() < deadline:
        if (i + j + 1) % workload.reload_every == 0:
            reload.record(workload.reload_step(j))
            j += 1
            continue
        step = workload.step(i)
        if tracer is not None and i % 2 == 1:
            tracer.op_id = i
            traced.record(step, tracer)
        else:
            plain.record(step)
        i += 1
    return plain, traced, reload


def exact_count_guard(workload, tracer_cls, seed) -> dict:
    """Run the probe twice in fresh sessions; every count and modeled
    number must be identical, and identical to an earlier run with the
    same workload and seed in this checkout (kept under ``out/``)."""
    first = workload.probe(tracer_cls())
    second = workload.probe(tracer_cls())
    if first != second:
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        raise SystemExit(f"perfbench: exact-count guard FAILED on {workload.name}: "
                         f"repeated probe differs: {diff}")
    record = os.path.join(OUT, f"counts-{workload.name}-seed{seed}.json")
    if os.path.exists(record):
        with open(record) as handle:
            earlier = json.load(handle)
        if earlier != json.loads(json.dumps(first)):
            diff = {k: (earlier.get(k), first.get(k)) for k in set(earlier) | set(first)
                    if earlier.get(k) != first.get(k)}
            raise SystemExit(f"perfbench: exact-count guard FAILED on {workload.name}: "
                             f"differs from the earlier run in {record}: {diff}")
    else:
        with open(record, "w") as handle:
            json.dump(first, handle, indent=1, sort_keys=True)
    return first


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        return run(args, workdir)
    finally:
        import repro.skelcl as skelcl

        skelcl.terminate()
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir) -> int:
    pin_settings(workdir)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    setup_s = time.perf_counter() - PROCESS_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "settings": settings_snapshot()}
    if args.trace:
        metrics, tallies = traced_run(args, workload, report)
    else:
        metrics, tallies = untraced_run(args, workload, setup_s, report)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["metrics"] = metrics

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    report["error_rate"] = failed / attempted if attempted else 1.0
    errors = [e for t in tallies for e in t.errors]
    for error in errors[:5]:
        print(f"perfbench: failed op: {error}", file=sys.stderr)
    print_report(report)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def untraced_run(args, workload, setup_s, report):
    samples = [setup_s] + sample_setup_in_fresh_processes(args, SETUP_SAMPLES - 1)
    timed, _, reload = timed_phase(workload, args.seconds)
    if not timed.op_ns or not reload.op_ns:
        raise SystemExit("perfbench: no op completed")
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "op_ms_p50": (quantile_ms(timed.op_ns, 50), "ms"),
        "op_ms_p90": (quantile_ms(timed.op_ns, 90), "ms"),
        "ops_per_s": (len(timed.op_ns) / (timed.busy_ns / 1e9), "1/s"),
        "reload_ms_p50": (quantile_ms(reload.op_ns, 50), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    report["setup_samples_s"] = samples
    report["ops"] = len(timed.op_ns)
    report["reload_ops"] = len(reload.op_ns)
    return metrics, [timed, reload]


def traced_run(args, workload, report):
    from layers import LAYERS, LayerTracer, write_chrome_trace

    counts = exact_count_guard(workload, LayerTracer, args.seed)
    workload.close()
    workload.setup()
    tracer = LayerTracer()
    origin = time.perf_counter_ns()
    plain, traced, reload = timed_phase(workload, args.seconds, tracer)
    if not plain.op_ns or not traced.op_ns:
        raise SystemExit("perfbench: too few ops for a traced run")
    ops = len(traced.op_ns)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tracer.calls[layer] / ops, "count")
        metrics[f"{layer}.self_ms"] = (tracer.self_ns[layer] / 1e6 / ops, "ms")
    for name, value in counts.items():
        if name != "probe_ops":
            metrics[name] = (value, PROBE_UNITS.get(name, "count"))
    metrics["trace.overhead_ratio"] = (
        quantile_ms(traced.op_ns, 50) / quantile_ms(plain.op_ns, 50) - 1.0, "ratio")
    metrics["trace.unattributed_ratio"] = (
        1.0 - tracer.covered_ns() / traced.busy_ns, "ratio")

    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    from repro.scope.trace import chrome_trace

    write_chrome_trace(path, tracer, origin, chrome_trace(workload.session.context))
    report["trace_file"] = os.path.relpath(path, ROOT)
    report["probe_ops"] = counts["probe_ops"]
    report["traced_ops"] = ops
    report["untraced_ops"] = len(plain.op_ns)
    return metrics, [plain, traced, reload]


def print_report(report) -> None:
    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"trace={report['trace']}")
    for name, metric in report["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'error_rate':<40} {report['error_rate']:>14.6g} ratio")
    print(json.dumps({"report": report}, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
