"""skpower benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload rangefinder --seed 1 --seconds 30 --trace 0

One client runs the workload's calls back to back in this process, each
call sent after the previous one returned, with BLAS at the package
default thread count.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced calls, times the reference
kernels, repeats the traced calls in a child process with
``SKPOWER_THREADS=1``, and reports the per-layer metrics.  The last line of
standard output is one JSON object; the exit code is 0 only when every
output passed its checks.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from tracing import LAYERS, Tracer, median_of

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150


def declared_metrics() -> tuple[dict, dict]:
    """End-to-end and per-layer metric units, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------------------
# machine block
# ---------------------------------------------------------------------------


def _lscpu() -> dict:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    fields = {}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return fields


def _l3_bytes(text: str | None) -> int | None:
    """Bytes of an lscpu cache size such as ``300 MiB (1 instance)``."""
    number, _, unit = (text or "").split(" (")[0].partition(" ")
    scale = {"KiB": 2**10, "MiB": 2**20, "GiB": 2**30}.get(unit)
    try:
        return int(float(number) * scale) if scale else None
    except ValueError:
        return None


def blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process, by library file."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return {}
    counts = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[os.path.basename(path)] = fn()
                break
    return counts


def machine_block(working_set_bytes: int) -> dict:
    import numpy as np
    import scipy

    cpu = _lscpu()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    l3 = _l3_bytes(cpu.get("L3 cache"))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu.get("Model name"),
        "l3_cache": cpu.get("L3 cache"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "working_set_mb": round(working_set_bytes / 2**20, 1),
        "working_set_vs_l3": round(working_set_bytes / l3, 3) if l3 else None,
        "bytes_note": "byte counts are computed from array sizes, not measured bandwidth",
    }


# ---------------------------------------------------------------------------
# running calls
# ---------------------------------------------------------------------------


class Run:
    """Closed-loop client for one workload: calls, checks and counts."""

    def __init__(self, workload, state, CheckFailed):
        self.w = workload
        self.state = state
        self.CheckFailed = CheckFailed
        self.index = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.sample: list[tuple[int, object]] = []
        self.stats: list = []

    def check(self, i, out):
        """Check one output; records a problem and returns None when it is wrong."""
        try:
            return self.w.check(self.state, i, out)
        except self.CheckFailed as exc:
            self.problems.append(f"call {i}: {exc}")
            return None

    def one_call(self, tracer=None):
        """Run, time and check one call; returns its time in ms, or None if it raised."""
        i = self.index
        self.index += 1
        self.attempted += 1
        root = tracer.root("call") if tracer is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with root:
                out = self.w.call(self.state, i)
        except Exception:
            self.failed += 1
            print(f"call {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        ms = (time.perf_counter() - t0) * 1e3
        checked = self.check(i, out)
        if checked is not None:
            if len(self.sample) < self.w.sample:
                self.sample.append((i, checked))
            if tracer is not None and hasattr(self.w, "call_stats"):
                self.stats.append(self.w.call_stats(checked))
        return ms

    def loop(self, seconds: float) -> list[float]:
        """Untraced calls back to back for ``seconds``; their times in ms."""
        times = []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            ms = self.one_call()
            if ms is not None:
                times.append(ms)
        return times

    def err_ratio_max(self) -> float:
        """Check the fixed sample of calls (untimed).

        Returns the mean over the sampled calls of each call's worst residual /
        sigma_(k+1).  The mean, not the maximum over calls: the worst result of
        a call is bimodal (Nystrom's final iterate on ``bench-curve``), and a
        maximum over calls would follow the rare outlier the seed happens to
        draw.
        """
        budget = self.w.sample * 3
        while len(self.sample) < self.w.sample and budget > 0:
            budget -= 1
            self.one_call()
        ratios = []
        for i, out in self.sample:
            value, problems = self.w.ratio(self.state, i, out)
            ratios.append(value)
            self.problems.extend(f"call {i}: {problem}" for problem in problems)
        if not ratios:
            raise RuntimeError("no call passed its checks")
        return statistics.fmean(ratios)


WARMUP = 1 << 30  # call index of the warm-up call, outside the measured range


def setup(workload, seed, workdir, tracer=None):
    """Generate the input and make one warm-up call; returns (state, seconds, warm-up output)."""
    root = tracer.root("setup") if tracer is not None else contextlib.nullcontext()
    t0 = time.perf_counter()
    with root:
        state = workload.setup(seed, workdir)
        warm = workload.call(state, WARMUP)
    return state, time.perf_counter() - t0, warm


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, beyond).

    With ten calls or fewer no percentile qualifies, and the maximum is reported.
    """
    ordered = sorted(times)
    n = len(ordered)
    idx = n - 11 if n > 10 else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def ref_kernels(a, r1: int, width: int, seed: int, repeats: int = 15) -> dict:
    """Dense Gaussian apply ``A @ G`` and classical pair ``A (A^T Y)`` on the workload matrix."""
    import numpy as np

    rng = np.random.default_rng(seed)
    g = rng.standard_normal((a.shape[1], r1))
    y = rng.standard_normal((a.shape[0], width))

    def median_ms(fn):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)

    return {"ref.gemm_ms": median_ms(lambda: a @ g),
            "ref.classical_pair_ms": median_ms(lambda: a @ (a.T @ y))}


# ---------------------------------------------------------------------------
# per-layer metrics from the trace
# ---------------------------------------------------------------------------


def layer_metrics(tracer, run: Run, refs: dict, traced_times: list[float]) -> dict:
    calls = tracer.summaries("call")
    setups = tracer.summaries("setup")

    def per_call(*names):
        return median_of(calls, lambda s: 1e3 * sum(s["dur"][n] for n in names))

    def per_setup(name):
        return median_of(setups, lambda s: 1e3 * s["dur"][name])

    def info(name):
        return [item for s in calls for item in s["info"][name]]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"{layer}.self_ms": median_of(calls, lambda s, l=layer: 1e3 * s["self"][l]) for layer in LAYERS}
    m.update({f"{layer}.errors": float(tracer.errors[layer]) for layer in LAYERS})
    m.update(refs)

    applies = info("sketching.apply_right") + info("sketching.apply_left_transpose")
    rights = info("sketching.apply_right")
    m["sketching.build_ms"] = per_call("sketching.make_sketch", "sketching.densify")
    m["sketching.apply_ms"] = per_call("sketching.apply_right", "sketching.apply_left_transpose")
    m["sketching.apply_gbs"] = ratio(sum(b for b, _ in applies), 1e9 * sum(d for _, d in applies))
    m["sketching.apply_vs_gemm"] = ratio(
        ratio(1e3 * sum(d for _, d in rights), len(rights)), refs["ref.gemm_ms"])

    ortho = info("linalg.orthonormalize")
    m["linalg.orthonormalize_ms"] = per_call("linalg.orthonormalize")
    m["linalg.orthonormalize_calls"] = median_of(calls, lambda s: s["count"]["linalg.orthonormalize"])
    m["linalg.orthonormalize_cols_kept"] = ratio(sum(o for (_, o), _ in ortho),
                                                 sum(c for (c, _), _ in ortho))
    m["linalg.pinv_ms"] = per_call("linalg.pinv")

    def pair_ms(s):
        pairs = sum(q for q, _ in s["info"]["power.power_iterate"])
        return ratio(1e3 * s["names_self"]["power.power_iterate"], pairs)

    m["power.pair_ms"] = median_of(calls, pair_ms)
    m["power.pair_vs_classical"] = ratio(m["power.pair_ms"], refs["ref.classical_pair_ms"])
    m["power.randsvd_ms"] = per_call("power.randsvd")

    m["diagnostics.norm_estimate_ms"] = per_call("diagnostics.estimate_spectral_norm")
    m["diagnostics.norm_estimate_calls"] = median_of(
        calls, lambda s: s["count"]["diagnostics.estimate_spectral_norm"])
    m["diagnostics.residual_self_ms"] = median_of(
        calls, lambda s: 1e3 * s["names_self"]["diagnostics.residual"])
    m["diagnostics.profile_ms"] = per_call("diagnostics.profile")

    m["data_io.read_ms"] = per_call("data_io.read_binary")
    m["data_io.gen_ms"] = per_setup("data_io.gen")
    m["data_io.write_ms"] = per_setup("data_io.write_binary")

    # bench-curve only: share of the harness wall time that is the timed
    # algorithm, and share of power iterates that lowered the error
    final_ms = sum(s["final_time_ms"] for s in run.stats)
    harness_ms = 1e3 * sum(s["dur"]["bench.run_benchmark"] for s in calls)
    m["bench.timed_share"] = ratio(final_ms, harness_ms) if run.stats else 0.0
    m["bench.useful_iterate_frac"] = ratio(sum(s["improving"] for s in run.stats),
                                           sum(s["iterates"] for s in run.stats))
    m["trace.call_ms_p50"] = statistics.median(traced_times) if traced_times else 0.0
    return m


def print_layer_table(tracer) -> None:
    calls = tracer.summaries("call")
    total = median_of(calls, lambda s: 1e3 * s["total"])
    print(f"per-layer self time, median per traced call ({len(calls)} calls, {total:.1f} ms):")
    for layer in LAYERS + ("client",):
        ms = median_of(calls, lambda s, l=layer: 1e3 * s["self"][l])
        print(f"  {layer:<12} {ms:10.2f} ms  {100 * ms / total if total else 0:5.1f}%")


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------


def run_untraced(workload, args, workdir, import_s, CheckFailed):
    setups = []
    for _ in range(SETUP_REPEATS):
        state, seconds, warm = setup(workload, args.seed, workdir)
        setups.append(seconds)
    run = Run(workload, state, CheckFailed)
    run.check(WARMUP, warm)
    times = run.loop(args.seconds)
    if not times:
        raise RuntimeError("no call completed")
    err = run.err_ratio_max()
    value, pct, beyond = tail(times)
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "call_ms_p50": statistics.median(times),
        "call_ms_tail": value,
        "err_ratio_max": err,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"workload {workload.name}: {len(times)} timed calls; import {import_s:.3f} s, "
          f"setups {', '.join(f'{s:.3f}' for s in setups)} s")
    print(f"  call_ms_tail is p{pct:.1f} of {len(times)} calls ({beyond} beyond it)")
    print(f"  failed_frac {run.failed / run.attempted:.4f} ({run.failed} of {run.attempted} calls)")
    return run, metrics, state


def run_traced(workload, args, workdir, CheckFailed, single_thread_child: bool):
    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(SETUP_REPEATS):
            state, _, warm = setup(workload, args.seed, workdir, tracer)
    finally:
        tracer.uninstall()
    run = Run(workload, state, CheckFailed)
    run.check(WARMUP, warm)
    # untraced and traced calls alternate, so that the tracing overhead is
    # measured under the same machine conditions
    untraced, traced = [], []
    end = time.perf_counter() + (args.seconds if single_thread_child else 2 * args.seconds / 3)
    while time.perf_counter() < end:
        if not single_thread_child:
            untraced.append(run.one_call())
        tracer.install()
        try:
            traced.append(run.one_call(tracer))
        finally:
            tracer.uninstall()
    untraced = [ms for ms in untraced if ms is not None]
    traced = [ms for ms in traced if ms is not None]
    run.err_ratio_max()
    refs = ref_kernels(state["a"], *workload.ref_shape, args.seed)
    metrics = layer_metrics(tracer, run, refs, traced)
    print_layer_table(tracer)
    if not single_thread_child:
        base = statistics.median(untraced) if untraced else 0.0
        metrics["trace.untraced_call_ms_p50"] = base
        metrics["trace.overhead_frac"] = (metrics["trace.call_ms_p50"] - base) / base if base else 0.0
    return run, metrics, state


def single_thread_repeat(args) -> dict:
    """Rerun the traced phase in a child with SKPOWER_THREADS=1; returns its result."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env.pop(var, None)
    env["SKPOWER_THREADS"] = "1"
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds / 3.0), "--trace", "1",
           "--single-thread-child"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"  [t1] {line}")
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"single-thread repeat exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--single-thread-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "skpower", "__init__.py")):
        print(f"perfbench: no skpower sources under {SRC}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import skpower

    import_s = time.perf_counter() - t0
    if not os.path.abspath(skpower.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported skpower from {skpower.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, CheckFailed

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        if args.trace:
            run, metrics, state = run_traced(workload, args, workdir, CheckFailed,
                                             args.single_thread_child)
        else:
            run, metrics, state = run_untraced(workload, args, workdir, import_s, CheckFailed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    correct = not run.problems
    attempted, failed = run.attempted, run.failed
    units = per_layer if args.trace else end_to_end
    if args.single_thread_child:
        # the child reports the metrics that the parent declares with a "t1." prefix
        units = {name[3:]: unit for name, unit in per_layer.items() if name.startswith("t1.")}
        metrics = {name: metrics[name] for name in units}
    elif args.trace:
        child = single_thread_repeat(args)
        correct = correct and child["correct"]
        attempted += child["attempted"]
        failed += child["failed"]
        metrics.update({f"t1.{name}": entry["value"] for name, entry in child["metrics"].items()})
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:14.4f} {units[name]}")

    print("machine:", json.dumps(machine_block(state["a"].nbytes)))
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    result = {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
