"""sysrisk benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload mc_large_pop --seed 0 --seconds 28 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0  times ops for --seconds seconds in this process and reports the
           end-to-end metrics.  Set-up is timed in separate processes that
           stop just before the first op.  This mode never imports the
           tracing wrappers.  Each op time is also divided by the time of a
           fixed reference computation run next to it (see reference.py).
--trace 1  runs a fixed number of ops untraced in a child process, then the
           same ops traced in this process, and reports the per-layer
           metrics.  Spans go to perfbench/out/.

BLAS is pinned to one thread so that all load comes from one process.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc_large_pop", "mc_systemic", "mc_sparse", "theory")
SETUP_SAMPLES = 9
MIN_OPS = 3
CHILD_TIMEOUT_S = 170


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many ops instead of --seconds")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the first op would start (set-up timing)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.ops is not None and args.ops < 1:
        parser.error("--ops must be at least 1")
    return args


def _import_package() -> None:
    """Import sysrisk from this checkout's src/, or exit with status 1."""
    src = ROOT / "src"
    if not (src / "sysrisk" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {src / 'sysrisk'}; "
                 "run from the root of a sysrisk checkout")
    sys.path.insert(0, str(src))
    import sysrisk
    if Path(sysrisk.__file__).resolve().parent != (src / "sysrisk").resolve():
        sys.exit(f"error: imported sysrisk from {sysrisk.__file__}, not {src}")


def _blas_threads(np) -> int | None:
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(np) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu or platform.processor() or None,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(np), "git_commit": _git_commit()}


def _child(args: argparse.Namespace, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]


def time_setup(args: argparse.Namespace) -> list[float]:
    """Wall time from spawning a set-up-only process to its ready line."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(_child(args, "--setup-only"), cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed: {line!r}")
        samples.append(ready - start)
    return samples


def run_ops(workload, seed: int, ops: int | None, seconds: float, clock, scope=None):
    """Run exactly `ops` ops, or ops until `seconds` is spent; time only the op.

    Returns the op times, the reference times around them (one more than
    ops), the outcomes and the indices of ops that raised.
    """
    times, refs, outcomes, crashed = [], [], [], []
    budget_end = time.perf_counter() + seconds
    k = 0
    while True:
        refs.append(workload.reference())
        inp = workload.inputs(seed, k)
        try:
            with scope(k) if scope is not None else contextlib.nullcontext():
                start = clock()
                result = workload.op(inp)
                took = clock() - start
            outcome = workload.check(inp, result)
        except Exception:
            crashed.append(k)
            traceback.print_exc()
            outcome, took = None, None
        times.append(took)
        outcomes.append(outcome)
        _print_op(k, took, outcome)
        k += 1
        if ops is not None:
            if k >= ops:
                break
        elif k >= MIN_OPS:
            done = [t for t in times if t is not None]
            expected = statistics.median(done) if done else 0.0
            if time.perf_counter() + expected > budget_end:
                break
    refs.append(workload.reference())
    return times, refs, outcomes, crashed


def calibrate(times, refs) -> list[float]:
    """Op times in units of the mean of the two neighbouring reference times."""
    return [t / (0.5 * (before + after))
            for t, before, after in zip(times, refs, refs[1:]) if t is not None]


def _print_op(k: int, took, outcome) -> None:
    if outcome is None:
        print(f"op {k}: CRASHED")
        return
    state = "FAILED: " + "; ".join(outcome.wrong) if outcome.wrong else "ok"
    if outcome.flagged:
        state += "; flagged: " + "; ".join(outcome.flagged)
    print(f"op {k}: {took:.4f} s, rounds {outcome.rounds}, "
          f"agent-rounds {outcome.agent_rounds}, {state}")


def summarize(times, outcomes, crashed):
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o is None or o.wrong)
    flagged = sum(1 for o in outcomes if o is not None and o.flagged)
    correct = not crashed and not failed
    done = [t for t in times if t is not None]
    return attempted, failed, flagged, correct, done


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:>16.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))


def untraced(args, workload) -> int:
    setup = time_setup(args)
    times, refs, outcomes, crashed = run_ops(workload, args.seed, args.ops, args.seconds,
                                             time.perf_counter)
    attempted, failed, flagged, correct, done = summarize(times, outcomes, crashed)
    if not done:
        sys.exit("error: every op raised")
    calibrated = calibrate(times, refs)
    if "tracing" in sys.modules:
        raise RuntimeError("the untraced run loaded the tracing wrappers")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = sum(done)
    rounds = sum(o.rounds for o in outcomes if o is not None)
    agent_rounds = sum(o.agent_rounds for o in outcomes if o is not None)
    print(f"ops {attempted}, failed {failed}, failed_frac {failed / attempted:.4f}, "
          f"flagged {flagged}, set-up samples {[round(s, 4) for s in setup]}")
    print(f"op_s_p50 {statistics.median(done):.6g} s, "
          f"reference_s_p50 {statistics.median(refs):.6g} s")
    if rounds and wall:
        print(f"rounds_per_s {rounds / wall:.6g} 1/s, "
              f"agent_rounds_per_s {agent_rounds / wall:.6g} 1/s")
    metrics = {"setup_s": (statistics.median(setup), "s"),
               "op_ref_p50": (statistics.median(calibrated), "ref"),
               "peak_rss_mb": (peak_mb, "MB")}
    _emit(correct, attempted, failed, metrics)
    return 0


def traced(args, workload) -> int:
    ops = args.ops or workload.trace_ops
    child = subprocess.run(_child(args, "--trace", "0", "--ops", str(ops)), cwd=ROOT,
                           stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if child.returncode != 0:
        raise RuntimeError(f"untraced child exited with {child.returncode}")
    plain = json.loads(child.stdout.strip().splitlines()[-1])

    import tracing
    import workloads
    tracer = tracing.Tracer()
    tracer.install(extra_modules=(workloads,))
    times, refs, outcomes, crashed = run_ops(workload, args.seed, ops, args.seconds,
                                             tracer.now, scope=tracer.op)
    attempted, failed, flagged, correct, done = summarize(times, outcomes, crashed)
    if not done:
        sys.exit("error: every traced op raised")
    metrics = tracer.layer_metrics()
    # Traced minus untraced median op time, compared in calibrated units and
    # expressed in seconds at this run's reference speed.
    extra = statistics.median(calibrate(times, refs)) - plain["metrics"]["op_ref_p50"]["value"]
    metrics["trace.overhead_s"] = (extra * statistics.median(refs), "s")
    tracer.write_spans(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.tsv")
    print(f"traced ops {attempted}, flagged {flagged}, untraced child: correct {plain['correct']}, "
          f"failed {plain['failed']}/{plain['attempted']}")
    print(f"clearing certificate: {tracer.certificate_s:.4f} s off the trace clock, "
          f"largest residual {tracer.residual_max:.3g} y")
    _emit(correct and plain["correct"], attempted, failed, metrics)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _import_package()
    import numpy as np
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    env = environment(np)
    workload.inputs(args.seed, 0)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    print("env " + json.dumps(env, sort_keys=True))
    return traced(args, workload) if args.trace else untraced(args, workload)


if __name__ == "__main__":
    sys.exit(main())
