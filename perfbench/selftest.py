"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--workload NAME ...]

Checks, per workload:

* two traced runs of the same seed give identical counts (calls,
  iterations, unconverged, uncertified, byte counts);
* the traced counts show the known baseline facts: ``model.derive`` runs
  twice per played round, the theory sweep makes no replicator, netgen or
  clearing call, and seed 0 of ``mc_systemic`` has uncertified clearings;
* both modes print exactly the metrics BENCHMARK.json lists, and the
  untraced mode finishes without loading the wrappers (run.py refuses to
  report otherwise);
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

Exits 0 when every check passes.
"""
from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_UNITS = ("count", "B")


def _run(cwd: Path, workload: str, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(workload: str, spec: dict) -> list[str]:
    problems = []
    plain = _result(_run(ROOT, workload, "--trace", "0", "--ops", "1"))
    if set(plain["metrics"]) != {m["name"] for m in spec["end_to_end"]}:
        problems.append(f"untraced metrics {sorted(plain['metrics'])}")

    first, second = (_result(_run(ROOT, workload, "--trace", "1")) for _ in range(2))
    if set(first["metrics"]) != {m["name"] for m in spec["per_layer"]}:
        problems.append("traced metrics differ from BENCHMARK.json per_layer")
    for name, metric in first["metrics"].items():
        if metric["unit"] in EXACT_UNITS and metric != second["metrics"].get(name):
            problems.append(f"{name}: {metric['value']} then "
                            f"{second['metrics'].get(name, {}).get('value')}")

    m = {name: metric["value"] for name, metric in first["metrics"].items()}
    played = m["replicator.step_round.calls"] + m["replicator.initial_state.calls"]
    if workload == "theory":
        engine = [name for name in m if name.endswith(".calls")
                  and name.split(".")[0] in ("replicator", "netgen", "clearing") and m[name]]
        if engine:
            problems.append(f"theory calls the Monte-Carlo engine: {engine}")
    elif m["model.derive.calls"] != 2 * played:
        problems.append(f"derive calls {m['model.derive.calls']} != 2 x {played}")
    if workload == "mc_systemic" and m["clearing.solve_clearing.uncertified"] < 1:
        problems.append("frozen seeds 0 and 1 show no uncertified clearing")
    return problems


def check_bare_directory() -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "theory", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    failures = 0
    for workload in args.workload or names:
        problems = check_workload(workload, spec)
        failures += bool(problems)
        print(f"{workload}: {'ok' if not problems else 'FAIL'}")
        for problem in problems:
            print(f"  {problem}")
    problems = check_bare_directory()
    failures += bool(problems)
    print(f"bare directory: {'ok' if not problems else 'FAIL'}")
    for problem in problems:
        print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
