"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload mc_systemic --seeds 0-9 --seconds 28

For every end-to-end metric this prints the median of the runs and the
distance between the first and third quartile as a share of the median -- the
figure a benchmark bound has to cover.  The raw seconds per op and of the
reference computation (``op_s_p50``, ``reference_s_p50``), which run.py prints
but does not report, are summarised the same way, and each run's count of ops
the program flagged as not converged is kept with it.  Runs are sequential, one
process at a time.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RAW_LINE = re.compile(r"^op_s_p50 (\S+) s, reference_s_p50 (\S+) s$", re.MULTILINE)
FLAGGED_LINE = re.compile(r"^ops \d+, .* flagged (\d+),", re.MULTILINE)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the runs and the summary as JSON here")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True,
                              timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        raw = dict(zip(("op_s_p50", "reference_s_p50"),
                       map(float, RAW_LINE.search(proc.stdout).groups())))
        flagged = int(FLAGGED_LINE.search(proc.stdout).group(1))
        runs.append({"seed": seed, **result, "flagged": flagged, "raw": raw})
        measured = {**{k: v["value"] for k, v in result["metrics"].items()}, **raw}
        print(f"seed {seed}: correct {result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}, flagged {flagged}, "
              + ", ".join(f"{k} {v:.6g}" for k, v in measured.items()), flush=True)
        for name, value in measured.items():
            values.setdefault(name, []).append(value)

    print(f"{'metric':52s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/median':>10s}")
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else None
        summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_over_median": share}
        print(f"{name:52s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{share if share is not None else float('nan'):10.4f}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                        "runs": runs,
                                        "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
