"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 bench/spread.py --seeds 1-10 --out bench/results/seed-<rev>.json
    python3 bench/spread.py --seeds 1-10 --out set2.json --against set1.json

For every workload and metric it reports the median over the seeds, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound in
BENCHMARK.json. With ``--against`` it also reports how far each median moved
from that earlier record, as a share of the earlier median. Runs are made one
at a time, in a fresh process each, with the ``command`` and ``run_seconds``
of BENCHMARK.json, seed by seed with the workloads taken in turn, so that a
slow spell of the machine is shared by every workload instead of falling on
one. The record also holds the machine details and the git revision, when
there is one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_rev() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_rev": _git_rev()}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median,
            "runs": len(values)}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", type=Path, help="write the record here as JSON")
    parser.add_argument("--against", type=Path, help="an earlier record to compare medians with")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {} for w in workloads}
    runs = {w: [] for w in workloads}
    t0 = time.monotonic()
    for seed in _seeds(args.seeds):
        for workload in workloads:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            started = round(time.monotonic() - t0, 1)
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs[workload].append({"seed": seed, "started": started, "correct": result["correct"],
                                   "attempted": result["attempted"], "failed": result["failed"],
                                   "values": {k: m["value"] for k, m in result["metrics"].items()}})
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)

    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}
    record = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    for workload in workloads:
        print(workload)
        metrics = {}
        for name, v in values[workload].items():
            s = metrics[name] = {**summarise(v), "bound": bounds.get(name)}
            line = (f"  {name:<16} median {s['median']:.4f}  iqr/median {s['iqr_share']:.3f}"
                    f"  bound {s['bound']}")
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before:
                s["median_change"] = (s["median"] - before["median"]) / before["median"]
                line += f"  median change {s['median_change']:+.3f}"
            print(line, flush=True)
        record["workloads"][workload] = {"runs": runs[workload], "metrics": metrics}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
