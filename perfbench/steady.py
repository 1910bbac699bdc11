#!/usr/bin/env python3
"""Run the workloads in repeated sets of seeds; print each metric's spread.

Usage, from the root of a source checkout::

    python3 perfbench/steady.py --runs 10 --sets 2 [--workload serve-sparse ...]

Runs ``run.py`` untraced, for ``run_seconds`` of ``BENCHMARK.json``, one
run at a time.  Set ``s`` uses seeds ``first + s * runs`` onwards.  Runs
are interleaved (run ``i`` of every set and workload before run
``i + 1``), so drift of the host falls on every set alike.  For each
workload and end-to-end metric it prints, per set, the median, the
quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and the
spread: the distance between the quartiles as a share of the median;
then how much worse the last set's median is than the first's.  A
``!`` marks a spread or a change above the metric's bound.  Raw
results are appended to ``.perfbench/steady.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) of *values*."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, ((q3 - q1) / median if median else float("inf"))


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("need at least two runs for quartiles")
    workloads = args.workload or names
    seconds = manifest["run_seconds"]

    results = {(w, s): [] for w in workloads for s in range(args.sets)}
    log_path = ROOT / ".perfbench" / "steady.jsonl"
    log_path.parent.mkdir(parents=True, exist_ok=True)
    for i in range(args.runs):
        for s in range(args.sets):
            for w in workloads:
                seed = args.first_seed + s * args.runs + i
                started = time.perf_counter()
                result = run_once(w, seed, seconds)
                wall = time.perf_counter() - started
                results[w, s].append(result)
                with log_path.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps({
                        "workload": w, "set": s, "seed": seed, "seconds": seconds,
                        "wall_s": wall, **result,
                    }) + "\n")
                print(
                    f"{w} set {s} seed {seed}: correct={result['correct']} "
                    f"attempted={result['attempted']} failed={result['failed']} "
                    f"wall={wall:.1f}s", flush=True,
                )

    for w in workloads:
        print(f"\n{w}: {args.sets} set(s) of {args.runs} runs of {seconds} s")
        print(f"{'metric':16s}" + "".join(
            f" {'set ' + str(s) + ': median [q1, q3]':>34s} {'spread':>7s}"
            for s in range(args.sets)
        ) + f" {'worse by':>9s}  bound")
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line, medians = f"{name:16s}", []
            for s in range(args.sets):
                median, q1, q3, share = spread(
                    [r["metrics"][name]["value"] for r in results[w, s]]
                )
                medians.append(median)
                flag = "!" if share > bound and name != "setup_s" else " "
                line += f" {median:10.4f} [{q1:10.4f}, {q3:10.4f}] {share:6.3f}{flag}"
            change = worse_by(medians[0], medians[-1], metric["better"])
            flag = "!" if change > bound else " "
            print(f"{line} {change:+8.3f}{flag}  {bound}")
        shares = [
            sorted({r["failed"] / r["attempted"] for r in results[w, s]})
            for s in range(args.sets)
        ]
        correct = all(r["correct"] for s in range(args.sets) for r in results[w, s])
        print(f"failed share per set: {shares}; all correct: {correct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
