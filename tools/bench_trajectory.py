"""Record a benchmark trajectory point: repeated perfbench runs plus the paper-scale run.

Usage, from the repository root:

    python3 tools/bench_trajectory.py --root TREE --commit SHA --out BENCH_0.json

TREE is a checkout of the commit to measure (for example from `git archive`);
its own `perfbench/run.py` and `src/` are run, unchanged. For each workload in
TREE's BENCHMARK.json the harness runs RUNS times at --trace 0 and
TRACED_RUNS times at --trace 1 (--seed SEED --seconds SECONDS), one run at a time.
Each metric is stored as its median and quartiles over those runs, next to every
run's value. Then `gen-synthetic` writes the paper-scale dataset
(100 classes, 50 known, 200 per class, dim 512, seed 100) and one
`run-all --k-total 100` on it records its wall time, its peak resident memory
(wait4 rusage of the child) and its three accuracies.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# What the installed `graphgcd` console script runs, as perfbench/run.py spawns it.
CLI = ["-c", "import sys; from graphgcd.cli import main; sys.exit(main())"]
PAPER_GEN = ["gen-synthetic", "--classes", "100", "--known", "50", "--per-class", "200",
             "--dim", "512", "--seed", "100"]
PAPER_RUN = ["run-all", "--k-total", "100"]
INPUTS = ("labeled", "unlabeled", "class_emb")
SEED, SECONDS, RUNS, TRACED_RUNS = 1, 24, 7, 3


def summary(values: list[float]) -> dict:
    """Median and inclusive quartiles of the runs, and the runs themselves."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def harness_runs(root: Path, workload: str, trace: int, runs: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    env_lines, results = [], []
    for i in range(runs):
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        env_lines.append(next(line for line in lines if " env {" in line))
        results.append(json.loads(lines[-1]))
        print(f"{workload} trace {trace} run {i + 1}/{runs}: "
              f"failed {results[-1]['failed']}/{results[-1]['attempted']}", flush=True)
    metrics = {name: {"unit": info["unit"],
                      **summary([r["metrics"][name]["value"] for r in results])}
               for name, info in results[0]["metrics"].items()}
    return {
        "command": shlex.join(["python3"] + cmd[1:]),
        "env_line": env_lines[0],
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def timed_child(cmd: list[str], env: dict, log: Path) -> tuple[float, float]:
    """Wall seconds and peak resident MB (wait4 ru_maxrss) of one child process."""
    start = time.perf_counter()
    with open(log, "wb") as out:
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{shlex.join(cmd)} exited {proc.returncode}; see {log}")
    return wall, usage.ru_maxrss / 1024


def paper_scale(root: Path, work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + env["PYTHONPATH"]
                                             if env.get("PYTHONPATH") else "")
    data, out = work / "data", work / "run"
    gen = [sys.executable, *CLI, *PAPER_GEN, "--out-dir", str(data)]
    gen_s, gen_mb = timed_child(gen, env, work / "gen.log")
    files = [arg for name in INPUTS
             for arg in (f"--{name.replace('_', '-')}", str(data / f"{name}.gvle"))]
    run = [sys.executable, *CLI, *PAPER_RUN, *files, "--out-dir", str(out)]
    run_s, run_mb = timed_child(run, env, work / "run.log")
    lines = (out / "report.csv").read_text(encoding="utf-8").splitlines()[1:]
    accuracies = {metric: float(value) for metric, value in (line.split(",") for line in lines)}
    return {
        "commands": [shlex.join(["graphgcd", *PAPER_GEN, "--out-dir", "DATA"]),
                     shlex.join(["graphgcd", *PAPER_RUN, "--labeled", "DATA/labeled.gvle",
                                 "--unlabeled", "DATA/unlabeled.gvle",
                                 "--class-emb", "DATA/class_emb.gvle", "--out-dir", "OUT"])],
        "gen_synthetic": {"wall_s": round(gen_s, 3), "peak_rss_mb": round(gen_mb, 1)},
        "run_all": {"wall_s": round(run_s, 3), "peak_rss_mb": round(run_mb, 1), **accuracies},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True, metavar="TREE",
                        help="checkout to measure")
    parser.add_argument("--commit", required=True, help="the commit TREE holds")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args()
    root = args.root.resolve()
    workloads = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]

    record = {
        "commit": args.commit,
        "nproc": len(os.sched_getaffinity(0)),
        # the checkout's own path is not part of the command another machine runs
        "regenerate": shlex.join(["python3", "tools/bench_trajectory.py", "--root", "TREE",
                                  "--commit", args.commit, "--out", args.out.name]),
        "workloads": {},
    }
    for name in workloads:
        record["workloads"][name] = {
            "untraced": harness_runs(root, name, 0, RUNS),
            "traced": harness_runs(root, name, 1, TRACED_RUNS),
        }
    with tempfile.TemporaryDirectory() as work:
        record["paper_scale"] = paper_scale(root, Path(work))
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
