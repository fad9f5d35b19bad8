"""BENCH_0.json, the first benchmark trajectory point: it names the commit and the
commands that regenerate it, and holds every metric BENCHMARK.json declares for every
workload. Nothing here is timed."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_0_names_its_commit_and_commands_and_holds_every_metric():
    record = json.loads((ROOT / "BENCH_0.json").read_text(encoding="utf-8"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert re.fullmatch(r"[0-9a-f]{40}", record["commit"])
    assert record["regenerate"] == (f"python3 tools/bench_trajectory.py --root TREE "
                                    f"--commit {record['commit']} --out BENCH_0.json")
    assert record["nproc"] >= 1
    assert sorted(record["workloads"]) == sorted(w["name"] for w in benchmark["workloads"])
    for name, entry in record["workloads"].items():
        for mode, trace, declared in (("untraced", 0, benchmark["end_to_end"]),
                                      ("traced", 1, benchmark["per_layer"])):
            runs = entry[mode]
            assert re.fullmatch(rf"python3 perfbench/run\.py --workload {name} --seed \d+ "
                                rf"--seconds \d+ --trace {trace}", runs["command"])
            assert f"workload {name} " in runs["env_line"] and " env {" in runs["env_line"]
            assert runs["failed"] == 0 < runs["attempted"]
            for metric in declared:
                stats = runs["metrics"][metric["name"]]
                assert stats["unit"] == metric["unit"], (name, metric["name"])
                assert stats["q1"] <= stats["median"] <= stats["q3"], (name, metric["name"])
                assert min(stats["runs"]) <= stats["q1"] and stats["q3"] <= max(stats["runs"])
    paper = record["paper_scale"]
    assert [c.split()[:2] for c in paper["commands"]] == [["graphgcd", "gen-synthetic"],
                                                         ["graphgcd", "run-all"]]
    run = paper["run_all"]
    assert run["wall_s"] > 0 and run["peak_rss_mb"] > 0
    assert all(0.0 <= run[m] <= 1.0 for m in ("acc_all", "acc_known", "acc_new"))
