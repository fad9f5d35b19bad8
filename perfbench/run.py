"""graphgcd benchmark: drives the real CLI on generated GVLE files.

Usage, from the repository root:

    python3 perfbench/run.py --workload train-heavy --seed 1 --seconds 24 --trace 0

See perfbench/README.md for the workloads and metrics. The last line of
stdout is one JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

GVLE_FILES = ("labeled.gvle", "unlabeled.gvle", "class_emb.gvle")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
TRACER = HERE / "tracer.py"
# What the installed `graphgcd` console script runs.
CLI = ["-c", "import sys; from graphgcd.cli import main; sys.exit(main())"]

# A run must end within 180 s; leave room for reporting.
HARD_LIMIT_S = 165.0
PROGRAM_SEED = "0"
# One BLAS thread per child: on a 2-core machine a second thread made runs no
# faster, and a run then stalls whenever either core is busy elsewhere.
BLAS_THREADS = 1


@dataclass(frozen=True)
class Workload:
    classes: int
    known: int
    per_class: int
    dim: int
    panel: int                      # datasets per run, seeds derived from --seed
    commands: tuple[tuple[str, ...], ...]
    k_range: tuple[int, int]        # allowed cluster count

    def gen_flags(self) -> list[str]:
        return ["--classes", str(self.classes), "--known", str(self.known),
                "--per-class", str(self.per_class), "--dim", str(self.dim)]


RUN_ALL = ("run-all", "{labeled}", "{unlabeled}", "{class_emb}")

# Why each workload exists is in BENCHMARK.json and README.md. A panel averages
# out how one draw of class centres moves the Lloyd iteration count and the
# accuracies. One pass over a panel takes about 24 s on 2 cores, except on
# elbow-staged (about 45 s): its novel-class accuracy swings most between
# draws, so it gets more datasets.
WORKLOADS = {
    "train-heavy": Workload(
        classes=20, known=10, per_class=200, dim=128, panel=4,
        commands=(RUN_ALL + ("--epochs", "40", "--k-total", "20"),),
        k_range=(20, 20),
    ),
    "cluster-heavy": Workload(
        classes=50, known=25, per_class=60, dim=128, panel=8,
        commands=(RUN_ALL + ("--epochs", "2", "--k-total", "50"),),
        k_range=(50, 50),
    ),
    "elbow-staged": Workload(
        classes=24, known=12, per_class=100, dim=64, panel=8,
        commands=(
            ("train", "{labeled}", "{class_emb}", "--epochs", "2"),
            ("cluster", "{labeled}", "{unlabeled}", "{class_emb}", "{checkpoint}",
             "--estimate-k"),
            ("eval", "{assignments}", "{unlabeled}", "--known", "12"),
        ),
        k_range=(12, 27),
    ),
    # Self-test at ROADMAP's tiny scale; not one of the named workloads.
    "smoke": Workload(
        classes=10, known=5, per_class=100, dim=32, panel=2,
        commands=(RUN_ALL + ("--epochs", "5", "--k-total", "10"),),
        k_range=(10, 10),
    ),
}

END_TO_END = {
    "run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "acc_all": "fraction", "acc_new": "fraction",
}

PER_LAYER = {
    "cli.self_s": "s",
    "embed_io.read_s": "s",
    "semantic_graph.build_s": "s",
    "trainer.train_s": "s",
    "trainer.steps": "count",
    "trainer.step_ms": "ms",
    "trainer.peak_alloc_mb": "MB",
    "trainer.checkpoint_save_s": "s",
    "trainer.checkpoint_load_s": "s",
    "losses.sample_triplets_s": "s",
    "losses.loss_total_s": "s",
    "losses.triplets": "count",
    "neural_core.gcn_s": "s",
    "neural_core.projector_fwd_s": "s",
    "neural_core.projector_bwd_s": "s",
    "neural_core.adam_s": "s",
    "clustering.features_s": "s",
    "clustering.seed_s": "s",
    "clustering.kmeans_s": "s",
    "clustering.lloyd_iters": "count",
    "clustering.lloyd_ms_per_iter": "ms",
    "clustering.kmeans_runs": "count",
    "clustering.cap_hits": "count",
    "clustering.peak_alloc_mb": "MB",
    "clustering.scan_s": "s",
    "evaluation.eval_s": "s",
    "trace.overhead_s": "s",
}
COUNTS = ("trainer.steps", "losses.triplets", "clustering.lloyd_iters",
          "clustering.kmeans_runs", "clustering.cap_hits")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Proc:
    code: int
    seconds: float
    rss_mb: float
    stdout: str


def spawn(cmd: list[str], log: Path, timeout: float) -> Proc:
    """Run one child to exit; wall time from spawn to reap, peak RSS from wait4."""
    with open(log, "w+", encoding="utf-8") as out:
        start = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out,
                             stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout, 0.1), p.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
        p.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read()
    return Proc(p.returncode, seconds, usage.ru_maxrss / 1024.0, text)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def gvle_labels(path: Path) -> list[int]:
    raw = path.read_bytes()
    if raw[:4] != b"GVLE":
        raise ValueError(f"{path.name}: bad magic")
    n, d, has_labels = struct.unpack_from("<IIB", raw, 4)
    if not has_labels:
        raise ValueError(f"{path.name}: no labels")
    return list(struct.unpack_from(f"<{n}i", raw, 13 + 4 * n * d))


@dataclass
class Dataset:
    index: int
    seed: int
    dir: Path
    labels: list[int] = field(default_factory=list)
    n_total: int = 0
    inputs: str = ""                # sha256 over the three GVLE files
    hashes: dict[str, str] | None = None
    acc: tuple[float, float] | None = None
    walls: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)


class Bench:
    def __init__(self, name: str, seed: int, seconds: int, trace: bool):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup_times: list[float] = []
        self.dir = WORK / f"{name}-{seed}-{'trace' if trace else 'plain'}"

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.start)

    def fail(self, ds: Dataset | None, msg: str) -> None:
        where = f"dataset {ds.index} (seed {ds.seed})" if ds else "run"
        self.errors.append(f"{where}: {msg}")

    # -- set-up ----------------------------------------------------------
    def warm_up(self) -> dict:
        probe = (
            "import json, numpy, scipy, graphgcd.cli\n"
            "try:\n"
            "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
            "    openblas = blas.get('name', '?') + ' ' + blas.get('version', '?')\n"
            "except Exception:\n"
            "    openblas = 'unknown'\n"
            "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
            " 'blas': openblas}))\n"
        )
        self.dir.mkdir(parents=True, exist_ok=True)
        proc = spawn([sys.executable, "-c", probe], self.dir / "warmup.log", self.remaining())
        if proc.code != 0:
            self.errors.append(f"program does not import: {proc.stdout.strip()[-300:]}")
            return {}
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        info.update(nproc=len(os.sched_getaffinity(0)), blas_threads=BLAS_THREADS)
        return info

    def generate(self, index: int) -> Dataset | None:
        ds = Dataset(index=index, seed=self.seed * 100 + index, dir=self.dir / f"d{index}")
        shutil.rmtree(ds.dir, ignore_errors=True)
        ds.dir.mkdir(parents=True)
        cmd = [sys.executable, *CLI, "gen-synthetic", *self.w.gen_flags(),
               "--seed", str(ds.seed), "--out-dir", str(ds.dir / "in")]
        self.attempted += 1
        proc = spawn(cmd, ds.dir / "gen.log", self.remaining())
        try:
            if proc.code != 0:
                raise ValueError(f"gen-synthetic exited {proc.code}")
            ds.labels = gvle_labels(ds.dir / "in" / "labeled.gvle")
            n_unlabeled = len(gvle_labels(ds.dir / "in" / "unlabeled.gvle"))
            ds.inputs = hashlib.sha256("".join(
                sha256(ds.dir / "in" / f) for f in GVLE_FILES).encode()).hexdigest()
        except (OSError, ValueError, struct.error) as e:
            self.failed += 1
            self.fail(ds, f"set-up: {e}")
            return None
        ds.n_total = len(ds.labels) + n_unlabeled
        self.setup_times.append(proc.seconds)
        return ds

    # -- one pipeline pass -----------------------------------------------
    def argv(self, template: tuple[str, ...], ds: Dataset, out: Path) -> list[str]:
        inp = ds.dir / "in"
        files = {
            "{labeled}": ["--labeled", str(inp / "labeled.gvle")],
            "{unlabeled}": ["--unlabeled", str(inp / "unlabeled.gvle")],
            "{class_emb}": ["--class-emb", str(inp / "class_emb.gvle")],
            "{checkpoint}": ["--checkpoint", str(out / "checkpoint.gvlp")],
            "{assignments}": ["--assignments", str(out / "assignments.csv")],
        }
        args = [a for t in template for a in files.get(t, [t])]
        if template[0] != "cluster":   # cluster takes its seed from the checkpoint
            args += ["--seed", PROGRAM_SEED]
        return args + ["--out-dir", str(out)]

    def run_once(self, ds: Dataset, mode: str | None) -> tuple[float, float, list[dict]] | None:
        """One pass of the workload's commands; None when a check failed."""
        out = ds.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        self.attempted += 1
        wall, rss, stdout, traces = 0.0, 0.0, "", []
        for i, template in enumerate(self.w.commands):
            args = self.argv(template, ds, out)
            if mode is None:
                cmd = [sys.executable, *CLI, *args]
            else:
                flags = ["--alloc"] if mode == "alloc" else []
                cmd = [sys.executable, str(TRACER), str(ds.dir / f"trace{i}.json"), *flags,
                       "--", *args]
            proc = spawn(cmd, ds.dir / f"cmd{i}.log", self.remaining())
            wall += proc.seconds
            rss = max(rss, proc.rss_mb)
            stdout += proc.stdout
            if proc.code != 0:
                self.failed += 1
                self.fail(ds, f"{template[0]} exited {proc.code}: {proc.stdout.strip()[-300:]}")
                return None
        try:
            if mode is not None:
                traces = [json.loads((ds.dir / f"trace{i}.json").read_text(encoding="utf-8"))
                          for i in range(len(self.w.commands))]
            self.check_outputs(ds, out, stdout)
        except (OSError, ValueError, KeyError, IndexError) as e:
            self.failed += 1
            self.fail(ds, str(e))
            return None
        return wall, rss, traces

    def check_outputs(self, ds: Dataset, out: Path, stdout: str) -> None:
        k = self.w.k_range[1]
        if any("--estimate-k" in c for c in self.w.commands):
            lines = [l for l in stdout.splitlines() if l.startswith("estimated k ")]
            if len(lines) != 1:
                raise ValueError("no 'estimated k' line in the cluster output")
            k = int(lines[0].split()[2])
            if not self.w.k_range[0] <= k <= self.w.k_range[1]:
                raise ValueError(f"estimated k {k} outside {self.w.k_range}")

        rows = (out / "assignments.csv").read_text(encoding="utf-8").splitlines()
        if rows[0] != "sample_index,cluster_id,is_constrained" or len(rows) != ds.n_total + 1:
            raise ValueError("assignments.csv: bad header or row count")
        n_lab = len(ds.labels)
        for i, row in enumerate(rows[1:]):
            index, cluster, pinned = (int(v) for v in row.split(","))
            if index != i or not 0 <= cluster < k or pinned != (i < n_lab):
                raise ValueError(f"assignments.csv: bad row {i}: {row}")
            if i < n_lab and cluster != ds.labels[i]:
                raise ValueError(f"assignments.csv: labeled row {i} left class {ds.labels[i]}")

        report = dict(l.split(",") for l in
                      (out / "report.csv").read_text(encoding="utf-8").splitlines()[1:])
        acc = {m: float(report[m]) for m in ("acc_all", "acc_known", "acc_new")}
        if not all(0.0 <= v <= 1.0 for v in acc.values()):
            raise ValueError(f"report.csv: accuracy outside [0, 1]: {acc}")

        hashes = {f: sha256(out / f) for f in ("assignments.csv", "checkpoint.gvlp", "report.csv")}
        if ds.hashes is None:
            ds.hashes, ds.acc = hashes, (acc["acc_all"], acc["acc_new"])
        elif hashes != ds.hashes:
            raise ValueError("outputs differ from an earlier pass on the same inputs")

    # -- cross-run record -------------------------------------------------
    def check_record(self, datasets: list[Dataset], counts: dict | None) -> None:
        """Same seed, same program: outputs and counts must repeat across runs."""
        digest = hashlib.sha256(repr(self.w).encode())
        for f in sorted(SRC.rglob("*.py")):
            digest.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
        path = WORK / "records" / digest.hexdigest()[:16] / f"{self.name}-{self.seed}.json"
        record = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        now = {str(ds.index): {"inputs": ds.inputs, **ds.hashes}
               for ds in datasets if ds.hashes is not None}
        if counts is not None:
            now["counts"] = counts
        for key, value in now.items():
            if key in record and record[key] != value:
                self.failed += 1
                self.errors.append(f"{key}: differs from an earlier run with seed {self.seed}")
            record.setdefault(key, value)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    # -- the two kinds of run ---------------------------------------------
    def measure(self) -> dict:
        datasets = [ds for i in range(self.w.panel) if (ds := self.generate(i))]
        begin = time.perf_counter()
        # one pass over every dataset, then more while another pass still fits
        turn = 0
        while datasets and self.remaining() > 0:
            ds = datasets[turn % len(datasets)]
            if turn >= len(datasets) and (
                    time.perf_counter() - begin + statistics.median(ds.walls) > self.seconds):
                break
            res = self.run_once(ds, None)
            if res is None:
                break
            ds.walls.append(res[0])
            ds.rss.append(res[1])
            turn += 1
        self.check_record(datasets, None)
        done = [ds for ds in datasets if ds.walls]
        for ds in done:
            print(f"dataset {ds.index} seed {ds.seed}: passes {len(ds.walls)} "
                  f"run_s {statistics.median(ds.walls):.3f} acc_all {ds.acc[0]:.4f} "
                  f"acc_new {ds.acc[1]:.4f}")
        if len(done) < self.w.panel:
            return {}
        return {
            "run_s": statistics.mean(statistics.median(ds.walls) for ds in done),
            "setup_s": statistics.median(self.setup_times),
            "peak_rss_mb": statistics.mean(statistics.median(ds.rss) for ds in done),
            "acc_all": statistics.mean(ds.acc[0] for ds in done),
            "acc_new": statistics.mean(ds.acc[1] for ds in done),
        }

    def measure_traced(self) -> dict:
        ds = self.generate(0)
        if ds is None:
            return {}
        plain, traced, alloc = [], [], None
        begin = time.perf_counter()
        # untraced/traced pairs, at least one, while another pair still fits
        while self.remaining() > 0 and (not traced or time.perf_counter() - begin
                                        + plain[-1] + traced[-1]["run_s"] <= self.seconds):
            a = self.run_once(ds, None)
            b = self.run_once(ds, "spans")
            if a is None or b is None:
                break
            plain.append(a[0])
            traced.append(layer_metrics(b[0], b[2]))
        if traced and self.remaining() > 0:
            c = self.run_once(ds, "alloc")
            alloc = c and layer_metrics(c[0], c[2])
        if not traced or alloc is None:
            return {}
        for name in COUNTS:
            if len({m[name] for m in traced + [alloc]}) != 1:
                self.failed += 1
                self.errors.append(f"{name} differs between traced passes")
        self.check_record([ds], {name: traced[0][name] for name in COUNTS})
        metrics = {name: statistics.median(m[name] for m in traced) for name in traced[0]
                   if name in PER_LAYER and name not in COUNTS}
        metrics.update({name: traced[0][name] for name in COUNTS})
        metrics["trainer.peak_alloc_mb"] = alloc["trainer.peak_alloc_mb"]
        metrics["clustering.peak_alloc_mb"] = alloc["clustering.peak_alloc_mb"]
        metrics["trace.overhead_s"] = (statistics.median(m["run_s"] for m in traced)
                                       - statistics.median(plain))
        print(f"traced passes {len(traced)}, untraced passes {len(plain)}, "
              f"traced run_s {statistics.median(m['run_s'] for m in traced):.3f}")
        return metrics


def layer_metrics(wall: float, traces: list[dict]) -> dict:
    """Per-layer numbers of one traced pass (all of its processes)."""
    spans = [s for t in traces for s in t["spans"]]
    cap = traces[0]["lloyd_cap"]

    def of(name):
        return [s for s in spans if s["name"] == name]

    def dur(*names):
        return sum((s["end"] - s["start"] for n in names for s in of(n)), 0.0)

    def peak_mb(name):
        return max((s.get("peak_bytes", 0) for s in of(name)), default=0) / 2**20

    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    steps = len(of("neural_core.adam_step"))
    kmeans = of("clustering.semisup_kmeans")
    iters = sum(s["iterations"] for s in kmeans)
    train_s, kmeans_s, seed_s = dur("trainer.train"), dur("clustering.semisup_kmeans"), \
        dur("clustering.kmeans_pp_init")
    return {
        "run_s": wall,
        "cli.self_s": wall - roots,
        "embed_io.read_s": dur("embed_io.read_embedding_file"),
        "semantic_graph.build_s": dur("semantic_graph.build_knn_graph"),
        "trainer.train_s": train_s,
        "trainer.steps": steps,
        "trainer.step_ms": 1000 * train_s / steps if steps else 0.0,
        "trainer.peak_alloc_mb": peak_mb("trainer.train"),
        "trainer.checkpoint_save_s": dur("trainer.save_checkpoint"),
        "trainer.checkpoint_load_s": dur("trainer.load_checkpoint"),
        "losses.sample_triplets_s": dur("losses.sample_triplets"),
        "losses.loss_total_s": dur("losses.loss_total"),
        "losses.triplets": sum(s["triplets"] for s in of("losses.sample_triplets")),
        "neural_core.gcn_s": dur("neural_core.gcn_forward", "neural_core.gcn_backward"),
        "neural_core.projector_fwd_s": dur("neural_core.projector_forward"),
        "neural_core.projector_bwd_s": dur("neural_core.projector_backward"),
        "neural_core.adam_s": dur("neural_core.adam_step"),
        "clustering.features_s": dur("clustering.similarity_features"),
        "clustering.seed_s": seed_s,
        "clustering.kmeans_s": kmeans_s,
        "clustering.lloyd_iters": iters,
        "clustering.lloyd_ms_per_iter": 1000 * (kmeans_s - seed_s) / iters if iters else 0.0,
        "clustering.kmeans_runs": len(kmeans),
        "clustering.cap_hits": sum(s["iterations"] == cap for s in kmeans),
        "clustering.peak_alloc_mb": peak_mb("clustering.semisup_kmeans"),
        "clustering.scan_s": dur("clustering.scan_inertia"),
        "evaluation.eval_s": dur("evaluation.split_accuracy"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**56:
        parser.error("--seed must lie in [0, 2**56)")
    if not (SRC / "graphgcd" / "cli.py").is_file():
        print(f"perfbench: no graphgcd sources under {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    info = bench.warm_up()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"generator {' '.join(bench.w.gen_flags())} panel {bench.w.panel} env {json.dumps(info)}")
    values = {}
    if info:
        values = bench.measure_traced() if bench.trace else bench.measure()
    units = PER_LAYER if bench.trace else END_TO_END
    for msg in bench.errors:
        print(f"check failed: {msg}")
    if set(values) != set(units):
        bench.failed = max(bench.failed, 1)
        bench.attempted = max(bench.attempted, 1)
        values = {name: values.get(name, 0.0) for name in units}
    result = {
        "correct": bench.failed == 0 and not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
