"""Subcommand CLI: gen-synthetic | train | cluster | eval | estimate-k | run-all.

Each subcommand takes only the flags it reads (eval's --seed aside). train,
cluster, estimate-k and run-all echo their resolved RunConfig to stdout and to
<out-dir>/config.txt. Artifacts are byte-for-byte deterministic given the same
inputs and --seed: no timestamps, no machine identifiers.

Importing this module sets OPENBLAS_NUM_THREADS to 1 unless it is already set.
Imported before numpy, as the graphgcd command does, that runs OpenBLAS on one
thread in the CLI and in each scan worker.

Exit codes: 0 success, 2 bad input (including a path that cannot be read or
written), 3 numeric failure, 4 invariant violation.
"""

from __future__ import annotations

import os

# OpenBLAS reads this once, when numpy loads it, and forked scan workers inherit
# the pool it sized, so it must be set before the first numpy import below.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .clustering import (
    ClusterAssignment,
    elbow_point,
    scan_inertia,
    semisup_kmeans,
    similarity_features,
)
from .embed_io import (
    EmbeddingSet,
    RunConfig,
    check_run_inputs,
    format_config,
    generate_synthetic,
    read_embedding_file,
    write_csv,
    write_embedding_file,
)
from .errors import InputError, InvariantError, NumericError
from .evaluation import EvalReport, split_accuracy
from .semantic_graph import build_knn_graph, dump_graph_csv
from .trainer import TrainState, load_checkpoint, save_checkpoint, train, write_loss_trace

_EXIT_CODES = {InputError: 2, NumericError: 3, InvariantError: 4}
_ASSIGNMENTS_HEADER = ("sample_index", "cluster_id", "is_constrained")


def _add_io_flags(p: argparse.ArgumentParser, unlabeled: bool = True) -> None:
    p.add_argument("--labeled", help="GVLE file with known-class training samples")
    if unlabeled:
        p.add_argument("--unlabeled", help="GVLE file with samples to cluster")
    p.add_argument("--class-emb", help="GVLE file with one row per known class")


def _add_synthetic_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--classes", type=int, default=10, help="total classes")
    p.add_argument("--known", type=int, default=5, help="known (labeled) classes")
    p.add_argument("--per-class", type=int, default=100, help="samples per class per split")
    p.add_argument("--dim", type=int, default=32, help="embedding dimension")
    p.add_argument("--separation", type=float, default=6.0,
                   help="cluster tightness; noise sigma is 1/separation")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """One flag per RunConfig field (seed comes from _add_common; a bool is a switch)."""
    helps = {"hidden_dim": "0 means: use the input dimension",
             "losses_as_printed": "use the published equation signs verbatim instead of "
                                  "the description-consistent ones"}
    for f in fields(RunConfig):
        if f.name == "seed":
            continue
        flag = "--lr" if f.name == "learn_rate" else "--" + f.name.replace("_", "-")
        kind = {"action": "store_true"} if type(f.default) is bool else {"type": type(f.default)}
        p.add_argument(flag, dest=f.name, default=f.default, help=helps.get(f.name), **kind)
    p.add_argument("--dump-graph", action="store_true", help="also write graph.csv")


def _add_k_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k-total", type=int, help="total cluster count (known + novel)")
    p.add_argument("--estimate-k", action="store_true", help="pick K by elbow scan")
    _add_k_range_flags(p)


def _add_k_range_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k-min", type=int, help="elbow scan lower bound (default: known classes)")
    p.add_argument("--k-max", type=int, help="elbow scan upper bound (default: "
                   "min(k-min + 15, labeled classes + unlabeled rows))")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", default=".", help="directory for artifacts")
    p.add_argument("--seed", type=int, default=0, help="master seed (uint64)")


def _config_from_args(args) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})


def _check_common(args) -> Path:
    # seed may still be None here for commands that default it from a checkpoint
    if args.seed is not None and not 0 <= args.seed < 2**64:
        raise InputError(f"--seed must be a uint64, got {args.seed}")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(config: RunConfig, out_dir: Path) -> None:
    text = format_config(config)
    sys.stdout.write(text)
    (out_dir / "config.txt").write_text(text, encoding="utf-8")


def _read_inputs(args, names=("labeled", "unlabeled", "class_emb")) -> list[EmbeddingSet]:
    """Read the named input files in order."""
    for name in names:
        if getattr(args, name) is None:
            hint = " (or pass --synthetic)" if hasattr(args, "synthetic") else ""
            raise InputError(f"--{name.replace('_', '-')} is required{hint}")
    return [read_embedding_file(getattr(args, name)) for name in names]


def _generate_synthetic(args) -> tuple[EmbeddingSet, EmbeddingSet, EmbeddingSet]:
    return generate_synthetic(args.classes, args.known, args.per_class, args.dim,
                              args.separation, args.seed)


def _write_synthetic(sets: tuple[EmbeddingSet, EmbeddingSet, EmbeddingSet], out: Path) -> None:
    for name, emb in zip(("labeled.gvle", "unlabeled.gvle", "class_emb.gvle"), sets):
        write_embedding_file(emb, out / name)
        print(f"wrote {out / name}")


def _write_assignments(result: ClusterAssignment, path: Path) -> None:
    rows = zip(range(len(result.assignment)), result.assignment.tolist(),
               result.constrained_mask.astype(int).tolist())
    write_csv(path, _ASSIGNMENTS_HEADER, rows)
    print(f"wrote {path}")


def _decimal(field: str) -> int:
    """int() of ASCII digits after minus signs only; int() alone also reads ' 1' and '1_0'."""
    if not (field.isascii() and field.lstrip("-").isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {field!r}")
    return int(field)


def _read_assignments(path) -> tuple[np.ndarray, np.ndarray]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            header = f.readline().strip()
            if header != ",".join(_ASSIGNMENTS_HEADER):
                raise InputError(f"{path}: unrecognized assignments header {header!r}")
            ids, pinned = [], []
            for lineno, line in enumerate(f, start=2):
                parts = line.strip().split(",")
                if len(parts) != 3:
                    raise InputError(f"{path}:{lineno}: expected 3 columns")
                index, cid, flag = map(_decimal, parts)
                if index != lineno - 2:
                    raise InputError(f"{path}:{lineno}: sample_index {index} is not the row position")
                if flag not in (0, 1):
                    raise InputError(f"{path}:{lineno}: is_constrained must be 0 or 1, got {flag}")
                ids.append(cid)
                pinned.append(flag)
    except FileNotFoundError:
        raise InputError(f"assignments file not found: {path}") from None
    except ValueError as e:
        raise InputError(f"{path}: {e}") from None
    for row, cid in enumerate(ids):  # K never exceeds the rows, so neither can a cluster id
        if not 0 <= cid < len(ids):
            raise InputError(f"{path}:{row + 2}: cluster_id {cid} is outside [0, {len(ids)})")
    return np.asarray(ids, dtype=np.int64), np.asarray(pinned, dtype=bool)


def _check_truth(unlabeled: EmbeddingSet, path, known: int) -> None:
    """Every row has a class id below rows + known classes: no contiguous labelling
    reaches that bound, and scoring builds a table as wide as the largest id."""
    if unlabeled.labels is None:
        return
    if missing := int((unlabeled.labels < 0).sum()):
        raise InputError(f"{path} has {missing} rows labeled -1: no class id to score against")
    if (top := int(unlabeled.labels.max())) >= unlabeled.n + known:
        raise InputError(f"{path} has class id {top}, but {unlabeled.n} rows and {known} "
                         f"known classes hold ids below {unlabeled.n + known}")


def _emit_report(report: EvalReport, out: Path) -> None:
    values = {m: getattr(report, m) for m in ("acc_all", "acc_known", "acc_new")}
    rows = [(m, "n/a" if v is None else f"{v:.4f}") for m, v in values.items()]
    print("\n".join(f"{metric} {value}" for metric, value in rows))
    write_csv(out / "report.csv", ("metric", "value"), rows)
    write_csv(out / "confusion.csv", (), report.confusion.tolist())
    print(f"wrote {out / 'report.csv'}")
    print(f"wrote {out / 'confusion.csv'}")


def cluster_features(
    state: TrainState, labeled: EmbeddingSet, unlabeled: EmbeddingSet, class_emb: EmbeddingSet
) -> tuple[np.ndarray, np.ndarray]:
    """Similarity features and k-means labels for labeled rows, then unlabeled rows.

    Labeled rows keep their class id and unlabeled rows get -1 (free), so row
    i of both results is row i of assignments.csv.
    """
    graph = build_knn_graph(class_emb.data, state.config.knn_k)
    # each set on its own: no n x d copy of both, only the n x C results are joined
    features = np.concatenate([similarity_features(s.data, state.params, graph, class_emb.data)
                               for s in (labeled, unlabeled)])
    labels = np.concatenate([labeled.labels, np.full(unlabeled.n, -1)]).astype(np.int64)
    return features, labels


def elbow_k(features: np.ndarray, labels: np.ndarray, seed: int, k_min: int, k_max: int,
            workers: int = 1) -> tuple[int, list[tuple[int, float]]]:
    """The elbow of the inertia scan over [k_min, k_max], and the scan (scan_inertia: each K
    has its own seed, so neither the range nor the `workers` count changes its inertia)."""
    scan = scan_inertia(features, labels, k_min, k_max, seed, workers=workers)
    return elbow_point([k for k, _ in scan], [v for _, v in scan]), scan


def assign_clusters(features: np.ndarray, labels: np.ndarray, k: int, seed: int) -> ClusterAssignment:
    """The final k-means run, from the seed stream [seed, 2]: assignments.csv's rows."""
    return semisup_kmeans(features, labels, k, np.random.SeedSequence([seed, 2]))


def _k_bounds(args, known: int, labeled, unlabeled) -> tuple[int, int]:
    """Checked cluster-count bounds: the elbow-scan range under --estimate-k, else (K, K).

    --k-total sets both ends; under --estimate-k, --k-min/--k-max or their defaults do.
    K is at most the labeled classes plus the unlabeled rows (one free cluster each).
    """
    if args.estimate_k and args.k_total is not None:
        raise InputError("pass either --k-total or --estimate-k, not both")
    if not args.estimate_k and (args.k_min is not None or args.k_max is not None):
        raise InputError("--k-min and --k-max need --estimate-k")
    reserved = int(labeled.labels.max()) + 1
    cap = reserved + unlabeled.n
    too_many = f"{cap}: {reserved} labeled classes plus {unlabeled.n} unlabeled rows"
    if args.estimate_k:
        k_min = args.k_min if args.k_min is not None else known
        k_max = args.k_max if args.k_max is not None else min(cap, k_min + 15)
    elif args.k_total is not None:
        k_min = k_max = args.k_total
    elif getattr(args, "synthetic", False):
        return args.classes, args.classes
    else:
        raise InputError("pass --k-total or --estimate-k to choose the cluster count")
    low, high = ("--k-min", "--k-max") if args.estimate_k else ("--k-total", "--k-total")
    if k_min < known:
        raise InputError(f"{low} {k_min} is below the {known} known classes")
    if k_min > k_max:  # only a scan range; without --k-max, only the cap can fall below --k-min
        bound = too_many if args.k_max is None else f"--k-max {k_max}"
        raise InputError(f"--k-min {k_min} exceeds {bound}")
    if k_max > cap:
        raise InputError(f"{high} {k_max} exceeds {too_many}")
    return k_min, k_max


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _train_artifacts(labeled, class_emb, config, args, out: Path) -> TrainState:
    state = train(labeled, class_emb, config)
    save_checkpoint(state, out / "checkpoint.gvlp")
    print(f"wrote {out / 'checkpoint.gvlp'}")
    write_loss_trace(state.trace, out / "loss_trace.csv")
    print(f"wrote {out / 'loss_trace.csv'}")
    if args.dump_graph:
        dump_graph_csv(build_knn_graph(class_emb.data, state.config.knn_k), out / "graph.csv")
        print(f"wrote {out / 'graph.csv'}")
    return state


def _cluster_artifacts(features: np.ndarray, labels: np.ndarray, seed: int,
                       k_bounds: tuple[int, int], args, out: Path) -> ClusterAssignment | None:
    """K and inertia_scan.csv from a scan on every usable CPU under --estimate-k, else the
    one bound; then assignments.csv, except under estimate-k, which stops at K."""
    k = k_bounds[0]
    if args.estimate_k:
        k, scan = elbow_k(features, labels, seed, *k_bounds, workers=_usable_cpus())
        write_csv(out / "inertia_scan.csv", ("k", "inertia"), ((i, f"{v:.6f}") for i, v in scan))
        print(f"wrote {out / 'inertia_scan.csv'}\nestimated k {k}")
    if args.command == "estimate-k":
        return None
    result = assign_clusters(features, labels, k, seed)
    _write_assignments(result, out / "assignments.csv")
    return result


def _load_for_clustering(args, out: Path) -> tuple[np.ndarray, np.ndarray, int, tuple[int, int]]:
    """Read and check the inputs, the checkpoint and the cluster-count bounds, echo
    the checkpoint's config with its seed replaced by --seed when given, and return
    the features, labels, seed and bounds.

    Only those outlive this call: the input sets and the model are freed before
    the elbow scan forks its workers and before the final k-means run.
    """
    labeled, unlabeled, class_emb = _read_inputs(args)
    state = load_checkpoint(args.checkpoint)
    if args.seed is not None:
        state.config = replace(state.config, seed=args.seed)
    check_run_inputs(state.config, labeled, class_emb, unlabeled)
    trained_known, trained_dim = state.params["prompt.t"].shape
    if trained_dim != labeled.dim:
        raise InputError(f"{args.checkpoint} was trained on dim {trained_dim} inputs, "
                         f"but the input files have dim {labeled.dim}")
    if trained_known != class_emb.n:
        raise InputError(f"{args.checkpoint} was trained on {trained_known} known classes, "
                         f"but {args.class_emb} holds {class_emb.n}")
    k_bounds = _k_bounds(args, class_emb.n, labeled, unlabeled)
    _echo_config(state.config, out)
    features, labels = cluster_features(state, labeled, unlabeled, class_emb)
    return features, labels, state.config.seed, k_bounds


def _train_for_clustering(args, out: Path) -> tuple:
    """run-all up to the features: read or generate and check the inputs, train, and
    return what _load_for_clustering does plus the unlabeled truth labels and the
    known-class count, which scoring reads. Nothing else outlives this call."""
    if args.synthetic and {args.labeled, args.unlabeled, args.class_emb} != {None}:
        raise InputError("--synthetic takes no --labeled, --unlabeled or --class-emb")
    sets = _generate_synthetic(args) if args.synthetic else _read_inputs(args)
    labeled, unlabeled, class_emb = sets
    config = check_run_inputs(_config_from_args(args), labeled, class_emb, unlabeled)
    _check_truth(unlabeled, args.unlabeled, class_emb.n)
    k_bounds = _k_bounds(args, class_emb.n, labeled, unlabeled)
    if args.synthetic:
        _write_synthetic(sets, out)
    _echo_config(config, out)

    state = _train_artifacts(labeled, class_emb, config, args, out)
    features, labels = cluster_features(state, labeled, unlabeled, class_emb)
    return features, labels, state.config.seed, k_bounds, unlabeled.labels, class_emb.n


def cmd_gen_synthetic(args) -> int:
    out = _check_common(args)
    _write_synthetic(_generate_synthetic(args), out)
    return 0


def cmd_train(args) -> int:
    out = _check_common(args)
    labeled, class_emb = _read_inputs(args, ("labeled", "class_emb"))
    config = check_run_inputs(_config_from_args(args), labeled, class_emb)
    _echo_config(config, out)
    _train_artifacts(labeled, class_emb, config, args, out)
    return 0


def cmd_cluster(args) -> int:
    """cluster and estimate-k."""
    out = _check_common(args)
    _cluster_artifacts(*_load_for_clustering(args, out), args, out)
    return 0


def cmd_eval(args) -> int:
    out = _check_common(args)
    unlabeled = read_embedding_file(args.unlabeled) if args.unlabeled else None
    if unlabeled is None:
        raise InputError("eval needs --unlabeled with ground-truth labels")
    if unlabeled.labels is None:
        raise InputError(f"{args.unlabeled} has no labels to score against")
    if args.known is None or args.known < 0:
        raise InputError("eval needs --known (count of known classes)")
    _check_truth(unlabeled, args.unlabeled, args.known)
    cluster_ids, pinned = _read_assignments(args.assignments)
    if args.known > cluster_ids.shape[0]:  # scoring's table is as wide as --known
        raise InputError(f"--known {args.known} exceeds the {cluster_ids.shape[0]} rows "
                         f"of {args.assignments}")
    free_ids = cluster_ids[~pinned]
    if free_ids.shape[0] != unlabeled.n:
        raise InputError(f"assignments hold {free_ids.shape[0]} unconstrained rows but "
                         f"{args.unlabeled} has {unlabeled.n} samples")
    _emit_report(split_accuracy(free_ids, unlabeled.labels, args.known), out)
    return 0


def cmd_run_all(args) -> int:
    out = _check_common(args)
    *clustering_inputs, truth, known = _train_for_clustering(args, out)
    result = _cluster_artifacts(*clustering_inputs, args, out)
    if truth is None:
        print("eval skipped: unlabeled file carries no ground-truth labels")
        return 0
    free_ids = result.assignment[~result.constrained_mask]
    _emit_report(split_accuracy(free_ids, truth, known), out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphgcd",
        description="Generalized category discovery over pre-extracted embeddings: "
                    "graph-regularized training, constrained clustering, Hungarian-matched scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="write synthetic GVLE inputs")
    _add_common(p)
    _add_synthetic_flags(p)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("train", help="train on a labeled GVLE file")
    _add_common(p)
    _add_io_flags(p, unlabeled=False)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cluster", help="cluster labeled+unlabeled with a checkpoint")
    _add_common(p)
    _add_io_flags(p)
    p.add_argument("--checkpoint", required=True, help="GVLP checkpoint from train")
    _add_k_flags(p)
    p.set_defaults(func=cmd_cluster, seed=None)

    p = sub.add_parser("eval", help="score an assignments CSV against ground truth")
    _add_common(p)
    p.add_argument("--assignments", required=True, help="CSV from the cluster step")
    p.add_argument("--unlabeled", help="GVLE file with ground-truth labels")
    p.add_argument("--known", type=int, help="number of known classes")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("estimate-k", help="inertia elbow scan for the cluster count")
    _add_common(p)
    _add_io_flags(p)
    p.add_argument("--checkpoint", required=True, help="GVLP checkpoint from train")
    _add_k_range_flags(p)
    p.set_defaults(func=cmd_cluster, seed=None, estimate_k=True, k_total=None)

    p = sub.add_parser("run-all", help="train, cluster, and score in one go")
    _add_common(p)
    _add_io_flags(p)
    p.add_argument("--synthetic", action="store_true",
                   help="generate inputs instead of reading files")
    _add_synthetic_flags(p)
    _add_config_flags(p)
    _add_k_flags(p)
    p.set_defaults(func=cmd_run_all)

    return parser


def main(argv=None) -> int:
    # numpy.random imports secrets, hence hmac and hashlib, and these load
    # OpenSSL's libcrypto through _hashlib: about 3.6 MB of resident memory for
    # hashes no command computes. With the entry set to None, hmac and hashlib
    # fall back on Python's built-in hashes. It is set here, not at import, so
    # that importing this module changes nothing for a library caller.
    sys.modules.setdefault("_hashlib", None)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as e:
        if e.filename is None:  # not a path the user gave (fork, pipes, ...)
            raise
        what = "file not found" if isinstance(e, FileNotFoundError) else e.strerror
        print(f"graphgcd: InputError: {what}: {e.filename}", file=sys.stderr)
        return 2
    except tuple(_EXIT_CODES) as e:
        print(f"graphgcd: {type(e).__name__}: {e}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(e, cls))


if __name__ == "__main__":
    sys.exit(main())
