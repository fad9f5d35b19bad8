"""Subcommand CLI: gen-synthetic | train | cluster | eval | estimate-k | run-all.

Every command echoes its fully resolved configuration to stdout and to
<out-dir>/config.txt. All artifacts are deterministic byte-for-byte given the
same inputs and --seed: no timestamps, no machine identifiers. --threads is
accepted for interface compatibility; computation runs in-process with
fixed-order reductions, so the flag cannot change results.

Exit codes: 0 success, 2 bad input, 3 numeric failure, 4 invariant violation.
"""

from __future__ import annotations

import argparse
import sys
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
    format_config,
    generate_synthetic,
    read_embedding_file,
    write_config,
    write_embedding_file,
)
from .errors import InputError, InvariantError, NumericError
from .evaluation import EvalReport, split_accuracy
from .semantic_graph import build_knn_graph, dump_graph_csv
from .trainer import TrainState, load_checkpoint, save_checkpoint, train, write_loss_trace


def _add_io_flags(p: argparse.ArgumentParser, synthetic: bool = False) -> None:
    p.add_argument("--labeled", help="GVLE file with known-class training samples")
    p.add_argument("--unlabeled", help="GVLE file with samples to cluster")
    p.add_argument("--class-emb", help="GVLE file with one row per known class")
    if synthetic:
        p.add_argument("--synthetic", action="store_true",
                       help="generate inputs instead of reading files")
        _add_synthetic_flags(p)


def _add_synthetic_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--classes", type=int, default=10, help="total classes")
    p.add_argument("--known", type=int, default=5, help="known (labeled) classes")
    p.add_argument("--per-class", type=int, default=100, help="samples per class per split")
    p.add_argument("--dim", type=int, default=32, help="embedding dimension")
    p.add_argument("--separation", type=float, default=6.0,
                   help="cluster tightness; noise sigma is 1/separation")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--knn-k", type=int, default=3)
    p.add_argument("--gcn-layers", type=int, default=2)
    p.add_argument("--margin-alpha", type=float, default=0.3)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--hidden-dim", type=int, default=0,
                   help="0 means: use the input dimension")
    p.add_argument("--losses-as-printed", action="store_true",
                   help="use the published equation signs verbatim instead of the "
                        "description-consistent ones")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", default=".", help="directory for artifacts")
    p.add_argument("--seed", type=int, default=0, help="master seed (uint64)")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for interface compatibility; has no effect")


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        knn_k=args.knn_k,
        gcn_layers=args.gcn_layers,
        margin_alpha=args.margin_alpha,
        learn_rate=args.lr,
        batch_size=args.batch_size,
        epochs=args.epochs,
        seed=args.seed,
        hidden_dim=args.hidden_dim,
        temperature=args.temperature,
    )


def _check_common(args) -> Path:
    # seed may still be None here for commands that default it from a checkpoint
    if args.seed is not None and not 0 <= args.seed < 2**64:
        raise InputError(f"--seed must be a uint64, got {args.seed}")
    if args.threads < 1:
        raise InputError(f"--threads must be >= 1, got {args.threads}")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_k_flags(args) -> None:
    """Reject cluster-count flags that would otherwise be silently ignored."""
    if args.estimate_k and args.k_total is not None:
        raise InputError("pass either --k-total or --estimate-k, not both")
    if not args.estimate_k and (args.k_min is not None or args.k_max is not None):
        raise InputError("--k-min and --k-max need --estimate-k")


def _echo_config(config: RunConfig, out_dir: Path) -> None:
    sys.stdout.write(format_config(config))
    write_config(config, out_dir / "config.txt")


def _read_inputs(args) -> tuple[EmbeddingSet, EmbeddingSet, EmbeddingSet]:
    for flag, value in (("--labeled", args.labeled),
                        ("--unlabeled", args.unlabeled),
                        ("--class-emb", args.class_emb)):
        if value is None:
            raise InputError(f"{flag} is required (or pass --synthetic where supported)")
    labeled = read_embedding_file(args.labeled)
    unlabeled = read_embedding_file(args.unlabeled)
    class_emb = read_embedding_file(args.class_emb)
    if labeled.labels is None:
        raise InputError(f"{args.labeled} has no labels; the labeled file needs them")
    return labeled, unlabeled, class_emb


def _write_synthetic(args, out: Path) -> tuple[EmbeddingSet, EmbeddingSet, EmbeddingSet]:
    labeled, unlabeled, class_emb = generate_synthetic(
        class_count=args.classes,
        known_count=args.known,
        per_class=args.per_class,
        d=args.dim,
        separation=args.separation,
        seed=args.seed,
    )
    for name, emb in (("labeled.gvle", labeled),
                      ("unlabeled.gvle", unlabeled),
                      ("class_emb.gvle", class_emb)):
        path = out / name
        write_embedding_file(emb, path)
        print(f"wrote {path}")
    return labeled, unlabeled, class_emb


def _write_assignments(result: ClusterAssignment, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("sample_index,cluster_id,is_constrained\n")
        for i, (cid, pinned) in enumerate(zip(result.assignment, result.constrained_mask)):
            f.write(f"{i},{int(cid)},{int(pinned)}\n")
    print(f"wrote {path}")


def _read_assignments(path) -> tuple[np.ndarray, np.ndarray]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            header = f.readline().strip()
            if header != "sample_index,cluster_id,is_constrained":
                raise InputError(f"{path}: unrecognized assignments header {header!r}")
            ids, pinned = [], []
            for lineno, line in enumerate(f, start=2):
                parts = line.strip().split(",")
                if len(parts) != 3:
                    raise InputError(f"{path}:{lineno}: expected 3 columns")
                index, cid, flag = (int(v) for v in parts)
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
    return np.asarray(ids, dtype=np.int64), np.asarray(pinned, dtype=bool)


def _format_acc(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def _emit_report(report: EvalReport, out: Path) -> None:
    lines = [
        f"acc_all {_format_acc(report.acc_all)}",
        f"acc_known {_format_acc(report.acc_known)}",
        f"acc_new {_format_acc(report.acc_new)}",
    ]
    print("\n".join(lines))
    with open(out / "report.csv", "w", encoding="utf-8") as f:
        f.write("metric,value\n")
        f.write(f"acc_all,{_format_acc(report.acc_all)}\n")
        f.write(f"acc_known,{_format_acc(report.acc_known)}\n")
        f.write(f"acc_new,{_format_acc(report.acc_new)}\n")
    with open(out / "confusion.csv", "w", encoding="utf-8") as f:
        for row in report.confusion:
            f.write(",".join(str(int(v)) for v in row) + "\n")
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
    if labeled.dim != unlabeled.dim:
        raise InputError(f"labeled dim {labeled.dim} != unlabeled dim {unlabeled.dim}")
    if labeled.labels.max() >= class_emb.n:
        raise InputError("labeled file references a class with no class embedding")
    both = EmbeddingSet(data=np.vstack([labeled.data, unlabeled.data]))
    labels = np.concatenate([
        labeled.labels.astype(np.int64),
        np.full(unlabeled.n, -1, dtype=np.int64),
    ])
    return similarity_features(both, state.params, graph, class_emb), labels


def _k_bounds(args, known: int, n_total: int) -> tuple[int, int]:
    """Checked cluster-count bounds: the elbow-scan range under --estimate-k, else (K, K).

    Needs only the class and sample counts, so run-all checks before it trains.
    """
    if args.estimate_k:
        k_min = args.k_min if args.k_min is not None else max(1, known)
        k_max = args.k_max if args.k_max is not None else min(n_total, k_min + 15)
        if k_min < max(1, known):
            raise InputError(f"--k-min {k_min} is below the {known} known classes")
        if k_min > k_max:
            raise InputError(f"--k-min {k_min} exceeds --k-max {k_max}")
        if k_max > n_total:
            raise InputError(f"--k-max {k_max} exceeds the {n_total} samples")
        return k_min, k_max
    if args.k_total is not None:
        if args.k_total < known:
            raise InputError(f"--k-total {args.k_total} is below the {known} known classes")
        if args.k_total > n_total:
            raise InputError(f"--k-total {args.k_total} exceeds the {n_total} samples")
        return args.k_total, args.k_total
    if getattr(args, "synthetic", False):
        return args.classes, args.classes
    raise InputError("pass --k-total or --estimate-k to choose the cluster count")


def _estimate_k(args, k_bounds: tuple[int, int], features: np.ndarray, labels: np.ndarray,
                out: Path) -> int:
    """Elbow of the inertia scan over k_bounds; writes inertia_scan.csv."""
    scan = scan_inertia(features, labels, *k_bounds, args.seed)
    path = out / "inertia_scan.csv"
    with open(path, "w", encoding="utf-8") as f:
        f.write("k,inertia\n")
        for k, inertia in scan:
            f.write(f"{k},{inertia:.6f}\n")
    print(f"wrote {path}")
    k = elbow_point([k for k, _ in scan], [v for _, v in scan])
    print(f"estimated k {k}")
    return k


def _train_artifacts(labeled, class_emb, config, args, out: Path) -> TrainState:
    state = train(labeled, class_emb, config, as_printed=args.losses_as_printed)
    save_checkpoint(state, out / "checkpoint.gvlp")
    print(f"wrote {out / 'checkpoint.gvlp'}")
    write_loss_trace(state.trace, out / "loss_trace.csv")
    print(f"wrote {out / 'loss_trace.csv'}")
    if args.dump_graph:
        graph = build_knn_graph(class_emb.data, state.config.knn_k)
        dump_graph_csv(graph, out / "graph.csv")
        print(f"wrote {out / 'graph.csv'}")
    return state


def _cluster_artifacts(state: TrainState, labeled, unlabeled, class_emb,
                       k_bounds: tuple[int, int], args, out: Path):
    features, labels = cluster_features(state, labeled, unlabeled, class_emb)
    k = _estimate_k(args, k_bounds, features, labels, out) if args.estimate_k else k_bounds[0]
    seed = np.random.SeedSequence([int(args.seed), 2])
    result = semisup_kmeans(features, labels, k, seed)
    _write_assignments(result, out / "assignments.csv")
    return result


def _load_for_clustering(
    args, out: Path
) -> tuple[TrainState, EmbeddingSet, EmbeddingSet, EmbeddingSet]:
    """Read the inputs and the checkpoint, default --seed to its seed, echo its config."""
    labeled, unlabeled, class_emb = _read_inputs(args)
    state = load_checkpoint(args.checkpoint)
    if args.seed is None:
        args.seed = state.config.seed
    _echo_config(state.config, out)
    return state, labeled, unlabeled, class_emb


def cmd_gen_synthetic(args) -> int:
    out = _check_common(args)
    _echo_config(RunConfig(seed=args.seed), out)
    _write_synthetic(args, out)
    return 0


def cmd_train(args) -> int:
    out = _check_common(args)
    config = _config_from_args(args)
    if args.labeled is None or args.class_emb is None:
        raise InputError("train needs --labeled and --class-emb")
    labeled = read_embedding_file(args.labeled)
    class_emb = read_embedding_file(args.class_emb)
    if labeled.labels is None:
        raise InputError(f"{args.labeled} has no labels; training requires them")
    _echo_config(config.resolved(labeled.dim), out)
    _train_artifacts(labeled, class_emb, config, args, out)
    return 0


def cmd_cluster(args) -> int:
    out = _check_common(args)
    _check_k_flags(args)
    state, labeled, unlabeled, class_emb = _load_for_clustering(args, out)
    k_bounds = _k_bounds(args, class_emb.n, labeled.n + unlabeled.n)
    _cluster_artifacts(state, labeled, unlabeled, class_emb, k_bounds, args, out)
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
    cluster_ids, pinned = _read_assignments(args.assignments)
    free_ids = cluster_ids[~pinned]
    if free_ids.shape[0] != unlabeled.n:
        raise InputError(
            f"assignments hold {free_ids.shape[0]} unconstrained rows but "
            f"{args.unlabeled} has {unlabeled.n} samples"
        )
    config = RunConfig(seed=args.seed)
    _echo_config(config, out)
    report = split_accuracy(free_ids, unlabeled.labels, args.known)
    _emit_report(report, out)
    return 0


def cmd_estimate_k(args) -> int:
    out = _check_common(args)
    state, labeled, unlabeled, class_emb = _load_for_clustering(args, out)
    k_bounds = _k_bounds(args, class_emb.n, labeled.n + unlabeled.n)
    features, labels = cluster_features(state, labeled, unlabeled, class_emb)
    _estimate_k(args, k_bounds, features, labels, out)
    return 0


def cmd_run_all(args) -> int:
    out = _check_common(args)
    _check_k_flags(args)
    config = _config_from_args(args)
    if args.synthetic:
        labeled, unlabeled, class_emb = _write_synthetic(args, out)
    else:
        labeled, unlabeled, class_emb = _read_inputs(args)
    k_bounds = _k_bounds(args, class_emb.n, labeled.n + unlabeled.n)
    _echo_config(config.resolved(labeled.dim), out)

    state = _train_artifacts(labeled, class_emb, config, args, out)
    result = _cluster_artifacts(state, labeled, unlabeled, class_emb, k_bounds, args, out)

    if unlabeled.labels is None:
        print("eval skipped: unlabeled file carries no ground-truth labels")
        return 0
    free_ids = result.assignment[~result.constrained_mask]
    report = split_accuracy(free_ids, unlabeled.labels, class_emb.n)
    _emit_report(report, out)
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
    _add_io_flags(p)
    _add_config_flags(p)
    p.add_argument("--dump-graph", action="store_true", help="also write graph.csv")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cluster", help="cluster labeled+unlabeled with a checkpoint")
    _add_common(p)
    _add_io_flags(p)
    p.add_argument("--checkpoint", required=True, help="GVLP checkpoint from train")
    p.add_argument("--k-total", type=int, help="total cluster count (known + novel)")
    p.add_argument("--estimate-k", action="store_true", help="pick K by elbow scan")
    p.add_argument("--k-min", type=int, help="elbow scan lower bound")
    p.add_argument("--k-max", type=int, help="elbow scan upper bound")
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
    p.add_argument("--k-min", type=int, help="scan lower bound (default: known classes)")
    p.add_argument("--k-max", type=int, help="scan upper bound (default: k-min + 15)")
    p.set_defaults(func=cmd_estimate_k, seed=None, estimate_k=True)

    p = sub.add_parser("run-all", help="train, cluster, and score in one go")
    _add_common(p)
    _add_io_flags(p, synthetic=True)
    _add_config_flags(p)
    p.add_argument("--dump-graph", action="store_true", help="also write graph.csv")
    p.add_argument("--k-total", type=int, help="total cluster count (known + novel)")
    p.add_argument("--estimate-k", action="store_true", help="pick K by elbow scan")
    p.add_argument("--k-min", type=int, help="elbow scan lower bound")
    p.add_argument("--k-max", type=int, help="elbow scan upper bound")
    p.set_defaults(func=cmd_run_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as e:
        print(f"graphgcd: InputError: file not found: {e.filename or e}", file=sys.stderr)
        return 2
    except InputError as e:
        print(f"graphgcd: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"graphgcd: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except InvariantError as e:
        print(f"graphgcd: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
