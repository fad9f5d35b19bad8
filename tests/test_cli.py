"""End-to-end tests of the subcommand CLI, run in-process via cli.main()."""

import argparse
import csv
import dataclasses
import importlib
import importlib.util
import os
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from graphgcd import cli, clustering
from graphgcd.embed_io import (
    EmbeddingSet,
    RunConfig,
    format_config,
    parse_config,
    read_embedding_file,
    write_embedding_file,
)
from graphgcd.errors import InvariantError
from graphgcd.evaluation import split_accuracy
from graphgcd.trainer import load_checkpoint

from test_trainer import rewrite_config, rewrite_tensor

SMALL = ["--classes", "4", "--known", "2", "--per-class", "8", "--dim", "8",
         "--separation", "6.0"]
TRAIN_OPTS = ["--knn-k", "1", "--epochs", "2", "--batch-size", "32"]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One synthetic dataset plus a trained checkpoint, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert cli.main(["gen-synthetic", "--out-dir", str(data), "--seed", "11", *SMALL]) == 0
    run = root / "trained"
    assert cli.main([
        "train", "--labeled", str(data / "labeled.gvle"),
        "--class-emb", str(data / "class_emb.gvle"),
        "--out-dir", str(run), "--seed", "11", *TRAIN_OPTS,
    ]) == 0
    return {"data": data, "run": run, "checkpoint": run / "checkpoint.gvlp"}


def read_assignment_rows(path):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    ids = np.array([int(r["cluster_id"]) for r in rows])
    pinned = np.array([int(r["is_constrained"]) for r in rows], dtype=bool)
    return ids, pinned


# ---------------------------------------------------------------- gen-synthetic

def test_gen_synthetic_writes_readable_files(tmp_path, capsys):
    rc = cli.main(["gen-synthetic", "--out-dir", str(tmp_path), "--seed", "3", *SMALL])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("wrote ") == 3

    labeled = read_embedding_file(tmp_path / "labeled.gvle")
    unlabeled = read_embedding_file(tmp_path / "unlabeled.gvle")
    class_emb = read_embedding_file(tmp_path / "class_emb.gvle")
    assert labeled.n == 2 * 8 and labeled.labels is not None
    assert set(labeled.labels) == {0, 1}
    assert unlabeled.n == 4 * 8 and unlabeled.labels is not None
    assert set(unlabeled.labels) == {0, 1, 2, 3}
    assert class_emb.n == 2
    np.testing.assert_array_equal(class_emb.labels, [0, 1])
    # it reads no RunConfig, so it echoes none
    assert not (tmp_path / "config.txt").exists()
    assert "knn_k=" not in out and "seed=" not in out


def test_gen_synthetic_is_seed_deterministic(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    cli.main(["gen-synthetic", "--out-dir", str(a), "--seed", "5", *SMALL])
    cli.main(["gen-synthetic", "--out-dir", str(b), "--seed", "5", *SMALL])
    cli.main(["gen-synthetic", "--out-dir", str(c), "--seed", "6", *SMALL])
    for name in ("labeled.gvle", "unlabeled.gvle", "class_emb.gvle"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "labeled.gvle").read_bytes() != (c / "labeled.gvle").read_bytes()


# ---------------------------------------------------------------- train

def test_train_writes_artifacts(ws):
    assert ws["checkpoint"].exists()
    trace = (ws["run"] / "loss_trace.csv").read_text().splitlines()
    assert trace[0] == "epoch,l_cma,l_sdp,l_cs,l_tot"
    assert len(trace) == 1 + 2  # header + one row per epoch

    config = parse_config((ws["run"] / "config.txt").read_text())
    assert config.knn_k == 1
    assert config.epochs == 2
    assert config.seed == 11
    assert config.hidden_dim == 8  # resolved from the input dimension
    assert config.gcn_layers == 2  # default echoed

    state = load_checkpoint(ws["checkpoint"])
    assert state.epoch == 2
    assert state.config == config


def test_train_echoes_config_to_stdout(ws, tmp_path, capsys):
    rc = cli.main([
        "train", "--labeled", str(ws["data"] / "labeled.gvle"),
        "--class-emb", str(ws["data"] / "class_emb.gvle"),
        "--out-dir", str(tmp_path), "--seed", "11", "--knn-k", "1",
        "--epochs", "0", "--batch-size", "32",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "knn_k=1" in out
    assert "epochs=0" in out
    assert "wrote" in out


def test_train_dump_graph_flag(ws, tmp_path):
    rc = cli.main([
        "train", "--labeled", str(ws["data"] / "labeled.gvle"),
        "--class-emb", str(ws["data"] / "class_emb.gvle"),
        "--out-dir", str(tmp_path), "--seed", "0", "--knn-k", "1",
        "--epochs", "0", "--dump-graph",
    ])
    assert rc == 0
    assert (tmp_path / "graph.csv").exists()


def train_into(ws, out, *extra):
    assert cli.main([
        "train", "--labeled", str(ws["data"] / "labeled.gvle"),
        "--class-emb", str(ws["data"] / "class_emb.gvle"),
        "--out-dir", str(out), "--seed", "11", *TRAIN_OPTS, *extra,
    ]) == 0
    return out / "checkpoint.gvlp"


def test_train_losses_as_printed_changes_losses_and_is_recorded(ws, tmp_path):
    outs = {}
    for name, extra in (("plain", []), ("printed", ["--losses-as-printed"])):
        outs[name] = tmp_path / name
        train_into(ws, outs[name], *extra)
    trace = {name: (out / "loss_trace.csv").read_bytes() for name, out in outs.items()}
    assert trace["plain"] != trace["printed"]
    # config.txt and the checkpoint's config both record the switch, as the last line
    for name, value in (("plain", False), ("printed", True)):
        text = (outs[name] / "config.txt").read_text()
        assert text.endswith(f"\nlosses_as_printed={value}\n")
        config = parse_config(text)
        assert config.losses_as_printed is value
        assert load_checkpoint(outs[name] / "checkpoint.gvlp").config == config
    configs = [(out / "config.txt").read_text() for out in outs.values()]
    assert configs[0].replace("=False\n", "=True\n") == configs[1]


def test_cluster_echoes_an_as_printed_checkpoint(ws, tmp_path, capsys):
    checkpoint = train_into(ws, tmp_path / "printed", "--losses-as-printed")
    args = cluster_args(ws, tmp_path / "c", "--k-total", "4")
    args[args.index("--checkpoint") + 1] = str(checkpoint)
    capsys.readouterr()
    assert cli.main(args) == 0
    assert "\nlosses_as_printed=True\n" in capsys.readouterr().out
    assert ((tmp_path / "c" / "config.txt").read_bytes()
            == (tmp_path / "printed" / "config.txt").read_bytes())


def test_checkpoint_without_the_losses_line_clusters_as_before(ws, tmp_path):
    # checkpoints written before losses_as_printed was a RunConfig field lack its line
    old = tmp_path / "old.gvlp"
    old.write_bytes(rewrite_config(ws["checkpoint"].read_bytes(), "losses_as_printed=False\n", ""))
    assert load_checkpoint(old).config == load_checkpoint(ws["checkpoint"]).config
    assert load_checkpoint(old).config.losses_as_printed is False
    runs = {}
    for name, checkpoint in (("old", old), ("new", ws["checkpoint"])):
        args = cluster_args(ws, tmp_path / name, "--k-total", "4")
        args[args.index("--checkpoint") + 1] = str(checkpoint)
        assert cli.main(args) == 0
        runs[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert runs["old"] == runs["new"]
    assert runs["old"]["config.txt"].endswith(b"\nlosses_as_printed=False\n")


def config_flag(name):
    return "--lr" if name == "learn_rate" else "--" + name.replace("_", "-")


@pytest.mark.parametrize("base", [["train"], ["run-all", "--synthetic"]], ids=["train", "run-all"])
def test_config_flags_mirror_run_config_fields(base):
    # each RunConfig field but seed has one flag with the field's default, and
    # a non-default value on that flag changes exactly that field; a bool
    # field's flag is a switch that takes no value
    parser = cli.build_parser()
    assert cli._config_from_args(parser.parse_args(base)) == RunConfig(seed=0)
    for f in dataclasses.fields(RunConfig):
        if f.name == "seed":
            continue
        if type(f.default) is bool:
            value, argv = not f.default, [config_flag(f.name)]
        else:
            value = type(f.default)(f.default + 1)
            argv = [config_flag(f.name), str(value)]
        args = parser.parse_args([*base, *argv])
        expected = dataclasses.replace(RunConfig(seed=0), **{f.name: value})
        assert cli._config_from_args(args) == expected, f.name


@pytest.mark.parametrize("flag", ["--lr", "--temperature"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_hyperparameters_rejected_before_training(tmp_path, capsys, flag, value):
    rc = cli.main([
        "run-all", "--synthetic", *SMALL, *TRAIN_OPTS, flag, value,
        "--out-dir", str(tmp_path),
    ])
    assert rc == 2
    assert "InputError" in capsys.readouterr().err
    assert not (tmp_path / "checkpoint.gvlp").exists()


# ---------------------------------------------------------------- cluster

def cluster_args(ws, out_dir, *extra):
    return [
        "cluster",
        "--labeled", str(ws["data"] / "labeled.gvle"),
        "--unlabeled", str(ws["data"] / "unlabeled.gvle"),
        "--class-emb", str(ws["data"] / "class_emb.gvle"),
        "--checkpoint", str(ws["checkpoint"]),
        "--out-dir", str(out_dir),
        *extra,
    ]


def test_cluster_assignment_structure(ws, tmp_path):
    rc = cli.main(cluster_args(ws, tmp_path, "--k-total", "4"))
    assert rc == 0
    ids, pinned = read_assignment_rows(tmp_path / "assignments.csv")
    labeled = read_embedding_file(ws["data"] / "labeled.gvle")
    unlabeled = read_embedding_file(ws["data"] / "unlabeled.gvle")
    assert ids.shape[0] == labeled.n + unlabeled.n
    # labeled rows come first, stay pinned to their class id
    assert pinned[: labeled.n].all() and not pinned[labeled.n :].any()
    np.testing.assert_array_equal(ids[: labeled.n], labeled.labels)
    assert ids.min() >= 0 and ids.max() < 4


def test_cluster_seed_defaults_to_checkpoint_seed(ws, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(cluster_args(ws, a, "--k-total", "4")) == 0
    assert cli.main(cluster_args(ws, b, "--k-total", "4", "--seed", "11")) == 0
    assert (a / "assignments.csv").read_bytes() == (b / "assignments.csv").read_bytes()


def test_cluster_threads_flag_cannot_change_results(ws, tmp_path, monkeypatch):
    # the default scan range, 2..17, has more K values than 8 workers
    outputs = {}
    for cpus in (1, 8):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        out = tmp_path / str(cpus)
        assert cli.main(cluster_args(ws, out, "--estimate-k")) == 0
        outputs[cpus] = [(out / name).read_bytes()
                         for name in ("inertia_scan.csv", "assignments.csv")]
    assert outputs[8] == outputs[1]


def _scan_outputs(ws, where, monkeypatch, capsys, command, threads):
    """Run an elbow-scan command into `where`/out on `threads` usable CPUs; return
    its stdout and artifacts.

    The out-dir is given relative to `where`, so stdout names the same paths
    for every run.
    """
    where.mkdir()
    monkeypatch.chdir(where)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: int(threads))
    capsys.readouterr()
    args = cluster_args(ws, "out", "--k-min", "2", "--k-max", "7")
    args[0] = command
    if command == "cluster":
        args.append("--estimate-k")
    assert cli.main(args) == 0
    files = sorted(p.name for p in (where / "out").iterdir())
    return capsys.readouterr().out, {name: (where / "out" / name).read_bytes() for name in files}


@pytest.mark.parametrize("command", ["estimate-k", "cluster"])
def test_scan_threads_cannot_change_results(ws, tmp_path, monkeypatch, capsys, command):
    runs = {t: _scan_outputs(ws, tmp_path / t, monkeypatch, capsys, command, t)
            for t in ("1", "2", "8")}
    files = runs["1"][1]
    assert "inertia_scan.csv" in files
    assert ("assignments.csv" in files) == (command == "cluster")
    assert runs["2"] == runs["1"] and runs["8"] == runs["1"]


def test_scan_workers_capped_by_usable_cpus(ws, tmp_path, monkeypatch):
    # the scan is asked for one worker per usable CPU (scan_inertia caps by the
    # K count); the recording scan runs serially, so no process is started here
    if hasattr(os, "sched_getaffinity"):
        assert cli._usable_cpus() == len(os.sched_getaffinity(0))
    real, asked = clustering.scan_inertia, []

    def recording(features, labels, k_min, k_max, seed, workers):
        asked.append(workers)
        return real(features, labels, k_min, k_max, seed)

    monkeypatch.setattr(cli, "scan_inertia", recording)
    for cpus in (1, 3):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        assert cli.main(_scan_command(ws, "estimate-k", str(tmp_path / str(cpus)))) == 0
    assert asked == [1, 3]


@pytest.mark.parametrize("threads", [1, 2])
def test_scan_failure_exits_4_with_the_lowest_k(ws, tmp_path, monkeypatch, capsys, threads):
    real = clustering.semisup_kmeans

    def failing(features, labels, k, seed):
        if k in (4, 6):
            raise InvariantError(f"forced failure at k={k}")
        return real(features, labels, k, seed)

    monkeypatch.setattr(clustering, "semisup_kmeans", failing)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: threads)
    args = cluster_args(ws, tmp_path, "--estimate-k", "--k-min", "2", "--k-max", "7")
    assert cli.main(args) == 4
    assert capsys.readouterr().err == "graphgcd: InvariantError: forced failure at k=4\n"
    assert not (tmp_path / "inertia_scan.csv").exists()


def _arrays_in(obj, path: str):
    """(path, array) for every ndarray reachable from obj through attributes, lists
    and dicts; each path is `path` plus the attribute names, keys and indices."""
    if isinstance(obj, np.ndarray):
        yield path, obj
        return
    if isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    elif isinstance(obj, dict):
        items = obj.items()
    elif hasattr(obj, "__dict__"):
        items = vars(obj).items()
    else:
        return
    for key, item in items:
        yield from _arrays_in(item, f"{path}.{key}")


@pytest.mark.parametrize("command", ["cluster", "estimate-k", "run-all"])
def test_clustering_holds_no_input_or_model_array(ws, tmp_path, monkeypatch, command):
    # the elbow scan's forked workers and the final k-means run inherit only the
    # features and labels: every array read from an input file or the checkpoint,
    # or trained, is freed by the time either starts (run-all keeps the unlabeled
    # ground truth for scoring); no gc.collect, as none runs before the fork
    sources, tracked = set(), []  # tracked: (path, weak reference)

    def tracking(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            source = Path(args[0]).name if fn.__name__ == "read_embedding_file" else fn.__name__
            sources.add(source)
            tracked.extend((what, weakref.ref(a)) for what, a in _arrays_in(result, source))
            return result
        return wrapper

    alive_at = {}

    def checking(name, fn):
        def wrapper(*args, **kwargs):
            alive_at.setdefault(name, [what for what, ref in tracked if ref() is not None])
            return fn(*args, **kwargs)
        return wrapper

    for name in ("read_embedding_file", "load_checkpoint", "train"):
        monkeypatch.setattr(cli, name, tracking(getattr(cli, name)))
    for name in ("scan_inertia", "semisup_kmeans"):
        monkeypatch.setattr(cli, name, checking(name, getattr(cli, name)))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    data = ws["data"]
    argv = [command, "--labeled", str(data / "labeled.gvle"),
            "--unlabeled", str(data / "unlabeled.gvle"), "--class-emb", str(data / "class_emb.gvle"),
            "--k-min", "2", "--k-max", "4", "--out-dir", str(tmp_path)]
    argv += {"cluster": ["--checkpoint", str(ws["checkpoint"]), "--estimate-k"],
             "estimate-k": ["--checkpoint", str(ws["checkpoint"])],
             "run-all": [*TRAIN_OPTS, "--estimate-k"]}[command]
    assert cli.main(argv) == 0
    model = "train" if command == "run-all" else "load_checkpoint"
    assert sources == {"labeled.gvle", "unlabeled.gvle", "class_emb.gvle", model}
    kept = ["unlabeled.gvle.labels"] if command == "run-all" else []
    sites = ["scan_inertia"] + ([] if command == "estimate-k" else ["semisup_kmeans"])
    assert alive_at == {site: kept for site in sites}


def test_cluster_without_labeled_exits_2(ws, tmp_path, capsys):
    args = cluster_args(ws, tmp_path, "--k-total", "4")
    del args[args.index("--labeled") : args.index("--labeled") + 2]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == "graphgcd: InputError: --labeled is required\n"
    assert not (tmp_path / "assignments.csv").exists()


def test_run_all_without_labeled_names_synthetic(ws, tmp_path, capsys):
    # only run-all can generate its inputs, so only its message offers --synthetic
    args = ["run-all", "--unlabeled", str(ws["data"] / "unlabeled.gvle"),
            "--class-emb", str(ws["data"] / "class_emb.gvle"), "--k-total", "4",
            "--out-dir", str(tmp_path / "out")]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == (
        "graphgcd: InputError: --labeled is required (or pass --synthetic)\n")
    assert list((tmp_path / "out").iterdir()) == []


def test_cluster_k_total_below_known_rejected(ws, tmp_path):
    assert cli.main(cluster_args(ws, tmp_path, "--k-total", "1")) == 2


def test_cluster_estimate_k_writes_scan(ws, tmp_path, capsys):
    rc = cli.main(cluster_args(ws, tmp_path, "--estimate-k", "--k-min", "2", "--k-max", "6"))
    assert rc == 0
    assert "estimated k " in capsys.readouterr().out
    scan = (tmp_path / "inertia_scan.csv").read_text().splitlines()
    assert scan[0] == "k,inertia"
    assert [int(line.split(",")[0]) for line in scan[1:]] == [2, 3, 4, 5, 6]
    assert (tmp_path / "assignments.csv").exists()


def test_library_steps_reproduce_the_cluster_artifacts(ws, tmp_path, capsys):
    # cluster writes what cluster_features, elbow_k and assign_clusters return,
    # byte for byte, at the checkpoint's seed
    data = ws["data"]
    sets = [read_embedding_file(data / f"{name}.gvle")
            for name in ("labeled", "unlabeled", "class_emb")]
    state = load_checkpoint(ws["checkpoint"])
    features, labels = cli.cluster_features(state, *sets)
    seed = state.config.seed

    def rows(k):
        result = cli.assign_clusters(features, labels, k, seed)
        pairs = zip(result.assignment.tolist(), result.constrained_mask.tolist())
        return "sample_index,cluster_id,is_constrained\n" + "".join(
            f"{i},{c},{int(pinned)}\n" for i, (c, pinned) in enumerate(pairs))

    assert cli.main(cluster_args(ws, tmp_path / "fixed", "--k-total", "4")) == 0
    assert (tmp_path / "fixed" / "assignments.csv").read_text() == rows(4)
    capsys.readouterr()
    args = cluster_args(ws, tmp_path / "scan", "--estimate-k", "--k-min", "2", "--k-max", "5")
    assert cli.main(args) == 0
    k, scan = cli.elbow_k(features, labels, seed, 2, 5)
    assert (tmp_path / "scan" / "inertia_scan.csv").read_text() == "k,inertia\n" + "".join(
        f"{size},{inertia:.6f}\n" for size, inertia in scan)
    assert f"\nestimated k {k}\n" in capsys.readouterr().out
    assert (tmp_path / "scan" / "assignments.csv").read_text() == rows(k)


def corrupt_checkpoint_run(ws, tmp_path, edit):
    """Run cluster on a copy of the shared checkpoint after edit(raw bytearray)."""
    raw = bytearray(ws["checkpoint"].read_bytes())
    edit(raw)
    bad = tmp_path / "bad.gvlp"
    bad.write_bytes(bytes(raw))
    args = cluster_args(ws, tmp_path, "--k-total", "4")
    args[args.index("--checkpoint") + 1] = str(bad)
    return cli.main(args)


def test_cluster_corrupt_checkpoint_is_an_input_error(ws, tmp_path):
    def garbage(raw):
        raw[:] = b"GARBAGE"

    assert corrupt_checkpoint_run(ws, tmp_path, garbage) == 2


def first_tensor_name_offset(raw):
    (config_len,) = struct.unpack_from("<I", raw, 4)
    return 8 + config_len + 4 + 2


@pytest.mark.parametrize("where", ["config", "tensor-name"])
def test_cluster_non_utf8_checkpoint_is_a_format_error(ws, tmp_path, capsys, where):
    def flip(raw):
        raw[8 if where == "config" else first_tensor_name_offset(raw)] ^= 0xFF

    assert corrupt_checkpoint_run(ws, tmp_path, flip) == 2
    assert "FormatError" in capsys.readouterr().err


def test_cluster_checkpoint_with_invalid_config_is_an_input_error(ws, tmp_path, capsys):
    def zero_knn_k(raw):
        at = raw.index(b"knn_k=1\n")
        raw[at : at + 8] = b"knn_k=0\n"

    assert corrupt_checkpoint_run(ws, tmp_path, zero_knn_k) == 2
    assert "knn_k must be >= 1" in capsys.readouterr().err


def test_cluster_checkpoint_off_its_layout_is_a_format_error(ws, tmp_path, capsys):
    def cut_proj_b1(raw):
        for group in ("param", "adam.m", "adam.v"):
            raw[:] = rewrite_tensor(bytes(raw), f"{group}/proj.b1", np.zeros(3))

    assert corrupt_checkpoint_run(ws, tmp_path, cut_proj_b1) == 2
    err = capsys.readouterr().err
    assert "FormatError" in err and "'param/proj.b1' has shape (3,)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "config.txt").exists()


@pytest.mark.parametrize("command", ["cluster", "estimate-k"])
def test_config_records_the_seed_the_scan_and_clustering_used(ws, tmp_path, command):
    checkpoint_config = load_checkpoint(ws["checkpoint"]).config
    assert checkpoint_config.seed == 11
    runs = {}
    for seed in (None, "11", "5"):
        out = tmp_path / str(seed)
        args = cluster_args(ws, out, "--estimate-k", "--k-max", "6")
        if command == "estimate-k":
            args[0] = command
            args.remove("--estimate-k")
        assert cli.main(args + ([] if seed is None else ["--seed", seed])) == 0
        runs[seed] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert runs[None]["config.txt"].decode() == format_config(checkpoint_config)
    assert runs["11"] == runs[None]
    assert runs["5"]["config.txt"].decode() == format_config(
        dataclasses.replace(checkpoint_config, seed=5))
    assert runs["5"]["inertia_scan.csv"] != runs[None]["inertia_scan.csv"]


# ---------------------------------------------------------------- eval

def test_eval_matches_library_scoring(ws, tmp_path, capsys):
    cdir, edir = tmp_path / "c", tmp_path / "e"
    assert cli.main(cluster_args(ws, cdir, "--k-total", "4")) == 0
    capsys.readouterr()
    rc = cli.main([
        "eval", "--assignments", str(cdir / "assignments.csv"),
        "--unlabeled", str(ws["data"] / "unlabeled.gvle"),
        "--known", "2", "--out-dir", str(edir),
    ])
    assert rc == 0
    out = capsys.readouterr().out

    ids, pinned = read_assignment_rows(cdir / "assignments.csv")
    unlabeled = read_embedding_file(ws["data"] / "unlabeled.gvle")
    report = split_accuracy(ids[~pinned], unlabeled.labels, 2)

    rows = dict(
        line.split(",") for line in (edir / "report.csv").read_text().splitlines()[1:]
    )
    assert rows["acc_all"] == f"{report.acc_all:.4f}"
    assert rows["acc_known"] == f"{report.acc_known:.4f}"
    assert rows["acc_new"] == f"{report.acc_new:.4f}"
    assert f"acc_all {report.acc_all:.4f}" in out
    assert (edir / "confusion.csv").exists()
    # it reads no RunConfig, so it echoes none
    assert not (edir / "config.txt").exists()
    assert "knn_k=" not in out and "seed=" not in out


def test_eval_requires_labels_and_known(ws, tmp_path):
    cdir = tmp_path / "c"
    assert cli.main(cluster_args(ws, cdir, "--k-total", "4")) == 0
    assignments = str(cdir / "assignments.csv")

    stripped = tmp_path / "no_labels.gvle"
    u = read_embedding_file(ws["data"] / "unlabeled.gvle")
    write_embedding_file(EmbeddingSet(u.data), stripped)
    assert cli.main([
        "eval", "--assignments", assignments, "--unlabeled", str(stripped),
        "--known", "2", "--out-dir", str(tmp_path / "e1"),
    ]) == 2

    assert cli.main([
        "eval", "--assignments", assignments,
        "--out-dir", str(tmp_path / "e2"),
    ]) == 2  # no --unlabeled

    assert cli.main([
        "eval", "--assignments", assignments,
        "--unlabeled", str(ws["data"] / "unlabeled.gvle"),
        "--out-dir", str(tmp_path / "e3"),
    ]) == 2  # no --known


def test_eval_row_count_mismatch(ws, tmp_path):
    cdir = tmp_path / "c"
    assert cli.main(cluster_args(ws, cdir, "--k-total", "4")) == 0
    rc = cli.main([
        "eval", "--assignments", str(cdir / "assignments.csv"),
        "--unlabeled", str(ws["data"] / "labeled.gvle"),  # wrong split: 16 rows, not 32
        "--known", "2", "--out-dir", str(tmp_path / "e"),
    ])
    assert rc == 2


@pytest.mark.parametrize("edit", ["swap", "duplicate", "flag2", "flag-1",
                                  "cid1_0", "cid 1 ", "flag\u0661"])
def test_eval_rejects_malformed_assignment_rows(ws, tmp_path, edit):
    # edits on labeled rows leave the unconstrained rows, and so the report,
    # unchanged: only the row checks themselves can catch them. int() would
    # read 1_0, " 1 " and the Arabic-Indic digit one as 10, 1 and 1
    cdir = tmp_path / "c"
    assert cli.main(cluster_args(ws, cdir, "--k-total", "4")) == 0
    lines = (cdir / "assignments.csv").read_text().splitlines()
    if edit == "swap":
        lines[1], lines[2] = lines[2], lines[1]
    elif edit == "duplicate":
        lines[2] = "0," + lines[2].split(",", 1)[1]
    elif edit.startswith("cid"):
        index, _, flag = lines[1].split(",")
        lines[1] = ",".join((index, edit[len("cid"):], flag))
    else:
        lines[1] = lines[1].rsplit(",", 1)[0] + "," + edit[len("flag"):]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc = cli.main([
        "eval", "--assignments", str(bad),
        "--unlabeled", str(ws["data"] / "unlabeled.gvle"),
        "--known", "2", "--out-dir", str(tmp_path / "e"),
    ])
    assert rc == 2
    assert not (tmp_path / "e" / "report.csv").exists()


@pytest.mark.parametrize("case", ["header", "two-columns", "not-an-integer"])
def test_eval_rejects_unreadable_assignments_before_any_write(ws, ws_assignments, tmp_path,
                                                              capsys, case):
    # line 4 of the file holds the row with sample_index 2
    lines = ws_assignments.read_text().splitlines()
    if case == "header":
        lines[0] = "index,cluster,pinned"
        expected = " unrecognized assignments header 'index,cluster,pinned'"
    elif case == "two-columns":
        lines[3] = "2,0"
        expected = "4: expected 3 columns"
    else:
        lines[3] = "2,x,0"
        expected = " invalid literal for int() with base 10: 'x'"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "e"
    rc = cli.main(["eval", "--assignments", str(bad),
                   "--unlabeled", str(ws["data"] / "unlabeled.gvle"),
                   "--known", "2", "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"graphgcd: InputError: {bad}:{expected}\n"
    assert not (out / "report.csv").exists()


@pytest.fixture(scope="module")
def ws_assignments(ws, tmp_path_factory):
    """assignments.csv of one --k-total 4 cluster run on the shared checkpoint."""
    out = tmp_path_factory.mktemp("cluster")
    assert cli.main(cluster_args(ws, out, "--k-total", "4")) == 0
    return out / "assignments.csv"


def _truth_with_unlabeled_rows(ws, tmp_path):
    u = read_embedding_file(ws["data"] / "unlabeled.gvle")
    labels = u.labels.copy()
    labels[[0, 5]] = -1
    path = tmp_path / "truth.gvle"
    write_embedding_file(EmbeddingSet(u.data, labels), path)
    return path


def _truth_with_id_at_bound(ws, tmp_path, known):
    """The truth file with one class id at rows + known classes, the first one
    no contiguous labelling reaches; returns the path and the expected error."""
    u = read_embedding_file(ws["data"] / "unlabeled.gvle")
    labels = u.labels.copy()
    labels[3] = u.n + known
    path = tmp_path / "truth.gvle"
    write_embedding_file(EmbeddingSet(u.data, labels), path)
    return path, (f"{path} has class id {u.n + known}, but {u.n} rows and {known} "
                  f"known classes hold ids below {u.n + known}")


@pytest.mark.parametrize("case", ["truth-minus-1", "id-negative", "id-row-count", "id-huge",
                                  "truth-id-at-bound"])
def test_eval_rejects_unscorable_inputs_before_any_write(ws, ws_assignments, tmp_path, capsys,
                                                         case):
    # a free row's id at the row count, or at 10**15, would be scored (or would
    # ask bincount for petabytes) if it were not rejected
    assignments, truth = ws_assignments, ws["data"] / "unlabeled.gvle"
    if case == "truth-minus-1":
        truth = _truth_with_unlabeled_rows(ws, tmp_path)
        expected = f"{truth} has 2 rows labeled -1: no class id to score against"
    elif case == "truth-id-at-bound":
        truth, expected = _truth_with_id_at_bound(ws, tmp_path, known=2)
    else:
        lines = ws_assignments.read_text().splitlines()
        rows = len(lines) - 1
        value = {"id-negative": -1, "id-row-count": rows, "id-huge": 10**15}[case]
        index, _, flag = lines[-1].split(",")
        lines[-1] = f"{index},{value},{flag}"
        assignments = tmp_path / "bad.csv"
        assignments.write_text("\n".join(lines) + "\n")
        expected = f"{assignments}:{len(lines)}: cluster_id {value} is outside [0, {rows})"
    out = tmp_path / "e"
    rc = cli.main(["eval", "--assignments", str(assignments), "--unlabeled", str(truth),
                   "--known", "2", "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"graphgcd: InputError: {expected}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("extra", [0, 1], ids=["rows", "rows+1"])
def test_eval_known_is_bounded_by_the_assignment_rows(ws, ws_assignments, tmp_path, capsys,
                                                      extra):
    # the scoring table is --known columns wide, so the rows bound --known as they
    # bound the cluster ids
    rows = len(ws_assignments.read_text().splitlines()) - 1
    out = tmp_path / "e"
    rc = cli.main(["eval", "--assignments", str(ws_assignments),
                   "--unlabeled", str(ws["data"] / "unlabeled.gvle"),
                   "--known", str(rows + extra), "--out-dir", str(out)])
    if extra:
        assert rc == 2
        assert capsys.readouterr().err == (f"graphgcd: InputError: --known {rows + 1} exceeds "
                                           f"the {rows} rows of {ws_assignments}\n")
        assert list(out.iterdir()) == []
    else:
        assert rc == 0
        assert (out / "report.csv").exists()


def test_eval_missing_assignments_file(ws, tmp_path):
    rc = cli.main([
        "eval", "--assignments", str(tmp_path / "nope.csv"),
        "--unlabeled", str(ws["data"] / "unlabeled.gvle"),
        "--known", "2", "--out-dir", str(tmp_path),
    ])
    assert rc == 2


# ---------------------------------------------------------------- estimate-k

def test_estimate_k_command(ws, tmp_path, capsys):
    rc = cli.main([
        "estimate-k",
        "--labeled", str(ws["data"] / "labeled.gvle"),
        "--unlabeled", str(ws["data"] / "unlabeled.gvle"),
        "--class-emb", str(ws["data"] / "class_emb.gvle"),
        "--checkpoint", str(ws["checkpoint"]),
        "--k-min", "2", "--k-max", "6",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "estimated k " in out
    k_hat = int(out.split("estimated k ")[1].split()[0])
    assert 2 <= k_hat <= 6
    scan = (tmp_path / "inertia_scan.csv").read_text().splitlines()
    assert len(scan) == 1 + 5


def test_estimate_k_range_validation(ws, tmp_path, capsys):
    base = [
        "estimate-k",
        "--labeled", str(ws["data"] / "labeled.gvle"),
        "--unlabeled", str(ws["data"] / "unlabeled.gvle"),
        "--class-emb", str(ws["data"] / "class_emb.gvle"),
        "--checkpoint", str(ws["checkpoint"]),
        "--out-dir", str(tmp_path),
    ]
    assert cli.main(base + ["--k-min", "1"]) == 2          # below the known classes
    assert cli.main(base + ["--k-min", "5", "--k-max", "4"]) == 2
    assert cli.main(base + ["--k-max", "9999"]) == 2       # beyond the sample count
    assert cli.main(base + ["--k-max", "40"]) == 2         # beyond 2 classes + 32 free rows
    capsys.readouterr()
    assert cli.main(base + ["--k-min", "36"]) == 2         # beyond the default --k-max cap
    err = capsys.readouterr().err
    assert "--k-min 36 exceeds 34: 2 labeled classes plus 32 unlabeled rows" in err
    assert "--k-max" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["estimate-k", "cluster"])
def test_labeled_class_without_class_embedding_rejected(ws, tmp_path, command):
    labeled = read_embedding_file(ws["data"] / "labeled.gvle")
    labels = labeled.labels.copy()
    labels[-4:] = 2  # the class-embedding file holds classes 0 and 1 only
    relabeled = tmp_path / "labeled.gvle"
    write_embedding_file(EmbeddingSet(labeled.data, labels), relabeled)
    args = cluster_args(ws, tmp_path / "out", "--k-min", "4", "--k-max", "8")
    args[0] = command
    args[args.index("--labeled") + 1] = str(relabeled)
    if command == "cluster":
        args.append("--estimate-k")
    assert cli.main(args) == 2
    assert not (tmp_path / "out" / "inertia_scan.csv").exists()


# ---------------------------------------------------------------- run-all

@pytest.mark.parametrize("command", ["cluster", "run-all"])
@pytest.mark.parametrize("flags", [
    ("--estimate-k", "--k-total", "3"),
    ("--k-total", "4", "--k-min", "99"),
    ("--k-total", "4", "--k-max", "6"),
], ids=["k-total-with-estimate-k", "k-min-without-estimate-k", "k-max-without-estimate-k"])
def test_ignored_cluster_count_flags_rejected(ws, tmp_path, capsys, command, flags):
    args = cluster_args(ws, tmp_path, *flags)
    if command == "run-all":
        args[0] = "run-all"
        del args[args.index("--checkpoint") : args.index("--checkpoint") + 2]
        args += TRAIN_OPTS
    assert cli.main(args) == 2
    assert "InputError" in capsys.readouterr().err
    assert not (tmp_path / "assignments.csv").exists()
    assert not (tmp_path / "checkpoint.gvlp").exists()


_TOO_MANY = "34: 2 labeled classes plus 32 unlabeled rows"
# every cluster-count rule of every command that takes K flags; the file inputs
# and --synthetic both give 2 known classes and 32 unlabeled rows
K_FLAG_GRID = [
    ("cluster", "--estimate-k --k-total 4", "pass either --k-total or --estimate-k, not both"),
    ("cluster", "--k-total 4 --k-min 3", "--k-min and --k-max need --estimate-k"),
    ("cluster", "--k-max 6", "--k-min and --k-max need --estimate-k"),
    ("cluster", "", "pass --k-total or --estimate-k to choose the cluster count"),
    ("cluster", "--k-total 1", "--k-total 1 is below the 2 known classes"),
    ("cluster", "--k-total 35", f"--k-total 35 exceeds {_TOO_MANY}"),
    ("cluster", "--estimate-k --k-min 1", "--k-min 1 is below the 2 known classes"),
    ("cluster", "--estimate-k --k-min 5 --k-max 4", "--k-min 5 exceeds --k-max 4"),
    ("estimate-k", "--k-min 1", "--k-min 1 is below the 2 known classes"),
    ("estimate-k", "--k-min 5 --k-max 4", "--k-min 5 exceeds --k-max 4"),
    ("estimate-k", "--k-max 35", f"--k-max 35 exceeds {_TOO_MANY}"),
    ("estimate-k", "--k-min 35", f"--k-min 35 exceeds {_TOO_MANY}"),
    ("estimate-k", "--k-min 36 --k-max 35", "--k-min 36 exceeds --k-max 35"),
    ("run-all", "--estimate-k --k-total 4", "pass either --k-total or --estimate-k, not both"),
    ("run-all", "--k-min 3", "--k-min and --k-max need --estimate-k"),
    ("run-all", "", "pass --k-total or --estimate-k to choose the cluster count"),
    ("run-all", "--k-total 35", f"--k-total 35 exceeds {_TOO_MANY}"),
    ("run-all", "--estimate-k --k-max 35", f"--k-max 35 exceeds {_TOO_MANY}"),
    ("run-all", "--estimate-k --k-min 35", f"--k-min 35 exceeds {_TOO_MANY}"),
    ("run-all --synthetic", "--estimate-k --k-total 4",
     "pass either --k-total or --estimate-k, not both"),
    ("run-all --synthetic", "--k-max 6", "--k-min and --k-max need --estimate-k"),
    ("run-all --synthetic", "--k-total 1", "--k-total 1 is below the 2 known classes"),
    ("run-all --synthetic", "--estimate-k --k-min 5 --k-max 4", "--k-min 5 exceeds --k-max 4"),
    ("run-all --synthetic", "--estimate-k --k-max 35", f"--k-max 35 exceeds {_TOO_MANY}"),
]


@pytest.mark.parametrize("command,flags,message", K_FLAG_GRID,
                         ids=[f"{c} {f}".replace(" ", "_") for c, f, _ in K_FLAG_GRID])
def test_cluster_count_rules_give_one_message_each(ws, tmp_path, capsys, command, flags,
                                                   message):
    out = tmp_path / "out"
    if command == "run-all --synthetic":
        args = ["run-all", "--synthetic", *SMALL, *TRAIN_OPTS, "--out-dir", str(out)]
    else:
        args = cluster_args(ws, out)
        args[0] = command
        if command == "run-all":
            del args[args.index("--checkpoint") : args.index("--checkpoint") + 2]
            args += TRAIN_OPTS
    assert cli.main(args + flags.split()) == 2
    assert capsys.readouterr().err == f"graphgcd: InputError: {message}\n"
    assert list(out.iterdir()) == []


def test_run_all_synthetic_end_to_end(tmp_path, capsys):
    rc = cli.main([
        "run-all", "--synthetic", *SMALL, *TRAIN_OPTS,
        "--seed", "7", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "acc_all " in out and "acc_known " in out and "acc_new " in out
    for name in ("labeled.gvle", "unlabeled.gvle", "class_emb.gvle", "config.txt",
                 "checkpoint.gvlp", "loss_trace.csv", "assignments.csv",
                 "report.csv", "confusion.csv"):
        assert (tmp_path / name).exists(), name
    # K defaults to --classes for synthetic runs
    ids, _ = read_assignment_rows(tmp_path / "assignments.csv")
    assert ids.max() < 4
    for line in (tmp_path / "report.csv").read_text().splitlines()[1:]:
        metric, value = line.split(",")
        assert value == "n/a" or len(value.split(".")[1]) == 4


def test_run_all_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main([
            "run-all", "--synthetic", *SMALL, *TRAIN_OPTS,
            "--seed", "7", "--out-dir", str(out),
        ]) == 0
    for name in ("labeled.gvle", "unlabeled.gvle", "class_emb.gvle", "config.txt",
                 "checkpoint.gvlp", "loss_trace.csv", "assignments.csv",
                 "report.csv", "confusion.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("flag", ["--labeled", "--unlabeled", "--class-emb"])
def test_run_all_synthetic_takes_no_input_file(ws, tmp_path, capsys, flag):
    path = ws["data"] / (flag[2:].replace("-", "_") + ".gvle")
    rc = cli.main(["run-all", "--synthetic", *SMALL, *TRAIN_OPTS, flag, str(path),
                   "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "graphgcd: InputError: --synthetic takes no --labeled, --unlabeled or --class-emb\n")
    assert list(tmp_path.iterdir()) == []


def test_run_all_file_inputs_need_a_cluster_count(ws, tmp_path):
    rc = cli.main([
        "run-all",
        "--labeled", str(ws["data"] / "labeled.gvle"),
        "--unlabeled", str(ws["data"] / "unlabeled.gvle"),
        "--class-emb", str(ws["data"] / "class_emb.gvle"),
        "--knn-k", "1", "--epochs", "1", "--out-dir", str(tmp_path),
    ])
    assert rc == 2
    assert not (tmp_path / "checkpoint.gvlp").exists()


@pytest.mark.parametrize("flags", [
    ("--k-total", "1"),
    ("--k-total", "999"),
    ("--estimate-k", "--k-min", "1"),
    ("--estimate-k", "--k-min", "5", "--k-max", "4"),
    ("--estimate-k", "--k-max", "9999"),
    # 48 samples, but only 2 classes + 32 unlabeled rows can seed clusters
    ("--k-total", "40"),
    ("--estimate-k", "--k-max", "40"),
], ids=["k-total-below-known", "k-total-above-samples", "k-min-below-known",
        "k-min-above-k-max", "k-max-above-samples", "k-total-above-free-rows",
        "k-max-above-free-rows"])
def test_run_all_checks_cluster_count_before_training(ws, tmp_path, capsys, flags):
    args = cluster_args(ws, tmp_path, *flags, *TRAIN_OPTS)
    args[0] = "run-all"
    del args[args.index("--checkpoint") : args.index("--checkpoint") + 2]
    assert cli.main(args) == 2
    assert "InputError" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_run_all_skips_eval_without_ground_truth(ws, tmp_path, capsys):
    stripped = tmp_path / "no_labels.gvle"
    u = read_embedding_file(ws["data"] / "unlabeled.gvle")
    write_embedding_file(EmbeddingSet(u.data), stripped)
    rc = cli.main([
        "run-all",
        "--labeled", str(ws["data"] / "labeled.gvle"),
        "--unlabeled", str(stripped),
        "--class-emb", str(ws["data"] / "class_emb.gvle"),
        "--knn-k", "1", "--epochs", "1", "--k-total", "4",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    assert "eval skipped" in capsys.readouterr().out
    assert (tmp_path / "assignments.csv").exists()
    assert not (tmp_path / "report.csv").exists()


def test_run_all_rejects_truth_with_unlabeled_rows_before_any_write(ws, tmp_path, capsys):
    truth = _truth_with_unlabeled_rows(ws, tmp_path)
    out = tmp_path / "out"
    rc = cli.main([
        "run-all",
        "--labeled", str(ws["data"] / "labeled.gvle"),
        "--unlabeled", str(truth),
        "--class-emb", str(ws["data"] / "class_emb.gvle"),
        *TRAIN_OPTS, "--k-total", "4", "--out-dir", str(out),
    ])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"graphgcd: InputError: {truth} has 2 rows labeled -1: no class id to score against\n")
    assert list(out.iterdir()) == []


def test_run_all_rejects_truth_id_at_bound_before_training(ws, tmp_path, capsys):
    known = read_embedding_file(ws["data"] / "class_emb.gvle").n
    truth, expected = _truth_with_id_at_bound(ws, tmp_path, known)
    out = tmp_path / "out"
    rc = cli.main([
        "run-all",
        "--labeled", str(ws["data"] / "labeled.gvle"),
        "--unlabeled", str(truth),
        "--class-emb", str(ws["data"] / "class_emb.gvle"),
        *TRAIN_OPTS, "--k-total", "4", "--out-dir", str(out),
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"graphgcd: InputError: {expected}\n"
    assert list(out.iterdir()) == []


def test_truth_id_below_bound_is_scored(ws, ws_assignments, tmp_path):
    # the largest id the bound admits is scored, not rejected
    u = read_embedding_file(ws["data"] / "unlabeled.gvle")
    labels = u.labels.copy()
    labels[3] = u.n + 1
    truth = tmp_path / "truth.gvle"
    write_embedding_file(EmbeddingSet(u.data, labels), truth)
    out = tmp_path / "e"
    assert cli.main(["eval", "--assignments", str(ws_assignments), "--unlabeled", str(truth),
                     "--known", "2", "--out-dir", str(out)]) == 0
    assert (out / "report.csv").exists()


# ---------------------------------------------------------------- inputs that disagree

@pytest.fixture(scope="module")
def ws4(tmp_path_factory):
    """Four known classes, so knn_k=3 trains; a 2-layer and a 0-layer checkpoint."""
    root = tmp_path_factory.mktemp("cli4")
    data = root / "data"
    assert cli.main(["gen-synthetic", "--out-dir", str(data), "--seed", "5", "--classes", "6",
                     "--known", "4", "--per-class", "4", "--dim", "8"]) == 0
    for layers in ("2", "0"):
        assert cli.main([
            "train", "--labeled", str(data / "labeled.gvle"),
            "--class-emb", str(data / "class_emb.gvle"), "--out-dir", str(root / layers),
            "--epochs", "1", "--gcn-layers", layers,
        ]) == 0
    return root


def _edited(ws4, tmp_path, name, edit):
    emb = read_embedding_file(ws4 / "data" / name)
    path = tmp_path / name
    write_embedding_file(edit(emb), path)
    return path


def _narrow_class_emb(ws4, tmp_path):
    return _edited(ws4, tmp_path, "class_emb.gvle", lambda e: EmbeddingSet(e.data[:, :4]))


def _relabeled(ws4, tmp_path, old, new):
    def edit(e):
        labels = e.labels.copy()
        labels[labels == old] = new
        return EmbeddingSet(e.data, labels)
    return _edited(ws4, tmp_path, "labeled.gvle", edit)


def _doubled_dim_files(ws4, tmp_path):
    """All three input files at dim 16: they agree with each other, not with a checkpoint."""
    def double(e):
        return EmbeddingSet(np.hstack([e.data, e.data]), e.labels)
    return {name: _edited(ws4, tmp_path, f"{name}.gvle", double)
            for name in ("labeled", "unlabeled", "class_emb")}


def _knn_k_checkpoint(ws4, tmp_path, knn_k):
    raw = (ws4 / "2" / "checkpoint.gvlp").read_bytes()
    assert raw.count(b"knn_k=3\n") == 1
    path = tmp_path / f"knn{knn_k}.gvlp"
    path.write_bytes(raw.replace(b"knn_k=3\n", f"knn_k={knn_k}\n".encode()))
    return path


def _two_class_files(ws4, tmp_path):
    """Labeled rows and class embeddings of the first 2 of the 4 known classes."""
    def first_two(e):
        keep = e.labels < 2
        return EmbeddingSet(e.data[keep], e.labels[keep])
    return {name: _edited(ws4, tmp_path, f"{name}.gvle", first_two)
            for name in ("labeled", "class_emb")}


def _files_run(command, ws4, checkpoint=None, **files):
    paths = {name: ws4 / "data" / f"{name}.gvle" for name in ("labeled", "unlabeled", "class_emb")}
    paths.update(files)
    args = [command, *(a for name, path in paths.items()
                       for a in ("--" + name.replace("_", "-"), str(path))), "--k-total", "6"]
    if command == "cluster":
        return args + ["--checkpoint", str(checkpoint or ws4 / "2" / "checkpoint.gvlp")]
    return args + ["--epochs", "1"]


REJECTED = {
    "cluster-class-emb-dim-0-layer": lambda ws4, tmp: _files_run(
        "cluster", ws4, ws4 / "0" / "checkpoint.gvlp", class_emb=_narrow_class_emb(ws4, tmp)),
    "cluster-class-emb-dim-2-layer": lambda ws4, tmp: _files_run(
        "cluster", ws4, class_emb=_narrow_class_emb(ws4, tmp)),
    "run-all-class-ids-not-contiguous": lambda ws4, tmp: _files_run(
        "run-all", ws4, labeled=_relabeled(ws4, tmp, 2, 3)),
    # the highest class, so the ids left stay contiguous
    "cluster-labeled-rows-marked-unlabeled": lambda ws4, tmp: _files_run(
        "cluster", ws4, labeled=_relabeled(ws4, tmp, 3, -1)),
    "run-all-synthetic-lr-nan": lambda ws4, tmp: [
        "run-all", "--synthetic", *SMALL, *TRAIN_OPTS, "--lr", "nan"],
    "run-all-synthetic-knn-k-5": lambda ws4, tmp: [
        "run-all", "--synthetic", *SMALL, *TRAIN_OPTS, "--knn-k", "5"],
    "cluster-checkpoint-knn-k-5": lambda ws4, tmp: _files_run(
        "cluster", ws4, _knn_k_checkpoint(ws4, tmp, 5)),
    "cluster-checkpoint-of-another-dim": lambda ws4, tmp: _files_run(
        "cluster", ws4, **_doubled_dim_files(ws4, tmp)),
    # knn_k=1 is valid for both class counts, so only the count itself disagrees
    "cluster-checkpoint-of-4-known-classes-on-2": lambda ws4, tmp: _files_run(
        "cluster", ws4, _knn_k_checkpoint(ws4, tmp, 1), **_two_class_files(ws4, tmp)),
}


@pytest.mark.parametrize("case", list(REJECTED))
def test_disagreeing_inputs_rejected_before_any_write(ws4, tmp_path, capsys, case):
    out = tmp_path / "out"
    rc = cli.main([*REJECTED[case](ws4, tmp_path), "--out-dir", str(out)])
    assert rc == 2
    assert "InputError" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------- flag and error handling

def test_missing_input_file_reports_path(tmp_path, capsys):
    missing = tmp_path / "nope.gvle"
    rc = cli.main([
        "train", "--labeled", str(missing), "--class-emb", str(missing),
        "--out-dir", str(tmp_path),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "file not found" in err
    assert "nope.gvle" in err


@pytest.mark.parametrize("command, bad_is_dir", [
    ("train", True), ("eval", True), ("gen-synthetic", False),
])
def test_unusable_path_exits_2_naming_it(ws, tmp_path, command, bad_is_dir):
    # a directory where an input file goes, or a file where the out-dir goes
    bad = tmp_path / "bad"
    if bad_is_dir:
        bad.mkdir()
    else:
        bad.touch()
    data, out = ws["data"], str(tmp_path / "out")
    args = {
        "train": ["--labeled", str(bad), "--class-emb", str(data / "class_emb.gvle"),
                  "--out-dir", out],
        "eval": ["--assignments", str(bad), "--unlabeled", str(data / "unlabeled.gvle"),
                 "--known", "2", "--out-dir", out],
        "gen-synthetic": ["--out-dir", str(bad), *SMALL],
    }[command]
    run = _fresh_python("-m", "graphgcd.cli", command, *args)
    assert run.returncode == 2
    assert "InputError" in run.stderr and str(bad) in run.stderr
    assert "Traceback" not in run.stderr


def test_output_file_that_is_a_directory_exits_2_naming_it(tmp_path, capsys):
    (tmp_path / "labeled.gvle").mkdir()
    assert cli.main(["gen-synthetic", *SMALL, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"graphgcd: InputError: Is a directory: {tmp_path / 'labeled.gvle'}\n")


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as e:
        cli.main(["train", "--bogus"])
    assert e.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as e:
        cli.main([])
    assert e.value.code == 2


def _scan_command(ws, command, out):
    """argv of `command` (cluster, estimate-k or run-all) with an elbow scan, into out."""
    if command == "run-all":
        return ["run-all", "--synthetic", *SMALL, *TRAIN_OPTS, "--estimate-k", "--out-dir", out]
    args = cluster_args(ws, out, "--k-min", "2", "--k-max", "4")
    args[0] = command
    return args + ["--estimate-k"] if command == "cluster" else args


def test_seed_and_threads_validation(ws, tmp_path, capsys):
    assert cli.main(["gen-synthetic", "--out-dir", str(tmp_path), "--seed", "-1", *SMALL]) == 2
    assert capsys.readouterr().err == "graphgcd: InputError: --seed must be a uint64, got -1\n"
    # no command takes --threads (the elbow scan sizes its own worker pool), and
    # train takes no --unlabeled: argparse rejects them before any write
    data = ws["data"]
    rejected = str(tmp_path / "rejected")
    for argv in (*([*_scan_command(ws, c, rejected), "--threads", "1"]
                   for c in ("cluster", "estimate-k", "run-all")),
                 ["gen-synthetic", *SMALL, "--threads", "1"],
                 ["train", "--labeled", str(data / "labeled.gvle"),
                  "--class-emb", str(data / "class_emb.gvle"), "--threads", "1"],
                 ["eval", "--assignments", "a.csv", "--known", "2", "--threads", "1"],
                 ["train", "--labeled", str(data / "labeled.gvle"),
                  "--class-emb", str(data / "class_emb.gvle"), "--unlabeled", "x"]):
        with pytest.raises(SystemExit) as e:
            cli.main([*argv, "--out-dir", str(tmp_path / "rejected")])
        assert e.value.code == 2
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err
    assert not (tmp_path / "rejected").exists()


def _command_reads(argv: list[str]) -> set[str]:
    """Run one command in process; return the argument names it uses.

    Reads are logged only after parse_args returns, because argparse's own
    hasattr calls would count too. _check_common range-checks --seed; that
    alone changes no output, so only its out_dir read counts.
    """
    reads, logging = [], False

    class LoggedNamespace(argparse.Namespace):
        def __getattribute__(self, name):
            if logging:
                reads.append((name, sys._getframe(1).f_code.co_name))
            return super().__getattribute__(name)

    args = cli.build_parser().parse_args(argv, namespace=LoggedNamespace())
    command = args.func  # main's dispatch read, not the command's
    logging = True
    assert command(args) == 0
    return {name for name, reader in reads if reader != "_check_common" or name == "out_dir"}


def _invocations(ws, assignments, out):
    """One or two runs per command that between them take every branch reading a flag."""
    labeled = ["--labeled", str(ws["data"] / "labeled.gvle")]
    unlabeled = ["--unlabeled", str(ws["data"] / "unlabeled.gvle")]
    class_emb = ["--class-emb", str(ws["data"] / "class_emb.gvle")]
    return {
        "gen-synthetic": [["gen-synthetic", *SMALL, "--seed", "3", "--out-dir", out]],
        "train": [["train", *labeled, *class_emb, *TRAIN_OPTS, "--out-dir", out]],
        "cluster": [cluster_args(ws, out, "--k-total", "4"), _scan_command(ws, "cluster", out)],
        "eval": [["eval", "--assignments", str(assignments), *unlabeled, "--known", "2",
                  "--out-dir", out]],
        "estimate-k": [_scan_command(ws, "estimate-k", out)],
        "run-all": [_scan_command(ws, "run-all", out),
                    ["run-all", *labeled, *unlabeled, *class_emb, *TRAIN_OPTS, "--k-total", "4",
                     "--out-dir", out]],
    }


# dests no command reads: func is main's dispatch; eval accepts --seed only
# because perfbench passes --seed to every command but cluster, and scoring
# draws no random numbers
_UNREAD = {"eval": {"func", "seed"}}


def test_every_declared_flag_is_read(ws, ws_assignments, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)  # a serial scan: no worker to fork
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    invocations = _invocations(ws, ws_assignments, str(tmp_path / "out"))
    assert sorted(invocations) == sorted(sub.choices)
    unread = {}
    for name, p in sub.choices.items():
        declared = {a.dest for a in p._actions if a.dest != "help"} | set(p._defaults)
        unread[name] = declared.difference(*(_command_reads(argv) for argv in invocations[name]))
    assert unread == {name: _UNREAD.get(name, {"func"}) for name in sub.choices}


def test_numeric_failure_maps_to_exit_3(tmp_path):
    # a zero input row reaches the projector, whose output cannot be normalized
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 4)).astype(np.float32)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x[0] = 0.0
    labels = np.array([0, 0, 0, 1, 1, 1], dtype=np.int32)
    ce = np.eye(2, 4, dtype=np.float32)
    write_embedding_file(EmbeddingSet(x, labels), tmp_path / "labeled.gvle")
    write_embedding_file(EmbeddingSet(ce), tmp_path / "class_emb.gvle")
    rc = cli.main([
        "train", "--labeled", str(tmp_path / "labeled.gvle"),
        "--class-emb", str(tmp_path / "class_emb.gvle"),
        "--knn-k", "1", "--epochs", "1", "--out-dir", str(tmp_path),
    ])
    assert rc == 3


def test_row_norm_overflow_in_float32_training_exits_3(tmp_path, capsys):
    # finite float32 class embeddings whose squares overflow: training, which
    # runs in float32, must refuse to normalize them rather than zero them
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 4)).astype(np.float32)
    labels = np.array([0, 0, 0, 1, 1, 1], dtype=np.int32)
    ce = np.eye(2, 4, dtype=np.float32) * np.float32(3e19)
    write_embedding_file(EmbeddingSet(x, labels), tmp_path / "labeled.gvle")
    write_embedding_file(EmbeddingSet(ce), tmp_path / "class_emb.gvle")
    with pytest.warns(RuntimeWarning, match="overflow"):
        rc = cli.main([
            "train", "--labeled", str(tmp_path / "labeled.gvle"),
            "--class-emb", str(tmp_path / "class_emb.gvle"), "--gcn-layers", "0",
            "--knn-k", "1", "--epochs", "1", "--out-dir", str(tmp_path / "out"),
        ])
    assert rc == 3
    assert "non-finite row norm" in capsys.readouterr().err


def test_zero_projected_row_in_the_feature_stage_exits_3(ws, tmp_path, capsys):
    # zero output weights and bias project every row to zero, which the
    # buffered feature stage must refuse to normalize, as training does
    raw = ws["checkpoint"].read_bytes()
    for name, shape in (("param/proj.w2", (8, 8)), ("param/proj.b2", (8,))):
        raw = rewrite_tensor(raw, name, np.zeros(shape))
    (tmp_path / "zero.gvlp").write_bytes(raw)
    data = ws["data"]
    rc = cli.main([
        "cluster", "--labeled", str(data / "labeled.gvle"),
        "--unlabeled", str(data / "unlabeled.gvle"),
        "--class-emb", str(data / "class_emb.gvle"),
        "--checkpoint", str(tmp_path / "zero.gvlp"), "--k-total", "4",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 3
    assert "zero-norm row" in capsys.readouterr().err
    assert not (tmp_path / "out" / "assignments.csv").exists()


def test_invariant_failure_maps_to_exit_4(ws, tmp_path, monkeypatch, capsys):
    # a broken internal contract, forced: bad inputs exit 2 before clustering starts
    def broken(features, labels, k, seed):
        raise InvariantError("forced failure in the clustering stage")

    monkeypatch.setattr(cli, "semisup_kmeans", broken)
    assert cli.main(cluster_args(ws, tmp_path, "--k-total", "4")) == 4
    assert capsys.readouterr().err == (
        "graphgcd: InvariantError: forced failure in the clustering stage\n")


# ---------------------------------------------------------------- benchmark tracer

def _tracer_sites() -> list[tuple[str, str]]:
    """Every (module, attribute) binding that perfbench/tracer.py wraps."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [site for _, group in tracer.WRAPPED for site in group]


def test_tracer_wrapped_sites_resolve():
    # perfbench/tracer.py wraps functions at the names modules bind; a site
    # that no longer resolves would make its per-layer metric silently read 0
    sites = _tracer_sites()
    assert sites
    for module, attr in sites:
        assert callable(getattr(importlib.import_module(f"graphgcd.{module}"), attr, None)), (
            f"graphgcd.{module}.{attr}"
        )


def test_tracer_wrapped_sites_are_called(tmp_path, monkeypatch):
    # a binding that exists but that no code path calls through would also
    # make its per-layer metric read 0; one usable CPU keeps the scan's calls
    # in this process, where the counters see them
    calls = {}
    for module, attr in _tracer_sites():
        mod = importlib.import_module(f"graphgcd.{module}")
        fn = getattr(mod, attr)

        def counted(*args, _site=(module, attr), _fn=fn, **kwargs):
            calls[_site] = calls.get(_site, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, attr, counted)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    run = tmp_path / "run"
    assert cli.main(["run-all", "--synthetic", *SMALL, *TRAIN_OPTS, "--estimate-k",
                     "--out-dir", str(run)]) == 0
    assert cli.main([
        "cluster", "--labeled", str(run / "labeled.gvle"),
        "--unlabeled", str(run / "unlabeled.gvle"),
        "--class-emb", str(run / "class_emb.gvle"),
        "--checkpoint", str(run / "checkpoint.gvlp"),
        "--k-total", "4", "--out-dir", str(tmp_path / "cluster"),
    ]) == 0
    assert [site for site in _tracer_sites() if site not in calls] == []


def _fresh_python(*args: str, env=None) -> subprocess.CompletedProcess:
    """Run `python *args` in a fresh interpreter that imports graphgcd from src/."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, *args],
        env={**(os.environ if env is None else env), "PYTHONPATH": str(src)},
        capture_output=True, text=True,
    )


def _loaded_after(code: str, module: str = "scipy") -> str:
    """Run `code` in a fresh interpreter; report whether `module` got imported."""
    out = _fresh_python("-c", code + f"\nprint({module!r} in sys.modules)")
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1]


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency; importing the CLI must not load it
    assert _loaded_after("import sys, graphgcd.cli") == "False"


@pytest.mark.parametrize("module", ["multiprocessing", "concurrent.futures"])
def test_cli_import_does_not_load_process_pools(module):
    # only the elbow scan's worker path imports them, so other commands start as fast
    assert _loaded_after("import sys, graphgcd.cli", module) == "False"


def test_one_cpu_affinity_runs_a_serial_scan(ws, tmp_path):
    # the way to cap the scan's workers is the CPU affinity it runs under: on
    # one CPU no process pool is imported, and the scan equals the default run's
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no os.sched_setaffinity")
    assert cli.main(_scan_command(ws, "estimate-k", str(tmp_path / "default"))) == 0
    argv = _scan_command(ws, "estimate-k", str(tmp_path / "pinned"))
    code = (
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from graphgcd.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print('multiprocessing' in sys.modules)"
    )
    out = _fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"
    scan = [(tmp_path / run / "inertia_scan.csv").read_bytes() for run in ("default", "pinned")]
    assert scan[1] == scan[0]


def test_cli_runs_without_openssl(tmp_path):
    # _hashlib loads OpenSSL's libcrypto (about 3.6 MB resident) for hashes no
    # command computes: importing the CLI leaves it alone, and main() keeps
    # numpy.random's import chain (secrets, hmac) on Python's built-in hashes
    assert _loaded_after("import sys, graphgcd.cli", "_hashlib") == "False"
    run_all = ["run-all", "--synthetic", *SMALL, *TRAIN_OPTS, "--k-total", "4",
               "--out-dir", str(tmp_path)]
    code = (
        "import sys\n"
        "from graphgcd.cli import main\n"
        f"assert main({run_all!r}) == 0\n"
        "print(sys.modules.get('_hashlib'), 'hmac' in sys.modules)"
    )
    out = _fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "None True"


def test_scoring_commands_do_not_load_scipy(tmp_path):
    # the Hungarian matching is numpy-only, so scoring must not load scipy either
    run_all = ["run-all", "--synthetic", *SMALL, *TRAIN_OPTS, "--seed", "7",
               "--out-dir", str(tmp_path)]
    evaluate = ["eval", "--assignments", str(tmp_path / "assignments.csv"),
                "--unlabeled", str(tmp_path / "unlabeled.gvle"), "--known", "2",
                "--out-dir", str(tmp_path / "eval")]
    code = (
        "import sys\n"
        "from graphgcd.cli import main\n"
        f"assert main({run_all!r}) == 0\n"
        f"assert main({evaluate!r}) == 0"
    )
    assert _loaded_after(code) == "False"
    assert (tmp_path / "eval" / "report.csv").exists()


_SCAN_ONE = """
import sys
import numpy as np
from graphgcd import clustering
features = (np.arange(60.0).reshape(20, 3) * 7.3) % 5.0
labels = np.full(20, -1)
labels[:6] = [0, 0, 1, 1, 2, 2]
clustering._scan_one(features, labels, 5, np.random.SeedSequence([0, 3, 5]))
"""


@pytest.mark.parametrize("command, cpus", [("cluster", 2), ("estimate-k", 1), ("run-all", None),
                                           ("scan-worker", None)])
def test_clustering_does_not_load_numpy_ma(ws, tmp_path, command, cpus):
    # a plain np.unique calls np.ma.is_masked, which imports all of numpy.ma
    # (about 1.2 MB and 15 ms); clustering checks the labeled ids without it, so
    # no command, and no scan worker, pays for it. estimate-k runs its scan on
    # one CPU, so in the checked process; scan-worker is a forked worker's path.
    if command == "scan-worker":
        code = _SCAN_ONE
    else:
        code = (
            "import sys\n"
            "from graphgcd import cli\n"
            + (f"cli._usable_cpus = lambda: {cpus}\n" if cpus else "")
            + f"assert cli.main({_scan_command(ws, command, str(tmp_path))!r}) == 0"
        )
    assert _loaded_after(code, "numpy.ma") == "False"


_SCAN_WORKER_THREADS = """
from types import SimpleNamespace
import graphgcd.cli
import numpy as np
from graphgcd import clustering

def threads_after_one_gemm(features, labels, k, seed):
    a = np.ones((256, 256))
    a @ a
    with open("/proc/self/status") as status:
        threads = next(int(line.split()[1]) for line in status if line.startswith("Threads:"))
    return SimpleNamespace(inertia=threads)

clustering.semisup_kmeans = threads_after_one_gemm
scan = clustering.scan_inertia(np.zeros((8, 2)), np.full(8, -1), 2, 5, seed=0, workers=2)
print([threads for _, threads in scan])
"""


def test_cli_scan_workers_run_one_blas_thread():
    # OpenBLAS sizes its pool once, at load; the CLI picks one thread before
    # numpy loads, so each forked scan worker adds no BLAS thread of its own
    if not Path("/proc/self/status").exists():
        pytest.skip("no /proc/self/status")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out = _fresh_python("-c", _SCAN_WORKER_THREADS, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[1, 1, 1, 1]"


def test_cli_import_keeps_a_caller_set_blas_thread_count():
    code = "import os, graphgcd.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])"
    out = _fresh_python("-c", code, env={**os.environ, "OPENBLAS_NUM_THREADS": "2"})
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["2"]
