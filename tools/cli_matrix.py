"""Compare what two source trees' CLIs do on a fixed list of commands.

Usage, from the repository root:

    python3 tools/cli_matrix.py PARENT_TREE CHANGE_TREE

Each tree is a checkout (for example from `git archive`). The commands in
COMMANDS run in order, each in its own subprocess with that tree's `src/` on
PYTHONPATH, in a fresh work directory per tree; later commands read what
earlier ones wrote. Every command writes into its own out-dir, named by its
label. The last three are rejected runs.

For each command the exit code, stdout and stderr are compared, with the
tree and work-directory paths replaced by <tree> and <work>. Then every file
and directory left in the two work directories is compared byte for byte.
Prints the differences and exits 1 if there are any, else exits 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

# What the installed `graphgcd` console script runs.
CLI = ["-c", "import sys; from graphgcd.cli import main; sys.exit(main())"]
INPUTS = ["--labeled", "data/labeled.gvle", "--unlabeled", "data/unlabeled.gvle",
          "--class-emb", "data/class_emb.gvle"]
CHECKPOINT = ["--checkpoint", "train/checkpoint.gvlp"]
# (label, argv); each command also gets --out-dir <label>
COMMANDS = [
    ("data", ["gen-synthetic", "--classes", "24", "--known", "12", "--per-class", "60",
              "--dim", "32", "--seed", "101"]),
    ("train", ["train", "--labeled", "data/labeled.gvle", "--class-emb", "data/class_emb.gvle",
               "--epochs", "3", "--dump-graph"]),
    ("cluster", ["cluster", *INPUTS, *CHECKPOINT, "--estimate-k"]),
    ("estimate-k", ["estimate-k", *INPUTS, *CHECKPOINT, "--k-min", "12", "--k-max", "16"]),
    ("eval", ["eval", "--assignments", "cluster/assignments.csv",
              "--unlabeled", "data/unlabeled.gvle", "--known", "12"]),
    ("run-all-synthetic", ["run-all", "--synthetic", "--seed", "3", "--epochs", "5",
                           "--estimate-k", "--dump-graph"]),
    ("run-all-flat", ["run-all", "--synthetic", "--seed", "0", "--gcn-layers", "0",
                      "--epochs", "5"]),
    ("run-all-files", ["run-all", *INPUTS, "--epochs", "2", "--k-total", "24"]),
    ("eval-no-unlabeled", ["eval", "--assignments", "cluster/assignments.csv", "--known", "12"]),
    ("run-all-k-too-small", ["run-all", "--synthetic", "--k-total", "3"]),
    ("gen-negative-seed", ["gen-synthetic", "--seed", "-1"]),
]


def run_matrix(tree: Path, work: Path) -> dict:
    """Run every command of COMMANDS on tree in work; return each one's normalized result
    and the bytes of every path left in work (None for a directory)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src") + (os.pathsep + env["PYTHONPATH"]
                                             if env.get("PYTHONPATH") else "")
    results = {}
    for label, argv in COMMANDS:
        proc = subprocess.run([sys.executable, *CLI, *argv, "--out-dir", label], cwd=work,
                              env=env, capture_output=True, text=True)
        results[label] = {"exit": proc.returncode,
                          **{name: text.replace(str(tree), "<tree>").replace(str(work), "<work>")
                             for name, text in (("stdout", proc.stdout),
                                                ("stderr", proc.stderr))}}
    files = {str(p.relative_to(work)): None if p.is_dir() else p.read_bytes()
             for p in sorted(work.rglob("*"))}
    return {"commands": results, "files": files}


def differences(parent: dict, change: dict) -> list[str]:
    found = []
    for label, _ in COMMANDS:
        for key, want in parent["commands"][label].items():
            got = change["commands"][label][key]
            if got != want:
                found.append(f"{label}: {key} differs:\n--- parent\n{want}\n--- change\n{got}")
    for path in sorted(parent["files"].keys() | change["files"].keys()):
        if path not in change["files"] or path not in parent["files"]:
            side = "parent" if path in parent["files"] else "change"
            found.append(f"{path}: only in the {side} tree's output")
        elif parent["files"][path] != change["files"][path]:
            found.append(f"{path}: contents differ")
    return found


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: python3 tools/cli_matrix.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    trees = [Path(arg).resolve() for arg in sys.argv[1:]]
    with tempfile.TemporaryDirectory(prefix="cli_matrix-") as tmp:
        matrices = []
        for name, tree in zip(("parent", "change"), trees):
            work = Path(tmp) / name
            work.mkdir()
            matrices.append(run_matrix(tree, work))
    found = differences(*matrices)
    files = sum(data is not None for data in matrices[0]["files"].values())
    print("\n".join(found) if found else
          f"no differences: {len(COMMANDS)} commands, {files} files")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
