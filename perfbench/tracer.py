"""Run one graphgcd CLI command with its module boundaries wrapped.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/tracer.py OUT.json [--alloc] -- <graphgcd arguments>

The tracer replaces public functions at the name the calling module binds
(for example ``graphgcd.trainer.sample_triplets`` and both
``graphgcd.cli.semisup_kmeans`` and ``graphgcd.clustering.semisup_kmeans``)
with timing wrappers, runs ``graphgcd.cli.main`` in this process, and writes
the recorded spans and counts to OUT.json. Nothing under ``src/`` is changed.
With ``--alloc`` it also takes the tracemalloc peak inside ``train`` and each
``semisup_kmeans`` call; that pass is kept apart because tracemalloc slows
every allocation and would distort the timings.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc

# (span name, [(module, attribute), ...]). Bindings of one function share one
# wrapper, so a call reached through either name is counted once.
WRAPPED = [
    ("embed_io.read_embedding_file", [("cli", "read_embedding_file")]),
    ("semantic_graph.build_knn_graph", [("cli", "build_knn_graph"),
                                        ("trainer", "build_knn_graph")]),
    ("trainer.train", [("cli", "train")]),
    ("trainer.save_checkpoint", [("cli", "save_checkpoint")]),
    ("trainer.load_checkpoint", [("cli", "load_checkpoint")]),
    ("losses.sample_triplets", [("trainer", "sample_triplets")]),
    ("losses.loss_total", [("trainer", "loss_total")]),
    ("neural_core.gcn_forward", [("trainer", "gcn_forward"),
                                 ("clustering", "gcn_forward")]),
    ("neural_core.gcn_backward", [("trainer", "gcn_backward")]),
    ("neural_core.projector_forward", [("trainer", "projector_forward"),
                                       ("clustering", "projector_forward")]),
    ("neural_core.projector_backward", [("trainer", "projector_backward")]),
    ("neural_core.adam_step", [("trainer", "adam_step")]),
    ("clustering.similarity_features", [("cli", "similarity_features")]),
    ("clustering.kmeans_pp_init", [("clustering", "kmeans_pp_init")]),
    ("clustering.semisup_kmeans", [("cli", "semisup_kmeans"),
                                   ("clustering", "semisup_kmeans")]),
    ("clustering.scan_inertia", [("cli", "scan_inertia")]),
    ("evaluation.split_accuracy", [("cli", "split_accuracy")]),
]

ALLOC_SPANS = {"trainer.train", "clustering.semisup_kmeans"}


class Recorder:
    """Spans and counts of one process, kept in memory until the end."""

    def __init__(self, alloc: bool):
        self.alloc = alloc
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": self.stack[-1] if self.stack else None}
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            measure_alloc = self.alloc and name in ALLOC_SPANS
            if measure_alloc:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if measure_alloc:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.stack.pop()
            if name == "losses.sample_triplets":
                span["triplets"] = len(result)
            elif name == "clustering.semisup_kmeans":
                span["iterations"] = int(result.iterations_run)
            return result

        return wrapper

    def install(self) -> None:
        for name, sites in WRAPPED:
            modules = [importlib.import_module(f"graphgcd.{m}") for m, _ in sites]
            present = [(mod, attr) for mod, (_, attr) in zip(modules, sites)
                       if hasattr(mod, attr)]
            if not present:
                self.missing.append(name)
                continue
            wrappers = {}
            for mod, attr in present:
                fn = getattr(mod, attr)
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(name, fn)
                setattr(mod, attr, wrappers[id(fn)])

    def dump(self, path: str) -> None:
        clustering = importlib.import_module("graphgcd.clustering")
        record = {
            "missing": self.missing,
            "lloyd_cap": getattr(clustering, "MAX_LLOYD_ITERATIONS", 300),
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(record, f)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or "--" not in argv:
        print("usage: tracer.py OUT.json [--alloc] -- <graphgcd arguments>", file=sys.stderr)
        return 2
    split = argv.index("--")
    out, flags, cli_args = argv[0], argv[1:split], argv[split + 1:]
    recorder = Recorder(alloc="--alloc" in flags)
    recorder.install()
    cli = importlib.import_module("graphgcd.cli")
    code = 1
    try:
        code = cli.main(cli_args)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    finally:
        recorder.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
