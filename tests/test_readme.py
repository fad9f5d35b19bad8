"""The README's library example runs as written, its Quick start prints what run-all
prints, it names only real CLI flags, and its `train` table lists every RunConfig field."""

import dataclasses
import re
from pathlib import Path

from graphgcd import cli
from graphgcd.embed_io import RunConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use") :]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library use", "exec"), {})
    accuracies = [float(v) for v in capsys.readouterr().out.split()]
    assert len(accuracies) == 3
    assert all(0.0 <= a <= 1.0 for a in accuracies)


def test_readme_quick_start_prints_what_run_all_prints(tmp_path, capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start") : text.index("## Subcommands")]
    documented = re.findall(r"^acc_[a-z]+ \S+$", section, re.MULTILINE)
    assert cli.main(["run-all", "--synthetic", "--seed", "0", "--out-dir", str(tmp_path)]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("acc_")]
    assert len(documented) == 3
    assert printed == documented


def test_readme_flags_exist():
    # from Quick start on, every --flag belongs to graphgcd (the install
    # section above it names pip's flags)
    text = README.read_text(encoding="utf-8")
    named = set(re.findall(r"--[a-z][a-z0-9-]*", text[text.index("## Quick start") :]))
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if a.choices and "run-all" in a.choices]
    known = {flag for p in sub.choices.values() for a in p._actions for flag in a.option_strings}
    assert named and not named - known, sorted(named - known)


def test_readme_train_table_lists_every_run_config_field():
    # one row per RunConfig field, with the train flag that sets it and its default
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### train") : text.index("### cluster")]
    rows = re.findall(r"^\| `(--[a-z-]+)` \| `([a-z_]+)` \| ([^|]+) \|$", section, re.MULTILINE)
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if a.choices and "train" in a.choices]
    flags = {a.dest: a.option_strings[0] for a in sub.choices["train"]._actions}
    fields = dataclasses.fields(RunConfig)
    assert [name for _, name, _ in rows] == [f.name for f in fields]
    for (flag, name, default), f in zip(rows, fields):
        assert flag == flags[name], name
        assert default.split()[0] == str(f.default), name
