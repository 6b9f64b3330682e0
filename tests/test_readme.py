"""The README's "Library use" code block runs as written."""

from __future__ import annotations

import pathlib
import re

from rashpdp.data import save_csv
from rashpdp.synthetic import make_friedman

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    save_csv(make_friedman(n_rows=120, seed=0), tmp_path / "data.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use_block(), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == ["x1", "x3"]
