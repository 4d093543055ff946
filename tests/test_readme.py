"""Every python block of README.md runs as written."""

import re
from pathlib import Path

import pytest

import multidom as md

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(block, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    exec(compile(block, "README.md", "exec"), {})


def test_tune_c_is_the_readme_value():
    assert round(md.tune_c(5, 1000), 3) == 4.91  # "# threshold constant, 4.910"
