"""Every python block of README.md runs as written, and so does its CLI
walk-through; its tables match the code."""

import json
import re
import shlex
from pathlib import Path

import pytest

import multidom as md
from helpers import cached_functions, package_attribute
from multidom.cli import main, parse_spec

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
CLI_BLOCK = next(b for b in re.findall(r"^```bash\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
                 if "multidom gen" in b)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(block, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    exec(compile(block, "README.md", "exec"), {})


def test_tune_c_is_the_readme_value():
    assert round(md.tune_c(5, 1000), 3) == 4.91  # "# threshold constant, 4.910"


def test_cli_block_runs(capsys, monkeypatch, tmp_path):
    """Each `multidom ...` line through cli.main and the `python -c` witness
    step, in order, in one directory; the verify report must be valid."""
    monkeypatch.chdir(tmp_path)
    commands = [line for line in CLI_BLOCK.splitlines() if line and not line.startswith("#")]
    assert any(line.startswith("multidom verify") for line in commands)
    for line in commands:
        argv = shlex.split(line)
        if argv[:2] == ["python", "-c"]:
            exec(compile(argv[2], "README.md", "exec"), {})
            continue
        assert argv[0] == "multidom", line
        capsys.readouterr()
        assert main(argv[1:]) == 0, line
        if argv[1] == "verify":
            report = json.loads(capsys.readouterr().out)
            assert report["valid"] is True and not report["deficiencies"]


def _catalogue_rows():
    """(spec label, reports, reports with --c) for each row of the README's
    bound catalogue table."""
    section = README.split("## Bound catalogue", 1)[1].split("\n## ", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    return [tuple(re.findall(r"`([^`]+)`", cell) for cell in row) for row in rows]


def test_bound_catalogue_table_is_what_bounds_for_spec_reports(tmp_path):
    (tmp_path / "r.txt").write_text("1 2 1 2 1")
    (tmp_path / "s.txt").write_text("1 1 2 1 1")
    rows = _catalogue_rows()
    assert [label for (label,), _, _ in rows] == [
        "classical", "kdom:K", "ktuple:K", "totalk:K", "param:K,L", "bracek:K", "rs:R,S",
        "totalrs:R,S"]
    for (label,), names, names_with_c in rows:
        text = (label.replace("K,L", "1,3").replace(":K", ":2")
                .replace("R,S", f"{tmp_path / 'r.txt'},{tmp_path / 's.txt'}"))
        spec = parse_spec(text)
        assert [r.name for r in md.bounds_for_spec(spec, 3, 5, force=True)] == names, label
        reports = md.bounds_for_spec(spec, 3, 5, c=3.0, force=True)
        assert [r.name for r in reports] == names_with_c, label


def _cache_rows() -> list[list[str]]:
    """The cells of each row of the "Caches and fast paths" table."""
    section = README.split("## Caches and fast paths", 1)[1].split("\n#", 1)[0]
    return [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]


def test_cache_table_lists_every_cache_in_the_code():
    """The rows of "Caches and fast paths" whose kind is a functools cache
    name exactly the cached functions of the package."""
    listed = {re.search(r"`([^`]+)`", row[0])[1] for row in _cache_rows()
              if "`functools." in row[1]}
    assert listed == cached_functions()


@pytest.mark.parametrize("row", _cache_rows(), ids=lambda row: row[0].strip("| `"))
def test_each_cache_table_row_names_code_in_the_package(row):
    package_attribute(re.search(r"`([^`]+)`", row[0])[1])


def test_the_feasibility_row_states_when_the_shortcut_answers(monkeypatch):
    """The feasibility row's condition, τ·(δ + closed + shift) ≥ max s,
    holds exactly when feasibility answers without the guaranteed witness."""
    row = next(row for row in _cache_rows() if "`verify.DominationSpec.feasibility`" in row[0])
    assert "τ·(δ + closed + shift) ≥ max s for every variant" in row[2]
    peeled = []
    real = md.verify._guaranteed_witness
    monkeypatch.setattr(md.verify, "_guaranteed_witness",
                        lambda g, spec: peeled.append(spec) or real(g, spec))
    specs = [md.DominationSpec.classical(), md.DominationSpec.k_dominating(2),
             md.DominationSpec.k_tuple(2), md.DominationSpec.total_k(2),
             md.DominationSpec.parametric(1, 3), md.DominationSpec.brace_k(2)]
    for g in (md.path(4), md.cycle(5), md.complete(4), md.gnp(8, 0.5, 1)):
        caps = [1 + v % 3 for v in range(g.n)]
        for spec in specs + [md.DominationSpec.rs(caps, [3] * g.n),
                             md.DominationSpec.total_rs(caps, [2] * g.n)]:
            closed, shift, _, _ = spec.model(g.n)
            tau, s, _ = spec.cap_summary(g.n)
            peeled.clear()
            spec.feasibility(g)
            assert (peeled == []) == (tau * (g.min_degree + closed + shift) >= s), spec.label()
