"""List the lines of src/multidom that the test suite never runs.

Runs ``pytest -q tests`` in this process under sys.settrace and
threading.settrace, recording each line executed in src/multidom. A
module's executable lines are the line numbers of its code objects, read
from co_lines(). Every executable line that never ran is printed, and the
script exits 1 if one of them is not in ALLOWED. It exits with pytest's
own status if the tests fail.

ALLOWED is keyed by the stripped source text of a line, not its number,
so that edits elsewhere in a module do not move it. perfbench's tests run
the program in subprocesses, which this tracer cannot see, so they are
left out.

Usage, from the root of the repository:

    PYTHONPATH=src python tools/reach.py

Under ``python -O`` the same run also tests the code with every assert
outside the test modules stripped; the CI job runs it that way.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "multidom"

# Lines no test reaches, each for a stated reason.
ALLOWED = {
    # an internal guard: the (l-1)-core of a feasible instance meets its own demand
    ("oracle.py",
     'raise MultidomError("internal: the (l-1)-core of G should satisfy any feasible set spec")'),
    # runs only as python -m multidom.cli, which the tests start in a subprocess
    ("cli.py", "sys.exit(main())"),
}


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every instruction in the module's code objects."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no line
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and the lines run in each file under SRC."""
    prefix = str(SRC) + "/"
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen.setdefault(filename, set())
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), seen


def main() -> int:
    status, seen = run_traced(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    if status != 0:
        print(f"reach: the tests failed (pytest exit status {status})")
        return status
    unreached = []
    total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(lines - seen.get(str(path), set())):
            text = source[line - 1].strip()
            unreached.append((path.name, line, text, (path.name, text) in ALLOWED))
    print(f"reach: {len(unreached)} of {total} executable lines in src/multidom never ran")
    for name, line, text, allowed in unreached:
        print(f"  {name}:{line}: {text}{'  (allowed)' if allowed else ''}")
    return 0 if all(allowed for *_, allowed in unreached) else 1


if __name__ == "__main__":
    sys.exit(main())
