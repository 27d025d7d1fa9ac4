"""Line coverage of the test suite over src/ivp/, with the stdlib only.

Run from the repository root:

    python tests/line_coverage.py [pytest arguments, default tests/]

It runs pytest in this process under a sys.settrace collector that
follows only frames of modules in src/ivp/, then prints, per module, the
count of executable lines that ran and the line numbers that never did.
Executable lines are those of every code object compiled from the
module.  Tracing slows the suite several times over, so the run selects
the no_deadline hypothesis profile registered in tests/conftest.py.
The file name keeps pytest from collecting it.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ivp"


def executable_lines(path: Path) -> set[int]:
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines: list[int]) -> str:
    """1, 2, 3, 7 as '1-3, 7'."""
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def main(argv: list[str]) -> int:
    package = str(PACKAGE)
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def collector(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(package):
            return None
        hits.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest
    sys.settrace(collector)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors",
                            "--hypothesis-profile", "no_deadline",
                            *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
    total_run = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - hits.get(str(path), set()))
        total += len(lines)
        total_run += len(lines) - len(missed)
        print(f"{path.name}: {len(lines) - len(missed)}/{len(lines)} lines run"
              + (f"; never: {ranges(missed)}" if missed else ""))
    print(f"total: {total_run}/{total} lines run")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
