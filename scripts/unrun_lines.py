"""Lines of `src/tiersim/` that no Tier-1 test runs.

    python3 scripts/unrun_lines.py [pytest args]

Needs Python 3.12 or later, for `sys.monitoring`. Runs Tier-1 in this
process (`pytest -q --continue-on-collection-errors`, then any pytest args
given) with a plugin that records each line of `src/tiersim/` the first
time it runs; the callback returns `DISABLE`, so a line costs one call
however often it runs. The executable lines of each module come from the
`co_lines` of every code object compiled from its source, less the line-0
entries a module's code reports.

Prints every executable line that never ran, marking those `ALLOWED`
names, then exits 1 if a test failed or a line outside `ALLOWED` never
ran, and 0 otherwise. An entry of `ALLOWED` is a module's file name and
the stripped text of its line, so it holds while the line moves.
"""

from __future__ import annotations

import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tiersim"

# (file, stripped line text): why no test runs it.
ALLOWED = {
    ("cli.py", "except Exception as exc:  # runtime fault"):
        "the fault handler: a fault is a bug, and no test plants one",
    ("cli.py", 'print(f"fault: {type(exc).__name__}: {exc}", file=sys.stderr)'):
        "the fault handler",
    ("cli.py", "return EXIT_FAULT"): "the fault handler",
    ("cli.py", "sys.exit(main())"):
        "the __main__ guard: tests call main() in-process",
}


def executable_lines(path: Path) -> set[int]:
    """Every line some instruction of the module's code maps to."""
    lines: set[int] = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class LineCollector:
    """A pytest plugin that records the lines of `PACKAGE` that run."""

    def __init__(self) -> None:
        self.prefix = str(PACKAGE) + os.sep
        self.ran: dict[str, set[int]] = {}

    def _line(self, code: types.CodeType, line: int):
        if code.co_filename.startswith(self.prefix):
            self.ran.setdefault(code.co_filename, set()).add(line)
        return sys.monitoring.DISABLE

    def pytest_configure(self, config) -> None:
        if "tiersim" in sys.modules:
            raise RuntimeError("tiersim was imported before lines were traced")
        mon = sys.monitoring
        mon.use_tool_id(mon.COVERAGE_ID, "unrun_lines")
        mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, self._line)
        mon.set_events(mon.COVERAGE_ID, mon.events.LINE)

    def pytest_unconfigure(self, config) -> None:
        mon = sys.monitoring
        mon.set_events(mon.COVERAGE_ID, 0)
        mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, None)
        mon.free_tool_id(mon.COVERAGE_ID)


def main(argv: list[str]) -> int:
    if sys.version_info < (3, 12):
        print("unrun_lines.py needs Python 3.12 or later (sys.monitoring)",
              file=sys.stderr)
        return 2
    import pytest

    os.chdir(ROOT)
    collector = LineCollector()
    status = pytest.main(["-q", "--continue-on-collection-errors", *argv],
                         plugins=[collector])
    imported = Path(sys.modules["tiersim"].__file__).parent
    if imported != PACKAGE:
        print(f"tiersim was imported from {imported}, not {PACKAGE}",
              file=sys.stderr)
        return 2
    unrun = allowed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        ran = collector.ran.get(str(path), set())
        for line in sorted(executable_lines(path) - ran):
            reason = ALLOWED.get((path.name, source[line - 1].strip()))
            allowed += reason is not None
            unrun += reason is None
            print(f"src/tiersim/{path.name}:{line}: "
                  f"{source[line - 1].strip()}"
                  + (f"  [ALLOWED: {reason}]" if reason else ""))
    print(f"{unrun} unrun lines outside the allowlist, {allowed} allowed")
    if status != 0:
        print(f"pytest exited {int(status)}", file=sys.stderr)
    return 1 if unrun or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
