"""Check every pinned report digest without pytest.

    python3 scripts/check_digests.py

Re-runs each golden case (`CASES` against `GOLDEN` in tests/test_golden.py),
each `--t-end` report and latency dump (`T_END_GOLDEN` there), and each
corpus case (`corpus()` against tests/corpus_digests.json in
tests/test_corpus.py), with the data log off and then on, prints every
digest that moved, and exits 1 if any did, else 0. It needs only the
standard library, so it checks the digests on any Python the simulator
supports, including one without the test extras.
"""

from __future__ import annotations

import functools
import json
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_corpus  # noqa: E402
import test_golden  # noqa: E402
from tiersim import cli  # noqa: E402
from tiersim.system import System  # noqa: E402


def moved_digests(tmp: Path) -> tuple[list[str], int]:
    """One line per digest that moved, and the number of digests checked."""
    with open(test_corpus.DIGESTS_PATH, encoding="utf-8") as fh:
        pinned_corpus = json.load(fh)
    moved: list[str] = []
    checked = 0
    real_system = cli.System
    try:
        for record_log in (False, True):
            cli.System = functools.partial(System, record_log=record_log)
            golden = {name: test_golden._digest(test_golden._report(name, tmp))
                      for name in test_golden.CASES}
            t_end = {name: test_golden._t_end_digests(name, tmp)
                     for name in test_golden.T_END_GOLDEN}
            corpus = test_corpus.digests(str(tmp / "report.json"))
            for suite, got, pinned in (("golden", golden, test_golden.GOLDEN),
                                       ("t-end", t_end, test_golden.T_END_GOLDEN),
                                       ("corpus", corpus, pinned_corpus)):
                for name in sorted(got.keys() | pinned.keys()):
                    checked += 1
                    if got.get(name) != pinned.get(name):
                        moved.append(f"{suite} {name} record_log={record_log}: "
                                     f"pinned {pinned.get(name)}, got {got.get(name)}")
    finally:
        cli.System = real_system
    return moved, checked


def main() -> int:
    warnings.simplefilter("ignore")   # fig36's interrupt-controller warning
    with tempfile.TemporaryDirectory() as tmp:
        moved, checked = moved_digests(Path(tmp))
    for line in moved:
        print(line)
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"Python {version}: {len(moved)} of {checked} digests moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
