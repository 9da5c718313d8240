"""tiersim benchmark entry point. Run it from the root of a tiersim checkout:

    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

The simulator is imported from the checkout's own `src/`, never from an
installed copy; without that source the benchmark exits with code 2 and
prints no result. Options and output are described in measure.py and
README.md.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main() -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "tiersim" / "__init__.py").is_file():
        print(f"perfbench: no simulator source under {src}; run from the root "
              f"of a tiersim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import measure
    return measure.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
