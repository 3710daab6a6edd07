"""One set-up measurement in a fresh interpreter.

Reads the warm-up queries as JSON from stdin, then times the import of
logicrel.cli plus one run() of each warm-up query, and prints the seconds.
Run by run.py as `python3 perfbench/setup_probe.py` from the checkout root.
"""

import io
import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    warmup = json.load(sys.stdin)
    t0 = perf_counter()
    from logicrel.cli import run

    for argv, stdin in warmup:
        run(argv, io.StringIO(stdin) if stdin is not None else None)
    print(perf_counter() - t0)


if __name__ == "__main__":
    main()
