"""Traced CLI call: ``python3 perfbench/launcher.py <spans-file> <gwgauss args...>``.

Times ``import gwgauss.cli`` and the command apart, wraps the library's
public functions with the benchmark's tracer, runs the command as the
console entry point would, and writes the spans to ``<spans-file>``.
Exits with the command's exit code.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_path, args = sys.argv[1], sys.argv[2:]
    command = args[0]
    t0 = time.perf_counter()
    import gwgauss.cli

    t1 = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    code = 0
    t2 = time.perf_counter()
    try:
        gwgauss.cli.main.main(args=args, prog_name="gwgauss", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    t3 = time.perf_counter()
    tracer.add_span(f"cli.{command}.import", t0, t1)
    tracer.add_span(f"cli.{command}.work", t2, t3)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
