"""One set-up measurement in a fresh process.

Times ``import blockprod`` (with ``blockprod.cli``) plus one warm-up
operation of the workload, excluding input generation, and prints
``{"setup_s": ..., "failed_checks": [...]}`` as its last line.  An operation
that raises or fails its output check is reported in ``failed_checks``, not
by the exit code, so that run.py counts it with the other operations.
Started by run.py, which waits for it.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import blockprod  # noqa: F401
    import blockprod.cli  # noqa: F401

    imported = time.perf_counter() - T0
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    inp = wl.make_input(0)
    t = time.perf_counter()
    try:
        out = wl.run(inp)
    except (Exception, SystemExit) as exc:
        setup = imported + time.perf_counter() - t
        problems = [f"raised {type(exc).__name__}"]
    else:
        setup = imported + time.perf_counter() - t
        try:
            problems = wl.check(inp, out)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}"]
    print(json.dumps({"setup_s": setup, "failed_checks": problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
