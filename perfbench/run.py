"""blockprod benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload stream|product|certify \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  One process drives one client in
a closed loop: each operation starts when the previous one (and its output
check) has finished.  BLAS and OpenMP are pinned to one thread.

--trace 0 prints the end-to-end metrics:

- setup_s: median over ten fresh processes of importing blockprod and
  finishing one warm-up operation (input generation excluded);
- ops_per_s: operations per busy second (time spent inside operations)
  sustained in nine tenths of the run: the 10th percentile over 20 equal
  consecutive blocks of operations;
- op_p90_ms: 90th-percentile latency over every operation of the run (at
  least 100, so at least ten samples lie beyond it);
- peak_rss_mb: peak resident set size of the benchmark process.

On the shared 2-vCPU virtual machine this was tuned on, single-thread speed
switches between a fast and a slow state every few tens of seconds, up to a
factor of two apart.  Statistics in the middle
of the latency distribution then depend on how a run happens to split
between the two states, so op_p50_ms and the mean throughput (steps_per_s)
are printed but not part of the result; the slow-side statistics above are.
Pairs of set-up probes alternate with five measurement segments so that
both sample the whole run.  The probes' wall time comes out of the run's
--seconds, so a run lasts about as long whatever set-up costs.

--trace 1 alternates five untraced and five traced segments and prints the
per-layer split from the traced ones (see tracing.py), the tracing overhead
as untraced over traced ops_per_s, and the step yardstick: step time over
the bare recurrence X = B + X C on the same factors.  End-to-end metrics
come only from --trace 0 runs.

Human-readable lines come first; the last line is one JSON object with keys
correct, attempted, failed and metrics.  Every operation is attempted and
checked once, the warm-up and set-up probe operations included; any that
raises, exits wrongly or fails its output check is counted in failed and
makes the run incorrect, and is never retried.  A set-up probe that dies
before reporting counts as failed, with its wall time as its sample.  Exits
non-zero without a result when the checkout has no blockprod sources.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 100
BLOCKS = 20
SEGMENTS = 5
PROBES_PER_SEGMENT = 2
WARMUP_OPS = 2
YARDSTICK_OPS = 4
YARDSTICK_REPEATS = 5
PROBE_TIMEOUT_S = 120


def import_blockprod():
    """Import blockprod from this checkout's src/, or exit non-zero."""
    if not (SRC / "blockprod" / "__init__.py").is_file():
        sys.exit(f"error: no blockprod sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import blockprod

    if Path(blockprod.__file__).resolve().parent != SRC / "blockprod":
        sys.exit(f"error: imported blockprod from {blockprod.__file__}, not {SRC}")
    return blockprod


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


class Run:
    """Latencies and outcomes of the operations measured in one run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.steps = 0
        self.attempted = 0
        self.failed = 0
        self.failures: Counter[str] = Counter()

    def record(self, problems: list[str]) -> None:
        """Count one attempted operation and the checks it failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.update(problems)

    def busy(self) -> float:
        return sum(self.latencies)

    def block_rates(self) -> list[float]:
        """Operations per busy second in each of BLOCKS consecutive,
        equally sized groups of operations."""
        lat = self.latencies
        edges = [round(i * len(lat) / BLOCKS) for i in range(BLOCKS + 1)]
        return [
            (hi - lo) / sum(lat[lo:hi]) for lo, hi in zip(edges, edges[1:]) if hi > lo
        ]

    def ops_per_s(self) -> float:
        """Throughput sustained in nine tenths of the run: the 10th
        percentile of the block rates."""
        return statistics.quantiles(self.block_rates(), n=10)[0]


def measure(wl, seconds: float, run: Run, tracer=None, min_ops: int = 0) -> Run:
    """Run operations back to back into *run* for *seconds*, and on until
    *run* holds at least *min_ops* operations.

    Input generation and output checks happen outside the timed region.
    """
    begin = time.perf_counter()
    k = run.attempted
    while time.perf_counter() - begin < seconds or run.attempted < min_ops:
        inp = wl.make_input(k)
        k += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(inp)
            else:
                with tracer.operation():
                    out = wl.run(inp)
        except (Exception, SystemExit) as exc:
            problems = [f"raised {type(exc).__name__}"]
            t1 = time.perf_counter()
        else:
            t1 = time.perf_counter()
            try:
                problems = wl.check(inp, out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}"]
        run.latencies.append(t1 - t0)
        run.steps += wl.steps_per_op
        run.record(problems)
    return run


def setup_time(workload: str, seed: int, workdir: Path) -> tuple[float, list[str]]:
    """Set-up seconds measured by one fresh probe process, and the checks
    its operation failed."""
    t = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), "--workload", workload,
             "--seed", str(seed), "--workdir", str(workdir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t, ["probe.timeout"]
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return time.perf_counter() - t, [f"probe.exit_{proc.returncode}"]
    result = json.loads(lines[-1])
    return result["setup_s"], [f"probe.{p}" for p in result["failed_checks"]]


def percentile_ms(latencies: list[float], q: int) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3


def yardstick(wl, blockprod) -> tuple[float, float]:
    """Per-step seconds of `step` and of the bare recurrence X = B + X C.

    Both loops run untraced over the same factor sequences, alternating, and
    each figure is the median over repeats.
    """
    import numpy as np

    seqs = []
    for k in range(YARDSTICK_OPS):
        inp = wl.make_input(k)
        if wl.name == "stream":
            seqs.append((list(wl.factors(inp)), wl.cert))
        else:
            members = [blockprod.BlockUpperTriangular(wl.s, b, c) for b, c in inp[1]]
            seq = [members[i % len(members)] for i in range(wl.n)]
            seqs.append((seq, blockprod.uniform_certificate([a.c for a in members])))
    step_t, bare_t = [], []
    steps = sum(len(seq) for seq, _ in seqs)
    for _ in range(YARDSTICK_REPEATS):
        t = time.perf_counter()
        for seq, cert in seqs:
            state = blockprod.initial_state(seq[0].s, seq[0].csize)
            for a in seq:
                state = blockprod.step(state, a, cert)
        step_t.append((time.perf_counter() - t) / steps)
        t = time.perf_counter()
        for seq, _ in seqs:
            x = np.zeros_like(seq[0].b)
            for a in seq:
                x = a.b + x @ a.c
        bare_t.append((time.perf_counter() - t) / steps)
    return statistics.median(step_t), statistics.median(bare_t)


def report(lines: list[str], name: str, value: float, unit: str) -> dict:
    lines.append(f"{name} = {value:.6g} {unit}")
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    blockprod = import_blockprod()
    import blockprod.cli  # noqa: F401
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    lines = [f"environment: {json.dumps(environment(), sort_keys=True)}"]
    lines.append(f"workload: {args.workload} seed={args.seed} seconds={args.seconds}")
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work"))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        metrics = {}
        # warm-up and set-up probe operations: checked and counted, not timed
        unmeasured = measure(wl, 0, Run(), min_ops=WARMUP_OPS)
        segment = args.seconds / SEGMENTS
        if args.trace == 0:
            # set-up probes alternate with measurement segments, so that both
            # sample the whole run
            run, setup = Run(), []
            segment_end = time.perf_counter()
            for i in range(SEGMENTS):
                for _ in range(PROBES_PER_SEGMENT):
                    seconds, problems = setup_time(args.workload, args.seed, workdir)
                    setup.append(seconds)
                    unmeasured.record(problems)
                segment_end += segment
                measure(wl, segment_end - time.perf_counter(), run,
                        min_ops=MIN_OPS if i == SEGMENTS - 1 else 0)
            metrics["setup_s"] = report(lines, "setup_s", statistics.median(setup), "s")
            metrics["ops_per_s"] = report(lines, "ops_per_s", run.ops_per_s(), "1/s")
            lines.append(f"op_p50_ms = {percentile_ms(run.latencies, 50):.6g} ms")
            metrics["op_p90_ms"] = report(
                lines, "op_p90_ms", percentile_ms(run.latencies, 90), "ms")
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics["peak_rss_mb"] = report(lines, "peak_rss_mb", rss_mb, "MB")
            lines.append(f"setup samples (s): {setup}")
            if run.steps:
                lines.append(f"steps_per_s = {run.steps / run.busy():.6g} 1/s")
            runs = [run]
        else:
            # untraced and traced segments alternate, so that the overhead
            # ratio compares like with like
            untraced, traced, tracer = Run(), Run(), tracing.Tracer()
            for i in range(SEGMENTS):
                measure(wl, segment / 2, untraced)
                tracer.install()
                try:
                    measure(wl, segment / 2, traced, tracer)
                finally:
                    tracer.uninstall()
            (HERE / "_out").mkdir(exist_ok=True)
            tracer.save(HERE / "_out" / f"spans_{args.workload}.npz")
            runs = [untraced, traced]
            for name, value in tracing.layer_metrics(tracer).items():
                unit = "s/op" if name.endswith("_s") else (
                    "ratio" if name.endswith("_share") else "calls/op")
                metrics[name] = report(lines, name, value, unit)
            step_s, bare_s = yardstick(wl, blockprod) if wl.steps_per_op else (0.0, 0.0)
            metrics["product.step.wall_s"] = report(
                lines, "product.step.wall_s", step_s, "s/step")
            metrics["product.step.bare_s"] = report(
                lines, "product.step.bare_s", bare_s, "s/step")
            metrics["product.step.bare_ratio"] = report(
                lines, "product.step.bare_ratio",
                step_s / bare_s if bare_s else 0.0, "ratio")
            u_rate, t_rate = untraced.ops_per_s(), traced.ops_per_s()
            metrics["trace.untraced_ops_per_s"] = report(
                lines, "trace.untraced_ops_per_s", u_rate, "1/s")
            metrics["trace.traced_ops_per_s"] = report(
                lines, "trace.traced_ops_per_s", t_rate, "1/s")
            metrics["trace.overhead_ratio"] = report(
                lines, "trace.overhead_ratio", u_rate / t_rate, "ratio")
        lines.append("samples = " + ", ".join(f"{r.attempted}" for r in runs)
                     + " operations" + (" (untraced, traced)" if len(runs) > 1 else "")
                     + f", plus {unmeasured.attempted} warm-up and set-up")
        runs.append(unmeasured)
        attempted = sum(r.attempted for r in runs)
        failed = sum(r.failed for r in runs)
        failures = sum((r.failures for r in runs), Counter())
        lines.append(
            f"error_rate = {failed / attempted:.6g} ({failed}/{attempted}); "
            f"failed checks: {dict(failures) or 'none'}"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
