"""Tests of the benchmark itself: seeded generators, the self-time
arithmetic, span wrapping, failure counting, and output checks that reject
corrupted results.

    python3 -m pytest perfbench
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import blockprod  # noqa: E402
import blockprod.analyzer  # noqa: E402
import blockprod.cli  # noqa: E402
import blockprod.product  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CertifyWorkload, ProductWorkload, StreamWorkload  # noqa: E402


def files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("cls", [ProductWorkload, CertifyWorkload])
def test_file_generators_are_deterministic_per_seed(cls, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d, seed in zip(dirs, (7, 7, 8)):
        d.mkdir()
        cls(seed, d)
    assert files(dirs[0]) == files(dirs[1])
    assert files(dirs[0]) != files(dirs[2])


def test_stream_generator_is_deterministic_per_seed_and_operation(tmp_path):
    def arrays(seed, k):
        return StreamWorkload(seed, tmp_path).make_input(k)

    b1, c1 = arrays(3, 5)
    b2, c2 = arrays(3, 5)
    assert np.array_equal(b1, b2) and np.array_equal(c1, c2)
    assert not np.array_equal(arrays(3, 6)[0], b1)
    assert not np.array_equal(arrays(4, 5)[0], b1)


def test_self_time_subtracts_children_only_once():
    # op [0, 10] -> step [1, 6] -> solve [2, 3], norm [4, 5]; trace_row [7, 9]
    starts = [0, 1, 2, 4, 7]
    ends = [10, 6, 3, 5, 9]
    parents = [-1, 0, 1, 1, 0]
    assert tracing.self_times(starts, ends, parents).tolist() == [3, 3, 1, 1, 2]


def test_tracer_wraps_every_namespace_and_restores(tmp_path):
    original = blockprod.norm_value
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for ns in (blockprod, blockprod.product, blockprod.analyzer, blockprod.cli):
            assert ns.norm_value is not original
            assert ns.norm_value.__wrapped__ is original
        wl = StreamWorkload(1, tmp_path)
        inp = wl.make_input(0)
        wl.run(inp)
        assert tracer.ops == 0 and len(tracer.starts) == 0  # outside operations
        with tracer.operation():
            report = wl.run(inp)
    finally:
        tracer.uninstall()
    assert blockprod.product.norm_value is original
    assert not wl.check(inp, report)
    layers = tracing.layer_metrics(tracer)
    assert layers["product.step.calls"] == wl.n
    assert layers["product.trace_row.calls"] == wl.n
    assert layers["analyzer.analyze.calls"] == 1
    assert layers["blockform.BlockUpperTriangular.calls"] == wl.n
    assert layers["matrixcore.solve_right.repeat_share"] == 0.0
    assert layers["matrixcore.as_matrix.revalidate_share"] == 1.0
    saved = tmp_path / "spans.npz"
    tracer.save(saved)
    with np.load(saved) as spans:
        assert len(spans["starts"]) == len(tracer.starts)


def test_failed_operations_are_counted_once():
    class Flaky:
        steps_per_op = 0

        def make_input(self, k):
            return k

        def run(self, k):
            if k % 2:
                raise ValueError(k)
            return k

        def check(self, k, out):
            return ["wrong"] if k == 2 else []

    result = run.measure(Flaky(), 0, run.Run(), min_ops=4)
    assert (result.attempted, result.failed) == (4, 3)
    assert result.failures == {"raised ValueError": 2, "wrong": 1}
    result.record(["probe.wrong"])
    assert (result.attempted, result.failed) == (5, 4)


def test_stream_check_rejects_corrupted_trace(tmp_path):
    wl = StreamWorkload(2, tmp_path)
    inp = wl.make_input(0)
    report = wl.run(inp)
    assert wl.check(inp, report) == []
    last = report.trace[-1]
    bad_x = dataclasses.replace(report, trace=report.trace[:-1] + (
        last._replace(norm_X=last.norm_X * (1 + 1e-6)),))
    assert wl.check(inp, bad_x) == ["stream.norm_X_matches_explicit_sum"]
    bad_bound = dataclasses.replace(report, trace=report.trace[:-1] + (
        last._replace(bound=last.norm_D / 2),))
    assert wl.check(inp, bad_bound) == ["stream.bound_covers_deviation"]


def test_product_check_rejects_corrupted_output(tmp_path):
    wl = ProductWorkload(3, tmp_path)
    inp = wl.make_input(0)
    code, text = wl.run(inp)
    assert wl.check(inp, (code, text)) == []
    lines = text.splitlines()
    row = lines.index("X:") + 1
    first = lines[row].split(", ")[0]  # "  [<first entry>"
    lines[row] = lines[row].replace(first, "  [(12345+0j)", 1)
    assert wl.check(inp, (code, "\n".join(lines))) == ["product.X_matches_recurrence"]
    failed = text.replace("dense cross-check: OK", "dense cross-check: FAILED")
    assert wl.check(inp, (3, failed)) == [
        "product.exit_code", "product.dense_cross_check"]


def test_certify_check_rejects_corrupted_output(tmp_path):
    wl = CertifyWorkload(4, tmp_path)
    inp = wl.make_input(0)
    out = wl.run(inp)
    assert wl.check(inp, out) == []
    (rc, rcp), *rest = out
    assert wl.check(inp, [(1, rcp), *rest]) == ["certify.rcp_verdict"]
    norm_code, norm_text = rest[2]
    value = workloads.line_value(norm_text, "norm value: ")
    corrupted = norm_text.replace(f"norm value: {value}", "norm value: 1.5")
    assert wl.check(inp, [out[0], rest[0], rest[1], (norm_code, corrupted), rest[3]]) == [
        "certify.lyapunov_norm_below_1"]


def test_certify_blocks_exceed_one_in_every_builtin_norm(tmp_path):
    wl = CertifyWorkload(5, tmp_path)
    rng = np.random.default_rng(0)
    cs = wl._c_blocks(rng)
    for norm in blockprod.BUILTIN_NORMS:
        assert max(blockprod.norm_value(c, norm) for c in cs) >= 1.0
