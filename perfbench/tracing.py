"""Span tracing of blockprod's public functions, from outside the library.

`Tracer.install()` replaces each traced function with a wrapper in every
blockprod module namespace that binds it (so `product.norm_value`,
`analyzer.norm_value` and `cli.norm_value` are all covered), and patches the
two traced `BlockUpperTriangular` methods on the class.  `uninstall()` puts
the originals back.  Spans are recorded only inside an operation opened with
`Tracer.operation()`; they are kept in flat in-memory arrays and can be
written out with `save()`.

Besides spans, three wrappers count an input property at the boundary:

- `as_matrix`: the argument was already a 2-D complex128 ndarray, so the
  coercion and finiteness scan were redundant (`revalidate_share`);
- `solve_right`: the factor matrix was already solved against earlier in the
  same operation, by content (`repeat_share`);
- `uniform_certificate`: a built-in norm answered the search, i.e. it
  returned a certificate of kind "declared" (`builtin_share`).
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

OP_SPAN = "op"

#: (module, attribute) of every traced callable; a dotted attribute is a
#: method patched on its class.
TRACED = (
    ("matrixcore", "as_matrix"),
    ("matrixcore", "norm_value"),
    ("matrixcore", "solve_right"),
    ("matrixcore", "lyapunov_scaling"),
    ("matrixcore", "spectral_certificate"),
    ("matrixcore", "lyapunov_norm"),
    ("blockform", "BlockUpperTriangular.__init__"),
    ("blockform", "BlockUpperTriangular.to_dense"),
    ("product", "step"),
    ("product", "trace_row"),
    ("product", "dense_partial_product"),
    ("analyzer", "analyze"),
    ("analyzer", "uniform_certificate"),
    ("analyzer", "cycle_accumulation_points"),
    ("analyzer", "certify_rcp"),
    ("seqfile", "parse_sequence_file"),
    ("seqfile", "parse_matrix_file"),
    ("seqfile", "fmt_matrix"),
    ("cli", "main"),
)

MODULES = ("matrixcore", "blockform", "product", "analyzer", "seqfile", "cli")

#: span names that differ from "<module>.<attribute>"
_SPAN_NAMES = {
    "BlockUpperTriangular.__init__": "blockform.BlockUpperTriangular",
    "BlockUpperTriangular.to_dense": "blockform.to_dense",
}
LYAPUNOV_NORM_VALUE = "matrixcore.norm_value.lyapunov"


def span_name(module: str, attr: str) -> str:
    return _SPAN_NAMES.get(attr, f"{module}.{attr}")


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so children of one parent never overlap and
    the covered time is the sum of their durations.  ``parents[i]`` is the
    index of span i's parent, or -1 for a root.
    """
    starts = np.asarray(starts, dtype=float)
    dur = np.asarray(ends, dtype=float) - starts
    parents = np.asarray(parents, dtype=np.int64)
    has_parent = parents >= 0
    child = np.bincount(
        parents[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    return dur - child


class Tracer:
    """In-memory span recorder for the blockprod package."""

    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self._name_ids = {OP_SPAN: 0}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.op_ids = array("i")
        self.counts: dict[str, int] = {}
        self.ops = 0
        self._stack: list[int] = []
        self._op = -1
        self._seen: set[bytes] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self._op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    @contextmanager
    def operation(self):
        """Open one operation: a root span whose id tags every child span."""
        self._op = self.ops
        self._seen = set()
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)
            self._op = -1
            self.ops += 1

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        tracer = self

        if name == "matrixcore.as_matrix":

            def before(args, kwargs):
                data = args[0] if args else kwargs.get("data")
                if (
                    isinstance(data, np.ndarray)
                    and data.ndim == 2
                    and data.dtype == np.complex128
                ):
                    tracer.count("matrixcore.as_matrix.already_complex2d")
                return nid

        elif name == "matrixcore.norm_value":
            lyap_id = self._name_id(LYAPUNOV_NORM_VALUE)

            def before(args, kwargs):
                kind = args[1] if len(args) > 1 else kwargs.get("kind")
                return lyap_id if getattr(kind, "kind", None) == "lyapunov" else nid

        elif name == "matrixcore.solve_right":

            def before(args, kwargs):
                m = args[1] if len(args) > 1 else kwargs.get("m")
                key = np.asarray(m).tobytes()
                if key in tracer._seen:
                    tracer.count("matrixcore.solve_right.repeat")
                else:
                    tracer._seen.add(key)
                return nid

        else:

            def before(args, kwargs):
                return nid

        is_uniform = name == "analyzer.uniform_certificate"

        def wrapper(*args, **kwargs):
            if tracer._op < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(before(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if is_uniform and result is not None and result.kind == "declared":
                tracer.count("analyzer.uniform_certificate.builtin")
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        import blockprod

        mods = {name: importlib.import_module(f"blockprod.{name}") for name in MODULES}
        namespaces = [blockprod, *mods.values()]
        for module, attr in TRACED:
            name = span_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[module], cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(mods[module], attr)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def save(self, path) -> None:
        """Write every recorded span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            op_ids=np.frombuffer(self.op_ids, dtype=np.int32),
        )

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Total (calls, self seconds) per span name over all operations."""
        selfs = self_times(self.starts, self.ends, self.parents)
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        calls = np.bincount(ids, minlength=len(self.names))
        secs = np.bincount(ids, weights=selfs, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(secs[i])) for i, name in enumerate(self.names)
        }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-operation calls and self seconds, and the three share ratios.

    Every ratio is reported next to its base: ``revalidate_share`` over
    ``as_matrix.calls``, ``repeat_share`` over ``solve_right.calls`` and
    ``builtin_share`` over ``uniform_certificate.calls``.  A ratio whose base
    is zero reads 0.
    """
    ops = max(tracer.ops, 1)
    totals = tracer.layer_totals()

    def total(name):
        return totals.get(name, (0, 0.0))

    lyap_calls, lyap_self = total(LYAPUNOV_NORM_VALUE)
    nv_calls, nv_self = total("matrixcore.norm_value")
    merged = dict(totals)
    merged["matrixcore.norm_value"] = (nv_calls + lyap_calls, nv_self + lyap_self)

    out: dict[str, float] = {}
    for module, attr in TRACED:
        name = span_name(module, attr)
        calls, secs = merged.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls / ops
        out[f"{name}.self_s"] = secs / ops
    out[f"{LYAPUNOV_NORM_VALUE}.calls"] = lyap_calls / ops
    out[f"{LYAPUNOV_NORM_VALUE}.self_s"] = lyap_self / ops

    def share(key, base):
        n = merged.get(base, (0, 0.0))[0]
        return tracer.counts.get(key, 0) / n if n else 0.0

    out["matrixcore.as_matrix.revalidate_share"] = share(
        "matrixcore.as_matrix.already_complex2d", "matrixcore.as_matrix"
    )
    out["matrixcore.solve_right.repeat_share"] = share(
        "matrixcore.solve_right.repeat", "matrixcore.solve_right"
    )
    out["analyzer.uniform_certificate.builtin_share"] = share(
        "analyzer.uniform_certificate.builtin", "analyzer.uniform_certificate"
    )
    out["bench.op.self_s"] = total(OP_SPAN)[1] / ops
    return out
