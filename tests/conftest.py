import numpy as np
import pytest

from blockprod import BlockUpperTriangular, INF_NORM, norm_value


def random_complex(rng, rows, cols, scale=1.0):
    return scale * (
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    )


def random_contracting(rng, m, target=0.9):
    """A random m x m complex matrix scaled so its inf norm is at most target."""
    c = random_complex(rng, m, m)
    val = norm_value(c, INF_NORM)
    if val > 0:
        c *= target * rng.uniform(0.2, 1.0) / val
    return c


def random_block(rng, s, m, bscale=1.0, cnorm=0.9):
    return BlockUpperTriangular(
        s, random_complex(rng, s, m, bscale), random_contracting(rng, m, cnorm)
    )


def gelfand_only_c():
    """Spectral radius 0.5, but only ||C^50|| < 1 shows it, and the Stein
    solve finds no contracting norm."""
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((7, 7)))
    return q @ (0.5 * np.eye(7) + 10.0 * np.eye(7, k=1)) @ q.T


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)


@pytest.fixture
def lu_solves(monkeypatch):
    """The orders of the matrices factored by every private LU solve made
    while the test runs."""
    from blockprod import blockform, matrixcore

    calls = []
    original = matrixcore._solve_right_each

    def counted(bs, ms):
        calls.extend(m.shape[0] for m in ms)
        return original(bs, ms)

    monkeypatch.setattr(matrixcore, "_solve_right_each", counted)
    monkeypatch.setattr(blockform, "_solve_right_each", counted)
    return calls


@pytest.fixture
def stein_solves(monkeypatch):
    """The Stein solves made while the test runs: "schur" for one matrix,
    "assembled" for a set."""
    from blockprod import matrixcore

    calls = []
    for name, label in (("_stein_schur", "schur"), ("_stein_assembled", "assembled")):
        original = getattr(matrixcore, name)

        def counted(arg, original=original, label=label):
            calls.append(label)
            return original(arg)

        monkeypatch.setattr(matrixcore, name, counted)
    return calls


@pytest.fixture
def norm_calls(monkeypatch):
    """The stack lengths of every ``_norms`` call made while the test runs,
    from ``matrixcore`` (certificate checks) or ``analyzer``."""
    from blockprod import analyzer, matrixcore

    calls = []
    original = matrixcore._norms

    def counted(st, kind):
        calls.append(len(st))
        return original(st, kind)

    monkeypatch.setattr(matrixcore, "_norms", counted)
    monkeypatch.setattr(analyzer, "_norms", counted)
    return calls
