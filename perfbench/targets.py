"""Seeded benchmark inputs, drawn with numpy's PCG64 in the benchmark's own code.

The benchmark does not use ``posfactor.rng``, so a change to that module cannot
shift the workloads.  Every input is addressed by ``(seed, *path)``: the same
seed and path always give the same matrix, whatever else was drawn before.
"""

from __future__ import annotations

import numpy as np

# Seed kept out of every tuning run; a later performance claim must also hold
# on it (see perfbench/README.md).
HELD_OUT_SEED = 90017

COND = 10.0  # condition-number ceiling of the general and definite targets


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent PCG64 generator for one input slot."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))


def _gaussian(g: np.random.Generator, n: int) -> np.ndarray:
    return (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / np.sqrt(2.0)


def _haar(g: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(g, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _spectrum(g: np.random.Generator, n: int, cond: float) -> np.ndarray:
    """Values in [1/cond, 1] with the largest pinned to 1."""
    s = np.exp(g.uniform(-np.log(cond), 0.0, size=n))
    s[g.integers(0, n)] = 1.0
    return s


def det_positive(g: np.random.Generator, n: int, cond: float = COND) -> np.ndarray:
    """General matrix with norm 1, condition number <= cond and det > 0."""
    x = (_haar(g, n) * _spectrum(g, n, cond)) @ _haar(g, n).conj().T
    return x * np.exp(-1j * np.angle(np.linalg.det(x)) / n)


def det_negative(g: np.random.Generator, n: int, cond: float = COND) -> np.ndarray:
    """Like :func:`det_positive`, with one column negated so that det < 0."""
    x = det_positive(g, n, cond)
    x[:, 0] = -x[:, 0]
    return x


def special_unitary(g: np.random.Generator, n: int) -> np.ndarray:
    """Haar unitary rotated by a global phase so that det = 1."""
    u = _haar(g, n)
    return u * np.exp(-1j * np.angle(np.linalg.det(u)) / n)


def positive_definite(g: np.random.Generator, n: int, cond: float = COND) -> np.ndarray:
    """Hermitian positive definite matrix with norm 1 and condition <= cond."""
    q = _haar(g, n)
    p = (q * _spectrum(g, n, cond)) @ q.conj().T
    return (p + p.conj().T) / 2.0


def matrix_json(x: np.ndarray) -> dict:
    """The CLI's matrix file layout: {"n": n, "entries": [[re, im], ...]}, row-major."""
    return {"n": int(x.shape[0]), "entries": [[float(z.real), float(z.imag)] for z in x.ravel()]}
