"""Small Hermitian/PSD helpers shared across the package.

Everything funnels through numpy's symmetric eigensolver.  The helpers
are written so that exact fixed points stay exact: ``op_norm`` of an
identity matrix is 1.0 to the bit, and ``psd_sqrt`` of the identity is
the identity, because ``eigh`` reproduces both exactly.

``op_norms`` solves each run of adjacent, bit-identical matrices of a
stack once.  Dyadic tables are full of such runs (every cell of a level
gets the same band mass, so cells away from the atoms repeat their
neighbour), and the result is bit-exact because numpy solves each matrix
of a stack independently of the others.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateWeightError, NotPSDError

#: Relative eigenvalue tolerance below which a matrix is rejected as not PSD.
PSD_NEG_TOL = 1e-10
#: Relative eigenvalue floor under which a PSD matrix is treated as singular.
PSD_FLOOR = 1e-12


def hermitize(matrix: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix (m^H + m) / 2 per matrix, formed in one copy."""
    m = np.asarray(matrix)
    h = np.conj(m.swapaxes(-1, -2), order="C", dtype=np.result_type(m, 0.5))
    h += m
    h *= 0.5
    return h


def op_norms(stack: np.ndarray) -> np.ndarray:
    """Operator (spectral) norms of a stack of square matrices, shape (n, d, d).

    Each run of adjacent matrices with the same bits is solved once and
    its norm repeated over the run.  Rows are compared as 64-bit words,
    not by value, since -0.0 == 0.0 and NaN != NaN while the norm follows
    the bits.  This is bit-exact: the solvers below treat every matrix of
    a stack on its own, so a norm does not depend on its neighbours.

    Exactly Hermitian matrices take one stacked ``eigvalsh`` (the identity
    gives 1.0 exactly) and max(top, -bottom) of their eigenvalues, top
    winning a tie so signed zeros stay; the others take the top singular value.
    """
    s = np.asarray(stack)
    n = len(s)
    rows = np.ascontiguousarray(s).reshape(n, s.shape[1] * s.shape[2])
    words = rows.view(np.uint64 if s.itemsize % 8 == 0 else np.uint8)
    # row i starts a run unless its bits are those of row i - 1
    starts = np.ones(n, dtype=bool)
    starts[1:] = (words[1:] != words[:-1]).any(axis=1)
    if starts.all():
        return _spectral_norms(s)
    return np.repeat(_spectral_norms(s[starts]), np.diff(np.flatnonzero(starts), append=n))


def _spectral_norms(s: np.ndarray) -> np.ndarray:
    """The Hermitian/SVD split of :func:`op_norms`, one solve per matrix."""
    t = s.swapaxes(-1, -2)
    # s == conj(t) part by part, without a conjugated copy of the stack
    hermitian = np.all((s.real == t.real) & (s.imag == -t.imag), axis=(-2, -1))
    if hermitian.all():
        vals = np.linalg.eigvalsh(s)
        top, low = vals[:, -1], -vals[:, 0]
        return np.where(low > top, low, top)
    norms = np.empty(len(s))
    norms[hermitian] = _spectral_norms(s[hermitian])
    norms[~hermitian] = np.linalg.svd(s[~hermitian], compute_uv=False)[:, 0]
    return norms


def op_norm(matrix: np.ndarray) -> float:
    """Operator (spectral) norm of one matrix; see :func:`op_norms`."""
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("operator norm needs a square matrix")
    return float(op_norms(m[None])[0])


def assert_psd(matrix: np.ndarray, label: str = "matrix") -> np.ndarray:
    """Validate Hermitian positive semidefiniteness, return the input.

    Eigenvalues are allowed to dip below zero by ``PSD_NEG_TOL`` times
    the spectral scale to absorb roundoff from upstream arithmetic.
    """
    m = hermitize(matrix)
    vals = np.linalg.eigvalsh(m)
    scale = max(float(vals[-1]), 0.0) if vals.size else 0.0
    if vals.size and float(vals[0]) < -PSD_NEG_TOL * max(scale, 1.0):
        raise NotPSDError(
            f"{label} has negative eigenvalue {vals[0]:.6e} "
            f"(scale {scale:.6e})"
        )
    return np.asarray(matrix)


def psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix.

    Roundoff-negative eigenvalues inside the PSD tolerance are clipped
    to zero; genuinely negative ones raise :class:`NotPSDError`.
    """
    m = hermitize(matrix)
    vals, vecs = np.linalg.eigh(m)
    scale = max(float(vals[-1]), 0.0) if vals.size else 0.0
    if vals.size and float(vals[0]) < -PSD_NEG_TOL * max(scale, 1.0):
        raise NotPSDError(f"square root of non-PSD matrix (min eig {vals[0]:.6e})")
    root = np.sqrt(np.clip(vals, 0.0, None))
    return (vecs * root) @ vecs.conj().T


def psd_inv_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Inverse principal square root of a Hermitian positive matrix.

    Raises :class:`DegenerateWeightError` when any eigenvalue sits below
    ``PSD_FLOOR`` times the largest one, since the inverse would then be
    numerically meaningless.
    """
    m = hermitize(matrix)
    vals, vecs = np.linalg.eigh(m)
    top = float(vals[-1]) if vals.size else 0.0
    if top <= 0.0 or float(vals[0]) < PSD_FLOOR * top:
        raise DegenerateWeightError(
            f"matrix is numerically singular (eigenvalues {vals[0]:.6e} "
            f"to {top:.6e}); cannot form an inverse square root"
        )
    inv_root = 1.0 / np.sqrt(vals)
    return (vecs * inv_root) @ vecs.conj().T


def sandwich(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Congruence outer @ inner @ outer^H, hermitized."""
    return hermitize(outer @ inner @ np.asarray(outer).conj().T)
