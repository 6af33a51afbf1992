"""Operator weights on the disc and their square-average diagnostics.

A weight W assigns a positive invertible matrix to each point of the
disc.  The families here (identity, scalar power times a constant PSD
matrix, diagonal powers conjugated by a unitary, block composites) all
have closed-form inverses, which the two-average checker needs, and
fields that are sums of radial power terms (see ``MatrixField``).

``b2_constant`` evaluates, over a grid of boundary squares
S(h, theta) = {1-h < r < 1, |t-theta| < pi h}, the norm of

    [W]^{1/2} [W^{-1}] [W]^{1/2}

where [.] is the dA_eta average over S.  This symmetrized product form
is the square of the cross-term norm for commuting averages and is
exactly 1 for the identity weight; it is the quantity whose blow-up as
a power exponent approaches 1+eta the checker is meant to exhibit.

Averages are always formed as a ratio of two integrals computed by the
same route, so the identity weight averages to itself exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .disc_geometry import HyperbolicDisc
from .errors import DegenerateWeightError
from .linalg import PSD_FLOOR, hermitize, op_norm, psd_sqrt
from .measures import (
    MAX_DIM,
    REQUIRED,
    _descriptor,
    _dim,
    _encode_matrix,
    _list,
    _matrix,
    _number,
    _seed,
    random_unitary,
)
from .quadrature import (
    DEFAULT_TOL,
    MatrixField,
    MeasureSpec,
    PLAIN,
    identity_field,
    integrate,
    integrate_band,
    radial_power_field,
)


def _require_invertible_constant(matrix: np.ndarray, label: str) -> np.ndarray:
    m = hermitize(np.asarray(matrix, dtype=complex))
    vals = np.linalg.eigvalsh(m)
    if vals[0] <= 0.0:
        raise DegenerateWeightError(f"{label} must be positive definite")
    return m


@dataclass(frozen=True)
class IdentityWeight:
    dim: int

    def field(self) -> MatrixField:
        return identity_field(self.dim)

    def inverse(self) -> "IdentityWeight":
        return self

    def b2_membership(self, eta: float) -> bool:
        return True

    @property
    def descriptor(self) -> dict:
        return {"kind": "identity", "dim": self.dim}


class ScalarPowerWeight:
    """W(z) = (1-|z|)**exponent times a constant positive matrix."""

    def __init__(self, exponent: float, matrix: np.ndarray | None = None, dim: int = 1):
        self.exponent = float(exponent)
        if matrix is None:
            matrix = np.eye(dim)
        self.matrix = _require_invertible_constant(matrix, "scalar power factor")
        self.dim = self.matrix.shape[0]

    def field(self) -> MatrixField:
        return radial_power_field(self.exponent, self.matrix)

    def inverse(self) -> "ScalarPowerWeight":
        return ScalarPowerWeight(-self.exponent, np.linalg.inv(self.matrix))

    def b2_membership(self, eta: float) -> bool:
        return abs(self.exponent) < 1.0 + eta

    @property
    def descriptor(self) -> dict:
        desc = {
            "kind": "scalar_power",
            "exponent": self.exponent,
            "dim": self.dim,
        }
        if not np.array_equal(self.matrix, np.eye(self.dim)):
            desc["matrix"] = _encode_matrix(self.matrix)
        return desc


class DiagonalPowerWeight:
    """W = U diag((1-|z|)**a_i) U* for a constant unitary U."""

    def __init__(self, exponents: Sequence[float], unitary: np.ndarray | None = None):
        self.exponents = tuple(float(a) for a in exponents)
        if not self.exponents:
            raise ValueError("need at least one exponent")
        self.dim = len(self.exponents)
        self.unitary = None
        if unitary is not None:
            u = np.asarray(unitary, dtype=complex)
            if u.shape != (self.dim, self.dim):
                raise ValueError("unitary shape does not match exponent count")
            if not np.allclose(u @ u.conj().T, np.eye(self.dim), atol=1e-10):
                raise ValueError("conjugating matrix is not unitary")
            self.unitary = u

    def field(self) -> MatrixField:
        u = self.unitary
        # one term per eigen-direction: (1-|z|)**a_i times U e_i e_i* U*
        basis = np.eye(self.dim, dtype=complex) if u is None else u
        terms = tuple(
            (a, np.outer(basis[:, i], basis[:, i].conj()))
            for i, a in enumerate(self.exponents)
        )
        if u is None:
            return MatrixField(dim=self.dim, terms=terms)
        exps = np.asarray(self.exponents)

        # Written by hand for a tilted weight: the sum over the terms rounds
        # differently from this einsum, and the Volterra grids have argmax
        # points on roundoff ties that it would move (the integral form of
        # the benchmark's consistency run from 0.1 to 0.998046875).
        def evaluator(z: np.ndarray) -> np.ndarray:
            profs = (1.0 - np.abs(z))[:, None] ** exps[None, :]
            return np.einsum("ab,mb,cb->mac", u, profs, u.conj())

        return MatrixField(dim=self.dim, evaluator=evaluator, terms=terms)

    def inverse(self) -> "DiagonalPowerWeight":
        return DiagonalPowerWeight(
            tuple(-a for a in self.exponents), self.unitary
        )

    def b2_membership(self, eta: float) -> bool:
        return all(abs(a) < 1.0 + eta for a in self.exponents)

    @property
    def descriptor(self) -> dict:
        desc = {"kind": "diagonal_power", "exponents": list(self.exponents)}
        if self.unitary is not None:
            desc["unitary"] = _encode_matrix(self.unitary)
        return desc


class BlockWeight:
    """Direct sum of weights; its field has the terms of its blocks."""

    def __init__(self, blocks: Sequence):
        if not blocks:
            raise ValueError("need at least one block")
        self.blocks = tuple(blocks)
        self.dim = sum(b.dim for b in self.blocks)

    def field(self) -> MatrixField:
        fields = [b.field() for b in self.blocks]
        offsets = np.cumsum([0] + [f.dim for f in fields])
        terms = []
        for f, lo, hi in zip(fields, offsets[:-1], offsets[1:]):
            for profile, block in f.terms:
                matrix = np.zeros((self.dim, self.dim), dtype=complex)
                matrix[lo:hi, lo:hi] = block
                terms.append((profile, matrix))
        return MatrixField(dim=self.dim, terms=terms)

    def inverse(self) -> "BlockWeight":
        return BlockWeight(tuple(b.inverse() for b in self.blocks))

    def b2_membership(self, eta: float) -> bool:
        return all(b.b2_membership(eta) for b in self.blocks)

    @property
    def descriptor(self) -> dict:
        return {"kind": "block", "blocks": [b.descriptor for b in self.blocks]}


#: Each weight descriptor kind's keys besides ``kind``: key -> (reader, default).
WEIGHT_KEYS = {
    "identity": {"dim": (_dim, REQUIRED)},
    "scalar_power": {"exponent": (_number, REQUIRED), "dim": (_dim, None), "matrix": (_matrix, None)},
    "diagonal_power": {"exponents": (partial(_list, read=_number), REQUIRED),
                       "unitary": (_matrix, None), "seed": (_seed, None)},
    "block": {"blocks": (
        partial(_list, read=lambda value, key: weight_from_descriptor(value)), REQUIRED
    )},
}


def weight_from_descriptor(desc: Mapping):
    kind, v = _descriptor(desc, WEIGHT_KEYS, "weight")
    if kind == "identity":
        return IdentityWeight(v["dim"])
    if kind == "scalar_power":
        if "matrix" in v and v.get("dim", len(v["matrix"])) != len(v["matrix"]):
            raise ValueError("a scalar_power matrix sets the dim")
        return ScalarPowerWeight(v["exponent"], matrix=v.get("matrix"), dim=v.get("dim", 1))
    if kind == "diagonal_power":
        if "unitary" in v and "seed" in v:
            raise ValueError("a diagonal_power weight takes a unitary or a seed, not both")
        unitary = random_unitary(len(v["exponents"]), v["seed"]) if "seed" in v else v.get("unitary")
        return DiagonalPowerWeight(v["exponents"], unitary=unitary)
    if sum(block.dim for block in v["blocks"]) > MAX_DIM:
        raise ValueError(f"a block weight's dim must not exceed {MAX_DIM}")
    return BlockWeight(v["blocks"])


# ---------------------------------------------------------------------------
# averages


def _require_nondegenerate(avg: np.ndarray, label: str) -> np.ndarray:
    vals = np.linalg.eigvalsh(hermitize(avg))
    if vals[-1] <= 0.0 or vals[0] < PSD_FLOOR * vals[-1]:
        raise DegenerateWeightError(
            f"{label} is numerically singular "
            f"(eigenvalues {vals[0]:.6e} to {vals[-1]:.6e})"
        )
    return avg


def averaged_weight(
    weight,
    z: complex,
    r: float,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Mean of W over the disc about z of radius r*(1-|z|), against dA.

    Numerator and denominator run through the same quadrature panels,
    so the average of a constant weight is that constant without
    roundoff; in particular the identity averages to the identity
    exactly.
    """
    region = HyperbolicDisc(z, r)
    num = integrate(weight.field(), region, PLAIN, tol=tol)
    den = integrate(identity_field(1), region, PLAIN, tol=tol)
    avg = num / den[0, 0].real
    return _require_nondegenerate(avg, "averaged weight")


def default_h_grid() -> tuple[float, ...]:
    return tuple(2.0 ** -j for j in range(11)) + (0.9, 0.75)


def b2_constant(
    weight,
    eta: float = 0.0,
    h_grid: Sequence[float] | None = None,
    tol: float = DEFAULT_TOL,
) -> float:
    """Grid supremum of the symmetrized two-average norm.

    For each square the value is ||A^{1/2} B A^{1/2}|| with A, B the
    dA_eta averages of W and its closed-form inverse.  The result is a
    lower bound for the supremum over all squares; it is >= 1 always
    (the two averages multiply to at least the identity in norm) and
    exactly 1 for the identity weight.

    Every weight field is radial, so every square S(h, theta) has the
    averages of the band 0 < 1-|z| < h, and one value per h covers all
    angles.  The band is taken in the exact coordinate u = 1-|z|, so an h
    below the spacing of floats near 1 still has its own averages.
    """
    spec = MeasureSpec(eta)
    hs = tuple(h_grid) if h_grid is not None else default_h_grid()
    if not hs:
        raise ValueError("h grid must be nonempty")
    for h in hs:
        if not 0.0 < h <= 1.0:
            raise ValueError(f"square height {h} outside (0, 1]")
    fields = (weight.field(), weight.inverse().field(), identity_field(1))

    def evaluate(h: float) -> float:
        # averages over 0 < 1-|z| < h, with one shared denominator
        num_w, num_inv, den = (integrate_band(f, h, 0.0, spec, tol) for f in fields)
        avg_w, avg_inv = num_w / den[0, 0].real, num_inv / den[0, 0].real
        _require_nondegenerate(avg_w, f"average of W over S({h:g})")
        _require_nondegenerate(avg_inv, f"average of W^-1 over S({h:g})")
        root = psd_sqrt(avg_w)
        return op_norm(root @ avg_inv @ root)

    return max(evaluate(h) for h in hs)
