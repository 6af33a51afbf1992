"""Spectral norms: the batched solve against the one-matrix definition."""

import math

import numpy as np

from bergman_carleson.linalg import hermitize, op_norm, op_norms
from bergman_carleson.measures import (
    lift_scalar_measure,
    measure_from_descriptor,
    partition_masses,
)


def _reference_norm(m: np.ndarray) -> float:
    # the one-matrix definition: eigvalsh when exactly Hermitian, with
    # Python's max (first argument wins a tie), else the top singular value
    if np.array_equal(m, m.conj().T):
        vals = np.linalg.eigvalsh(m)
        return float(max(vals[-1], -vals[0]))
    return float(np.linalg.svd(m, compute_uv=False)[0])


def test_mixed_stack_matches_per_matrix_bit_for_bit():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = hermitize(g @ g.conj().T)
    b = hermitize(g + np.eye(3))
    zero = np.zeros((3, 3), dtype=complex)
    signed_zero = zero.copy()
    signed_zero[2, 2] = complex(-0.0, 0.0)  # its norm is -0.0
    stack = np.stack(
        [
            a,  # Hermitian: eigvalsh
            g,  # not Hermitian: svd
            np.eye(3, dtype=complex),
            zero,
            a,  # an adjacent repeat of a Hermitian row ...
            a,
            b,  # ... and an interleaved one: A, A, B, A
            a,
            zero,  # equal by value to the next row, not by bits
            signed_zero,
            g,  # a repeated non-Hermitian row
            g,
        ]
    )
    norms = op_norms(stack)
    assert len(norms) == len(stack)
    for m, value in zip(stack, norms):
        assert float(value).hex() == op_norm(m).hex() == _reference_norm(m).hex()
    assert norms[2] == 1.0
    assert norms[3] == 0.0 and math.copysign(1.0, norms[3]) == 1.0
    assert math.copysign(1.0, norms[8]) == 1.0 and math.copysign(1.0, norms[9]) == -1.0


def test_runs_of_identical_matrices_are_solved_once(monkeypatch):
    # a radial density without atoms: every cell of a level, and every
    # square of a level, has the same mass, so one solve per level
    mu = lift_scalar_measure(
        measure_from_descriptor({"kind": "radial_power_density", "exponent": 1.0}),
        64,
        seed=0,
    )
    masses = partition_masses(mu, depth=6)
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        sizes.append(int(np.prod(np.shape(a)[:-2], dtype=np.int64)))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    cells = masses.cell_norms
    assert sum(sizes) == 7
    sizes.clear()
    squares = masses.square_norms
    assert sum(sizes) == 7
    monkeypatch.undo()
    assert [v.hex() for v in cells.tolist()] == [
        _reference_norm(m).hex() for m in masses.cells
    ]
    assert [v.hex() for v in squares.tolist()] == [
        _reference_norm(m).hex() for m in masses.square_masses()
    ]


def test_hermitian_stack_takes_one_branch():
    rng = np.random.default_rng(4)
    g = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    stack = hermitize(g)
    norms = op_norms(stack)
    assert [v.hex() for v in norms.tolist()] == [
        _reference_norm(m).hex() for m in stack
    ]


def test_hermitize_acts_per_matrix_on_stacks():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    stacked = hermitize(g)
    for m, h in zip(g, stacked):
        assert np.array_equal(hermitize(m), h)
        assert np.array_equal(h, h.conj().T)
