"""Spectral norms: the batched solve against the one-matrix definition."""

import math

import numpy as np

from bergman_carleson.linalg import hermitize, op_norm, op_norms


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
    stack = np.stack(
        [
            hermitize(g @ g.conj().T),  # Hermitian: eigvalsh
            g,  # not Hermitian: svd
            np.eye(3, dtype=complex),
            np.zeros((3, 3), dtype=complex),
        ]
    )
    norms = op_norms(stack)
    for m, value in zip(stack, norms):
        assert float(value).hex() == op_norm(m).hex() == _reference_norm(m).hex()
    assert norms[2] == 1.0
    assert norms[3] == 0.0 and math.copysign(1.0, norms[3]) == 1.0


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
