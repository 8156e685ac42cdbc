import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gframemod.algebra import adjoint, psd_leq
from gframemod.exceptions import NonHermitian
from gframemod.numerics import spectral_norms

from conftest import random_matrix


def complex_matrices(d, scale=10.0):
    real = arrays(np.float64, (d, d),
                  elements=st.floats(-scale, scale, allow_nan=False, allow_infinity=False))
    return st.tuples(real, real).map(lambda p: p[0] + 1j * p[1])


def test_adjoint_identity_is_self_adjoint():
    eye = np.eye(3, dtype=complex)
    np.testing.assert_array_equal(adjoint(eye), eye)


def test_adjoint_of_nilpotent():
    u = np.array([[0, 1], [0, 0]], dtype=complex)
    np.testing.assert_array_equal(adjoint(u), np.array([[0, 0], [1, 0]], dtype=complex))


@settings(deadline=None, max_examples=50)
@given(u=complex_matrices(3), v=complex_matrices(3))
def test_adjoint_antihomomorphism(u, v):
    defect = np.linalg.norm(adjoint(u @ v) - adjoint(v) @ adjoint(u), 2)
    assert defect <= 1e-12 * (1 + np.linalg.norm(u, 2) * np.linalg.norm(v, 2))


@settings(deadline=None, max_examples=50)
@given(u=complex_matrices(2), v=complex_matrices(2),
       re=st.floats(-5, 5), im=st.floats(-5, 5))
def test_adjoint_conjugate_linear(u, v, re, im):
    alpha = complex(re, im)
    lhs = adjoint(alpha * u + v)
    rhs = np.conj(alpha) * adjoint(u) + adjoint(v)
    np.testing.assert_array_equal(lhs, rhs)


def test_adjoint_involution(rng):
    u = random_matrix(rng, 3)
    np.testing.assert_array_equal(adjoint(adjoint(u)), u)


# the C*-norm of the algebra is the spectral norm, which the library takes
# over stacks with `spectral_norms`


def test_operator_norm_zero():
    assert spectral_norms(np.zeros((1, 2, 2), dtype=complex)).tolist() == [0.0]


def test_operator_norm_diagonal():
    assert spectral_norms(np.diag([3.0, -4.0])[None] + 0j)[0] == pytest.approx(4.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cstar_identity(rng, d):
    u = np.stack([random_matrix(rng, d) for _ in range(100)])
    n = spectral_norms(u)
    star = spectral_norms(np.stack([adjoint(x) @ x for x in u]))
    assert np.all(np.abs(star - n**2) <= 1e-10 * (1 + n**2))


# positivity is the PSD order against zero


def test_is_positive_identity():
    assert psd_leq(np.zeros((2, 2)), np.eye(2), 1e-10)


def test_is_positive_indefinite():
    assert not psd_leq(np.zeros((2, 2)), np.diag([1.0, -1.0]), 1e-10)


def test_is_positive_gram(rng):
    for _ in range(50):
        v = random_matrix(rng, 3)
        assert psd_leq(np.zeros((3, 3)), adjoint(v) @ v, 1e-10)


def test_psd_leq_trivial():
    assert psd_leq(np.zeros((2, 2)), np.eye(2), 1e-10)
    assert not psd_leq(np.eye(2), np.eye(2) / 2, 1e-10)


def test_psd_leq_rejects_non_hermitian():
    with pytest.raises(NonHermitian):
        psd_leq(np.array([[0, 1], [0, 0]], dtype=complex), np.eye(2), 1e-10)
    with pytest.raises(NonHermitian):
        psd_leq(np.eye(2), np.array([[0, 1], [0, 0]], dtype=complex), 1e-10)


def test_psd_leq_orders_operands_that_pass_the_hermitian_check():
    # each operand's anti-Hermitian part, 1.6e-9, passes at 1e-9 x scale 2;
    # the gap's, 3.2e-9, does not, and must not turn a clear order into False
    k = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    assert psd_leq(np.eye(2) + 8e-10 * k, 2 * np.eye(2) - 8e-10 * k)
    assert not psd_leq(2 * np.eye(2) - 8e-10 * k, np.eye(2) + 8e-10 * k)


def test_psd_leq_scaling_of_psd(rng):
    for _ in range(20):
        v = random_matrix(rng, 2)
        g = adjoint(v) @ v
        assert psd_leq(g, 2 * g, 1e-10)
        assert not psd_leq(2 * g + np.eye(2), g, 1e-10)


def test_psd_leq_partial_order(rng):
    tol = 1e-9
    u = adjoint(random_matrix(rng, 3)) @ random_matrix(rng, 3)
    u = (u + adjoint(u)) / 2
    assert psd_leq(u, u, tol)  # reflexive
    # antisymmetry up to tolerance: both orders force near-equality
    bump = np.diag([tol / 10, 0, 0]).astype(complex)
    v = u + bump
    assert psd_leq(u, v, tol) and psd_leq(v, u, tol)
    assert np.linalg.norm(u - v, 2) <= 10 * tol * (1 + np.linalg.norm(u, 2))
