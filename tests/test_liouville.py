import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openqdyn import liouville as lv
from openqdyn.errors import DimensionError, MagnitudeError
from openqdyn.operators import (
    rand_density_matrix,
    rand_hermitian,
    rand_pure_state,
    rand_unitary,
    sigma_x,
)


def test_trace_norm_pure_state_difference():
    # ||(P1 - P2)/2||_1 = sqrt(1 - |<psi2|psi1>|^2)
    rng = np.random.default_rng(1)
    for _ in range(20):
        p1 = rand_pure_state(4, rng)
        p2 = rand_pure_state(4, rng)
        sigma = 0.5 * (np.outer(p1, p1.conj()) - np.outer(p2, p2.conj()))
        expect = np.sqrt(1.0 - abs(np.vdot(p2, p1)) ** 2)
        assert abs(lv.trace_norm(sigma) - expect) < 1e-12


def test_trace_norm_density_matrix_is_one():
    rng = np.random.default_rng(2)
    for dim in (2, 3, 5):
        assert abs(lv.trace_norm(rand_density_matrix(dim, rng)) - 1.0) < 1e-12


def test_trace_norm_diagonal():
    assert abs(lv.trace_norm(np.diag([3.0, -4.0])) - 7.0) < 1e-12


def test_trace_norm_rejects_nonsquare():
    with pytest.raises(DimensionError):
        lv.trace_norm(np.ones((2, 3)))


def test_expm_zero_and_nilpotent():
    assert np.allclose(lv.expm(np.zeros((3, 3))), np.eye(3))
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(lv.expm(N), np.array([[1.0, 1.0], [0.0, 1.0]]))
    # 1-norm above theta_13: degree 13 with scaling, on powers that vanish
    assert np.allclose(lv.expm(6 * N), np.array([[1.0, 6.0], [0.0, 1.0]]))
    S = 4 * np.diag(np.sqrt(np.arange(1.0, 4.0)), -1)          # 4 * create(4)
    E = np.eye(4)
    for k in range(1, 4):
        E = E + np.linalg.matrix_power(S, k) / math.factorial(k)
    assert np.abs(lv.expm(S) - E).max() < 1e-13 * np.abs(E).max()


def test_expm_commuting_factorizes():
    rng = np.random.default_rng(3)
    A = rand_hermitian(3, rng)
    # p(A) commutes with A
    B = 0.3 * A @ A - 0.7 * A
    lhs = lv.expm(A + B)
    rhs = lv.expm(A) @ lv.expm(B)
    assert np.abs(lhs - rhs).max() < 1e-12 * np.abs(lhs).max()


def test_expm_inverse_identity():
    rng = np.random.default_rng(4)
    for _ in range(5):
        L = rand_hermitian(4, rng) * 1j + 0.3 * rand_hermitian(4, rng)
        L *= 10.0 / np.linalg.norm(L, 2)
        assert np.abs(lv.expm(L) @ lv.expm(-L) - np.eye(4)).max() < 1e-10


def test_expm_rejects_nonfinite():
    with pytest.raises(MagnitudeError):
        lv.expm(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with pytest.raises(MagnitudeError):
        lv.expm(np.array([[1e309 if False else np.nan, 0.0], [0.0, 0.0]]))



# -- the numpy scaling-and-squaring kernel, against scipy.linalg.expm ---------
# (the ``test_pade_expm_*`` tests pin the kernel's contract and keep the ids
# they had when the kernel used Pade approximants)

def _decaying(rng, n, norm):
    """Random complex n x n matrix of 1-norm ``norm``, shifted so that every
    eigenvalue has a negative real part, like a generator's."""
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A *= norm / np.abs(A).sum(axis=0).max()
    return A - (np.linalg.eigvals(A).real.max() + 0.1 * norm) * np.eye(n)


def _spy_squarings(monkeypatch):
    """The per-slice squaring counts that the kernel takes, one array per
    scaled chunk."""
    seen, squarings = [], lv._squarings
    monkeypatch.setattr(lv, "_squarings", lambda *args: seen.append(squarings(*args)) or seen[-1])
    return seen


@pytest.mark.parametrize("n", [2, 3, 7, 20, 50])
def test_pade_expm_matches_scipy(n):
    """Every Taylor degree (the theta_m edges) and scaling up to 1-norm 1e3."""
    import scipy.linalg

    rng = np.random.default_rng(n)
    edges = [theta * f for _, theta, _ in lv._THETA for f in (0.99, 1.01)]
    for norm in list(np.logspace(-8, 3, 12)) + edges:
        A = _decaying(rng, n, norm)
        ref = scipy.linalg.expm(A)
        assert np.abs(lv._taylor_expm(A) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0, 100.0])
def test_pade_expm_jordan_block_closed_form(t):
    """e^{t(-I + N)} = e^{-t} sum_k (tN)^k / k! for the nilpotent shift N."""
    from math import factorial

    N = np.eye(6, k=1, dtype=complex)
    ref = np.exp(-t) * sum(np.linalg.matrix_power(t * N, k) / factorial(k) for k in range(6))
    got = lv._taylor_expm(t * (N - np.eye(6)))
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_pade_expm_non_normal_is_not_overscaled(monkeypatch):
    """[[a, c], [0, b]] with c = 1e6: e^a, e^b on the diagonal and
    c e^b expm1(a - b) / (a - b) above it.  The power bound takes 8
    squarings and stays within 1e-13; the 21 that the 1-norm alone asks for
    lose accuracy (5.5e-11 relative)."""
    a, b, c = -1.0, -1.01, 1e6
    A = np.array([[a, c], [0.0, b]])
    ref = np.array([[math.exp(a), c * math.exp(b) * math.expm1(a - b) / (a - b)],
                    [0.0, math.exp(b)]])
    seen = _spy_squarings(monkeypatch)
    assert np.abs(lv.expm(A) - ref).max() <= 1e-13 * np.abs(ref).max()
    assert [s.tolist() for s in seen] == [[8]]
    s = math.ceil(math.log2(np.abs(A).sum(axis=0).max() / lv._THETA[-1][1]))
    assert s == 21
    E = lv._taylor_expm(A / 2 ** s)
    for _ in range(s):
        E = E @ E
    assert np.abs(E - ref).max() > 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("x, s", [(0.5, None), (1.55, 1), (1.58, 2), (3.10, 2), (3.15, 3),
                                  (100.0, 8)])
def test_taylor_scaling_from_power_bound(monkeypatch, x, s):
    """[[0, x], [x, 0]] squares to x^2 I, so the power bound is x: degree 16
    on A / 2^s with the least s that brings x / 2^s under theta_16 = 0.780,
    and no scaling at all where the 1-norm x is at most theta_16.  e^A is
    cosh(x) I + sinh(x) [[0, 1], [1, 0]]."""
    A = np.array([[0.0, x], [x, 0.0]])
    seen = _spy_squarings(monkeypatch)
    E = lv.expm(A)
    assert [t.tolist() for t in seen] == ([] if s is None else [[s]])
    ref = np.array([[math.cosh(x), math.sinh(x)], [math.sinh(x), math.cosh(x)]])
    assert np.abs(E - ref).max() <= 1e-14 * np.abs(ref).max()


def test_taylor_power_bound_takes_the_larger_root(monkeypatch):
    """The weighted cyclic shift A = [[0, a, 0], [0, 0, 1], [1, 0, 0]] has
    A^3 = a I and A^4 = a A, so ||A^4||^(1/4) = a^(1/2) = 10 exceeds
    ||A^3||^(1/3) = a^(1/3) = 4.6 at a = 100: 4 squarings, not 3."""
    import scipy.linalg

    A = np.array([[0.0, 100.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    seen = _spy_squarings(monkeypatch)
    E, ref = lv.expm(A), scipy.linalg.expm(A)
    assert [s.tolist() for s in seen] == [[4]]
    assert np.abs(E - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("k", [10.0, 100.0])
def test_taylor_nilpotent_power_bound_takes_no_squaring(monkeypatch, k):
    """B = k [[1, -1], [1, -1]] has 1-norm 2k but B^2 = 0, so the power bound
    is 0: degree 16 on B itself with no squaring, and e^B = I + B."""
    B = k * np.array([[1.0, -1.0], [1.0, -1.0]])
    seen = _spy_squarings(monkeypatch)
    assert np.abs(lv.expm(B) - (np.eye(2) + B)).max() <= 1e-12 * 2 * k
    assert [s.tolist() for s in seen] == [[0]]


def test_pade_expm_stack_equals_its_slices():
    rng = np.random.default_rng(21)
    G = np.array([_decaying(rng, 9, norm) for norm in (1e-3, 0.5, 3.0, 40.0)])
    G[1] = np.diag(np.diag(G[1]))
    E = lv._taylor_expm(G.reshape(2, 2, 9, 9))
    for i, A in enumerate(G):
        assert np.array_equal(E[divmod(i, 2)], lv._taylor_expm(A))


def test_taylor_expm_chunks_equal_their_slices():
    """A stack of more slices than one chunk, with every degree, several
    squaring counts within one chunk, diagonal slices and an in-place call:
    each result is bitwise that of its slice alone."""
    rng = np.random.default_rng(22)
    n = 30
    step = lv._CHUNK_BYTES // (16 * n * n)
    norms = np.concatenate([[theta * 0.9 for _, theta, _ in lv._THETA],
                            np.logspace(0, 3, 3 * step)])
    G = np.array([_decaying(rng, n, norm) for norm in rng.permutation(norms)])
    G[[3, 17]] = [np.diag(np.diag(A)) for A in G[[3, 17]]]
    assert len(G) > 2 * step
    E = lv._taylor_expm(G)
    for A, got in zip(G, E):
        assert np.array_equal(got, lv._taylor_expm(A))
    lv._taylor_expm(G, out=G)
    assert np.array_equal(G, E)


def _einsum_taylor_chunk(A, norm, m, theta, q, scale):
    """The Taylor step with every coefficient matrix B_j formed at once by one
    einsum before Horner: the reference that pins the bits of
    ``lv._taylor_chunk``."""
    P = np.empty((q + 1,) + A.shape, dtype=A.dtype)
    P[0], P[1] = np.eye(A.shape[-1]), A
    for i in range(2, q + 1):
        np.matmul(P[i - 1], A, out=P[i])
    s = np.zeros(len(A), dtype=int)
    if scale:
        s = lv._squarings(P, norm, theta)
        P *= (0.5 ** np.outer(np.arange(q + 1), s))[:, :, None, None]
    r = m // q
    coef = [[1.0 / math.factorial(q * j + i) if q * j + i else 0.0 for i in range(q)]
            for j in range(r)]
    B = np.einsum("ji,ikab->jkab", coef, P[:q])
    X = P[q] * (1.0 / math.factorial(m)) + B[r - 1]
    for j in range(r - 2, -1, -1):
        X = X @ P[q] + B[j]
    T = lv._square(X, s, lambda X: X @ X + 2.0 * X) + P[0]
    small = np.abs(T).max(axis=(1, 2)) * A.shape[-1] < 1.0
    if small.any():
        T[small] = lv._square(X[small] + P[0, small], s[small], lambda T: T @ T)
    return T


@pytest.mark.parametrize("n", [2, 9, 50])
def test_taylor_chunk_is_bitwise_the_einsum_step(n):
    """Every degree of _THETA (q = 2, 3 and 4), unscaled and scaled, with a
    diagonal slice in each stack."""
    rng = np.random.default_rng(23)
    for m, theta, q in lv._THETA:
        for scale, norms in ((False, theta * np.array([0.1, 0.6, 0.99])),
                             (True, np.array([0.5, 3.0, 40.0, 900.0]))):
            if scale and m != lv._THETA[-1][0]:
                continue
            A = np.array([_decaying(rng, n, x) for x in norms])
            A[1] = np.diag(np.diag(A[1]))
            norm = np.abs(A).sum(axis=1).max(axis=1)
            got = lv._taylor_chunk(A, norm, m, theta, q, scale)
            assert np.array_equal(got, _einsum_taylor_chunk(A, norm, m, theta, q, scale))


def test_taylor_expm_of_a_mixed_stack_is_bitwise_the_einsum_step(monkeypatch):
    rng = np.random.default_rng(24)
    norms = [theta * f for _, theta, _ in lv._THETA for f in (0.3, 0.95)] + [5.0, 200.0]
    G = np.array([_decaying(rng, 12, x) for x in rng.permutation(norms)])
    G[4] = np.diag(np.diag(G[4]))
    got = lv._taylor_expm(G)
    monkeypatch.setattr(lv, "_taylor_chunk", _einsum_taylor_chunk)
    assert np.array_equal(got, lv._taylor_expm(G))


def test_taylor_expm_out_through_a_transposed_view():
    """A (K, g, m, m) view of a (g, m, m, K) array does not reshape to a view
    of one stack axis: the results still land in ``out``, and in the result
    of a call without ``out``."""
    rng = np.random.default_rng(25)
    G = np.array([[_decaying(rng, 3, x) for x in (0.2, 4.0)] for _ in range(5)])
    E = np.moveaxis(np.moveaxis(G, 0, -1).copy(), -1, 0)    # (5, 2, 3, 3), K innermost
    ref = np.array([[lv._taylor_expm(E[k, g].copy()) for g in range(2)] for k in range(5)])
    assert np.array_equal(lv._taylor_expm(E), ref)
    assert lv._taylor_expm(E, out=E) is E
    assert np.array_equal(E, ref)


def test_pade_expm_diagonal_is_exp_bitwise():
    d = np.array([-3.0 + 1j, 0.0, 2.5, -40.0 - 7j, 1e-9j])
    assert np.array_equal(lv._taylor_expm(np.diag(d)), np.diag(np.exp(d)))
    assert np.array_equal(lv.expm(np.diag(d)), np.diag(np.exp(d)))


def test_pade_expm_one_by_one_and_zero():
    assert np.array_equal(lv._taylor_expm(np.array([[2.0 - 1j]])), np.array([[np.exp(2.0 - 1j)]]))
    assert np.array_equal(lv._taylor_expm(np.zeros((4, 4), dtype=complex)), np.eye(4))
    assert np.array_equal(lv.expm(np.zeros((1, 1))), np.ones((1, 1)))


def test_pade_expm_overflow_raises():
    big = np.array([[800.0, 1.0], [0.0, 1.0]], dtype=complex)
    for M in (big, np.diag([800.0, 1.0]), np.full((3, 3), 1e306), np.full((3, 3), 1e308),
              np.array([[0.0, 1e60], [1e60, 0.0]])):          # A^4 overflows
        with pytest.raises(MagnitudeError, match="overflow"):
            lv.expm(M)
    with pytest.raises(MagnitudeError, match="overflow"):
        lv._taylor_expm(np.array([np.eye(2), big]))
    with pytest.raises(MagnitudeError, match="non-finite"):
        lv.expm(np.array([[0.0, np.nan], [1.0, 0.0]]))


def _random_gksl(rng, dim):
    """Superoperator of a random GKSL generator: a Hermitian H and one to three
    jumps of random rates."""
    from openqdyn import gksl

    jumps = [(float(rng.uniform(0.05, 1.0)),
              rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
             for _ in range(int(rng.integers(1, 4)))]
    return gksl.superop_of_generator(gksl.GKSLGenerator(H=rand_hermitian(dim, rng), jumps=jumps))


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.floats(-3.0, 2.0))
def test_taylor_expm_of_gksl_generators(dim, seed, log_t):
    """e^{tL} of random GKSL generators, t in [1e-3, 1e2]: within 1e-12 of
    scipy relative to the largest entry, and the trace row tr = vec(I) of a
    trace-preserving generator kept: |tr e^{tL} - tr| <= 1e-14 ||tL||_1."""
    import scipy.linalg

    rng = np.random.default_rng(seed)
    tL = 10.0 ** log_t * _random_gksl(rng, dim)
    E, ref = lv._taylor_expm(tL), scipy.linalg.expm(tL)
    assert np.abs(E - ref).max() <= 1e-12 * np.abs(ref).max()
    tr = np.eye(dim).reshape(-1)
    scale = max(np.abs(tL).sum(axis=0).max(), 1.0)
    assert np.abs(tr @ E - tr).max() <= 1e-14 * scale

def test_trotter_commuting_exact():
    rng = np.random.default_rng(5)
    A = rand_hermitian(3, rng)
    B = 2.0 * A - 0.1 * A @ A
    for n in (1, 7):
        assert np.abs(lv.trotter_product(A, B, n) - lv.expm(A + B)).max() < 1e-12


def test_trotter_first_order_halving():
    rng = np.random.default_rng(6)
    for _ in range(4):
        A = rand_hermitian(4, rng)
        B = rand_hermitian(4, rng)
        A /= np.linalg.norm(A, 2)
        B /= np.linalg.norm(B, 2)
        ref = lv.expm(A + B)
        errs = [np.abs(lv.trotter_product(A, B, n) - ref).max() for n in (64, 128, 256)]
        for e1, e2 in zip(errs, errs[1:]):
            assert 1.6 < e1 / e2 < 2.4


def test_trotter_monotone_convergence_large_n():
    rng = np.random.default_rng(7)
    A = rand_hermitian(2, rng)
    B = rand_hermitian(2, rng)
    ref = lv.expm(A + B)
    errs = [np.abs(lv.trotter_product(A, B, 2**k) - ref).max() for k in range(4, 17, 2)]
    assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))


def test_vectorize_convention_and_roundtrip():
    # |0><1| on N=2 lives at index 1*2+0 = 2
    E01 = np.zeros((2, 2), dtype=complex)
    E01[0, 1] = 1.0
    v = lv.vectorize(E01)
    assert v[2] == 1.0 and np.count_nonzero(v) == 1
    rng = np.random.default_rng(8)
    A = rand_hermitian(4, rng) + 1j * rand_hermitian(4, rng)
    assert np.array_equal(lv.devectorize(lv.vectorize(A)), A)


def test_devectorize_rejects_bad_length():
    with pytest.raises(DimensionError):
        lv.devectorize(np.zeros(5))


def test_vectorization_identity_100_triples():
    rng = np.random.default_rng(9)
    for _ in range(100):
        dim = rng.integers(2, 6)
        A, X, B = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                   for _ in range(3))
        lhs = lv.vectorize(A @ X @ B)
        rhs = np.kron(B.T, A) @ lv.vectorize(X)
        assert np.abs(lhs - rhs).max() < 1e-12 * max(np.abs(lhs).max(), 1.0)


def test_conjugation_superop_identity():
    assert np.allclose(lv.conjugation_superop(np.eye(3), np.eye(3)), np.eye(9))


def test_conjugation_superop_unitary_invariance():
    rng = np.random.default_rng(10)
    U = rand_unitary(3, rng)
    S = lv.conjugation_superop(U, U.conj().T)
    rho = rand_density_matrix(3, rng)
    out = lv.apply_superop(S, rho)
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert np.abs(np.sort(np.linalg.eigvalsh(out)) - np.sort(np.linalg.eigvalsh(rho))).max() < 1e-12


def test_conjugation_superop_bit_flip():
    S = lv.conjugation_superop(sigma_x, sigma_x)
    rho = np.diag([0.3, 0.7]).astype(complex)
    assert np.allclose(lv.apply_superop(S, rho), np.diag([0.7, 0.3]))


def test_conjugation_superop_dimension_mismatch():
    with pytest.raises(DimensionError):
        lv.conjugation_superop(np.eye(2), np.eye(3))


def test_hs_basis_qubit_is_paulis():
    from openqdyn.operators import sigma_y, sigma_z

    basis = lv.hs_basis(2)
    expect = [sigma_x, sigma_y, sigma_z, np.eye(2)]
    for F, E in zip(basis, expect):
        assert np.abs(F - E / np.sqrt(2)).max() < 1e-15


def test_hs_basis_orthonormal():
    for dim in (2, 3, 4):
        basis = lv.hs_basis(dim)
        assert len(basis) == dim * dim
        for j, F in enumerate(basis):
            for k, G in enumerate(basis):
                expect = 1.0 if j == k else 0.0
                assert abs(np.trace(F.conj().T @ G) - expect) < 1e-12


def test_hs_basis_traceless_except_last():
    basis = lv.hs_basis(3)
    assert len(basis) == 9
    assert all(abs(np.trace(F)) < 1e-12 for F in basis[:-1])
    assert np.allclose(basis[-1], np.eye(3) / np.sqrt(3))
    with pytest.raises(ValueError):
        lv.hs_basis(1)


def test_propagate_constant_generator():
    rng = np.random.default_rng(11)
    L = rand_hermitian(3, rng) * 1j * 0.5
    for steps in (1, 4):
        P = lv.propagate_time_dependent(lambda t: L, 0.0, 2.0, steps)
        assert np.abs(P - lv.expm(2.0 * L)).max() < 1e-10


def test_propagate_steps_must_be_a_positive_integer():
    """A float step count is rejected, not truncated; numpy integers count."""
    rng = np.random.default_rng(11)
    L = rand_hermitian(3, rng) * 1j * 0.5
    for steps in (2.5, 2.0, 0, -1):
        with pytest.raises(ValueError, match="steps must be a positive integer"):
            lv.propagate_time_dependent(lambda t: L, 0.0, 2.0, steps)
    P = lv.propagate_time_dependent(lambda t: L, 0.0, 2.0, np.int32(3))
    assert np.array_equal(P, lv.propagate_time_dependent(lambda t: L, 0.0, 2.0, 3))


def _random_liouvillian(dim, rng):
    from openqdyn.gksl import GKSLGenerator, superop_of_generator

    jumps = [(0.5, rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
             for _ in range(2)]
    return superop_of_generator(GKSLGenerator(H=rand_hermitian(dim, rng), jumps=jumps))


SEMIGROUP_GRIDS = {
    "linspace": list(np.linspace(0.0, 3.0, 31)),
    "non_uniform": [0.0, 0.1, 0.35, 0.4, 1.7, 4.0],
    "late_start": [0.5, 1.0, 1.5, 2.25],
    "zero_only": [0.0],
}


@pytest.mark.parametrize("grid", sorted(SEMIGROUP_GRIDS))
@pytest.mark.parametrize("shape", [(9,), (9, 9)], ids=["vector", "matrix"])
def test_propagate_semigroup_matches_direct_exponential(grid, shape):
    rng = np.random.default_rng(13)
    L = _random_liouvillian(3, rng)
    X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    times = SEMIGROUP_GRIDS[grid]
    got = lv.propagate_semigroup(L, times, X)
    assert len(got) == len(times)
    for t, Y in zip(times, got):
        ref = lv.expm(t * L) @ X
        assert np.abs(Y - ref).max() <= 1e-12 * np.abs(ref).max()
    if times[0] == 0.0:
        assert got[0] is X


def test_propagate_semigroup_one_exponential_per_spacing(monkeypatch):
    calls = []
    monkeypatch.setattr(lv, "expm", lambda M: calls.append(M) or np.eye(M.shape[0]))
    L = np.eye(4)
    for times, expected in ((np.linspace(0.0, 10.0, 51), 1),
                            ([0.5, 1.0, 1.5, 2.25, 3.0], 2),
                            ([0.0, 0.1, 0.3, 0.4], 3)):
        calls.clear()
        lv.propagate_semigroup(L, times, np.ones(4))
        assert len(calls) == expected


@pytest.mark.parametrize("times", [[0.0, 2.0, 1.0], [0.0, 1.0, 1.0], [-0.5, 1.0],
                                   [0.0, float("nan"), 1.0], [0.0, float("inf")]],
                         ids=["descending", "repeated", "negative", "nan", "inf"])
def test_propagate_semigroup_rejects_bad_grid(times):
    with pytest.raises(ValueError):
        lv.propagate_semigroup(np.zeros((4, 4)), times, np.ones(4))


def test_propagate_commuting_family():
    rng = np.random.default_rng(12)
    L0 = rand_hermitian(2, rng) * 1j
    gen = lambda t: np.cos(t) * L0
    # exact: expm(integral of gen) since the family commutes
    exact = lv.expm(np.sin(1.5) * L0)
    errs = []
    for steps in (200, 400):
        P = lv.propagate_time_dependent(gen, 0.0, 1.5, steps)
        errs.append(np.abs(P - exact).max())
    assert errs[0] < 5e-2 and errs[1] < errs[0]


def test_propagate_halving_error_ratio():
    rng = np.random.default_rng(13)
    L0 = 1j * rand_hermitian(3, rng)
    L1 = 1j * rand_hermitian(3, rng)
    gen = lambda t: L0 + np.sin(t) * L1
    ref = lv.propagate_time_dependent(gen, 0.0, 2.0, 64 * 16)
    e1 = np.abs(lv.propagate_time_dependent(gen, 0.0, 2.0, 64) - ref).max()
    e2 = np.abs(lv.propagate_time_dependent(gen, 0.0, 2.0, 128) - ref).max()
    assert 1.6 < e1 / e2 < 2.4


def test_propagate_stacks_split_under_the_byte_cap(monkeypatch):
    """Stacks of one, two or three generators (cap below, at and above two
    generators) give the one-stack product up to rounding, and a generator
    whose two-level blocks are disconnected is propagated block by block."""
    rng = np.random.default_rng(14)
    L0, L1 = (np.kron(np.eye(2), 1j * rand_hermitian(2, rng)) for _ in range(2))
    assert len(lv._blocks(L0 + L1)) == 2
    gen = lambda t: L0 + np.sin(t) * L1
    ref = lv.propagate_time_dependent(gen, 0.3, 1.7, 7)
    for cap in (1, 2 * L0.nbytes, 3 * L0.nbytes):
        monkeypatch.setattr(lv, "_STACK_BYTES", cap)
        P = lv.propagate_time_dependent(gen, 0.3, 1.7, 7)
        assert np.abs(P - ref).max() < 1e-14
    exact = lv.expm(0.2 * gen(0.3))
    assert np.abs(lv.propagate_time_dependent(gen, 0.3, 0.5, 1) - exact).max() < 1e-15


def test_time_split_steps_maps_on_and_off_the_generator_blocks():
    """The recorded products equal the step-by-step products of the
    exponentials for an X that is zero off the generators' two blocks (and in
    one column) and for a dense X, whose pattern joins the two blocks."""
    rng = np.random.default_rng(15)
    G = np.array([np.kron(np.eye(2), 1j * rand_hermitian(2, rng)) for _ in range(5)])
    assert len(lv._blocks((G != 0).any(axis=0))) == 2
    dense = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    blocked = np.kron(np.eye(2), np.ones((2, 2))) * dense
    blocked[:, 1] = 0.0
    dt = np.linspace(0.1, 0.5, 5)
    for X in (blocked, dense):
        got = lv._time_split(G, np.cumsum(dt) - dt, dt, X, [1, 4])
        P, ref = X, []
        for j in range(5):
            P = lv.expm(dt[j] * G[j]) @ P
            if j in (1, 4):
                ref.append(P)
        assert np.abs(got - np.array(ref)).max() < 1e-14 * np.abs(X).max()
        assert np.array_equal(got == 0, np.array(ref) == 0)


def test_propagate_rejects_non_finite_generator():
    with pytest.raises(MagnitudeError, match="t=0.5"):
        lv.propagate_time_dependent(lambda t: np.full((2, 2), np.nan if t > 0.4 else 0.0),
                                    0.0, 1.0, 2)


def test_propagate_rejects_reversed_interval():
    with pytest.raises(ValueError):
        lv.propagate_time_dependent(lambda t: np.eye(2), 1.0, 0.0, 4)


def test_partial_trace_product_state():
    rng = np.random.default_rng(14)
    ra = rand_density_matrix(2, rng)
    rb = rand_density_matrix(3, rng)
    assert np.abs(lv.partial_trace(np.kron(ra, rb), (2, 3), 0) - ra).max() < 1e-14
    assert np.abs(lv.partial_trace(np.kron(ra, rb), (2, 3), 1) - rb).max() < 1e-14


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert np.abs(lv.partial_trace(rho, (2, 2), 0) - np.eye(2) / 2).max() < 1e-14


def test_partial_trace_local_unitary_covariance():
    rng = np.random.default_rng(15)
    for _ in range(10):
        rho = rand_density_matrix(6, rng)
        UA = rand_unitary(2, rng)
        UB = rand_unitary(3, rng)
        U = np.kron(UA, UB)
        lhs = lv.partial_trace(U @ rho @ U.conj().T, (2, 3), 0)
        rhs = UA @ lv.partial_trace(rho, (2, 3), 0) @ UA.conj().T
        assert np.abs(lhs - rhs).max() < 1e-12


def test_partial_trace_preserves_trace_and_positivity():
    rng = np.random.default_rng(16)
    for _ in range(100):
        rho = rand_density_matrix(6, rng)
        red = lv.partial_trace(rho, (2, 3), 0)
        assert abs(np.trace(red) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(red).min() > -1e-12


def test_partial_trace_rejects_bad_dims():
    with pytest.raises(DimensionError):
        lv.partial_trace(np.eye(6) / 6, (2, 2), 0)


def test_induced_norm_submultiplicative_sampled():
    rng = np.random.default_rng(17)
    for _ in range(5):
        S1 = np.kron(rand_unitary(2, rng).conj(), rand_unitary(2, rng)) * 0.9
        S2 = np.kron(rand_unitary(2, rng).conj(), rand_unitary(2, rng)) * 1.1
        n12 = lv.induced_trace_norm(S1 @ S2, samples=60, rng=rng)
        n1 = lv.induced_trace_norm(S1, samples=60, rng=rng)
        n2 = lv.induced_trace_norm(S2, samples=60, rng=rng)
        # sampled estimates are lower bounds; allow slack on the product side
        assert n12 <= n1 * n2 + 1e-9 + 0.05 * n1 * n2


def test_assert_density_matrix():
    rng = np.random.default_rng(18)
    lv.assert_density_matrix(rand_density_matrix(3, rng))
    with pytest.raises(ValueError):
        lv.assert_density_matrix(np.diag([0.6, 0.6]).astype(complex))
    with pytest.raises(ValueError):
        lv.assert_density_matrix(np.array([[1.2, 0], [0, -0.2]], dtype=complex))


def test_expm_accuracy_at_large_norm():
    # reference via eigendecomposition of a Hermitian input at norm 50
    rng = np.random.default_rng(19)
    H = rand_hermitian(5, rng)
    H *= 50.0 / np.linalg.norm(H, 2)
    w, V = np.linalg.eigh(H)
    ref = (V * np.exp(w)) @ V.conj().T
    got = lv.expm(H)
    assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max()
