"""Dense Liouville-space linear algebra and propagation primitives.

Vectorization convention (fixed package-wide): **column stacking**.  The
matrix unit |i><j| on an N-dimensional space maps to the basis vector with
index ``j*N + i``, and the superoperator of ``rho -> A rho B`` is
``kron(B.T, A)``.  All superoperator matrices produced anywhere in the
package are interchangeable under this convention.
"""
import numpy as np
import scipy.linalg

from .errors import DimensionError, MagnitudeError
from .operators import rand_density_matrix, rand_pure_state

#: default tolerance for Hermiticity checks (relative)
TOL_HERM = 1e-12
#: default tolerance for positive semidefiniteness (absolute on eigenvalues)
TOL_PSD = 1e-10


def _as_square(M, name="matrix"):
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {M.shape}")
    return M


def is_hermitian(M, tol=TOL_HERM):
    """Entrywise Hermiticity within a tolerance relative to the matrix scale."""
    M = _as_square(M)
    scale = max(np.abs(M).max(), 1.0)
    return np.abs(M - M.conj().T).max() <= tol * scale


def assert_density_matrix(rho, tol_herm=TOL_HERM, tol_trace=1e-12, tol_psd=TOL_PSD):
    """Validate the density-matrix invariants; raises ValueError on failure."""
    rho = _as_square(rho, "density matrix")
    if not is_hermitian(rho, tol_herm):
        raise ValueError("density matrix is not Hermitian within tolerance")
    tr = np.trace(rho)
    if abs(tr - 1.0) > tol_trace:
        raise ValueError(f"density matrix trace {tr} differs from 1 beyond {tol_trace}")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if w.min() < -tol_psd:
        raise ValueError(f"density matrix has negative eigenvalue {w.min():.3e}")
    return rho


def vectorize(A):
    """Column-stack a matrix into a vector: |i><j| -> basis index j*N+i."""
    A = _as_square(A, "operator")
    return A.reshape(-1, order="F")


def _vec_columns(ops):
    """Matrix whose columns are the column-stacked operators, in order."""
    return np.column_stack([vectorize(A) for A in ops])


def devectorize(v):
    """Inverse of :func:`vectorize`; length must be a perfect square."""
    v = np.asarray(v, dtype=complex).ravel()
    n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise DimensionError(f"vector length {v.size} is not a perfect square")
    return v.reshape((n, n), order="F")


def conjugation_superop(A, B):
    """Superoperator matrix of ``rho -> A rho B`` (column-stacking)."""
    A = _as_square(A, "A")
    B = _as_square(B, "B")
    if A.shape != B.shape:
        raise DimensionError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return np.kron(B.T, A)


def left_multiply_superop(A):
    """Superoperator of ``rho -> A rho``."""
    A = _as_square(A, "A")
    return np.kron(np.eye(A.shape[0]), A)


def right_multiply_superop(B):
    """Superoperator of ``rho -> rho B``."""
    B = _as_square(B, "B")
    return np.kron(B.T, np.eye(B.shape[0]))


def apply_superop(S, rho):
    """Apply a superoperator matrix to an operator."""
    return devectorize(np.asarray(S, dtype=complex) @ vectorize(rho))


def trace_norm(M):
    """Trace norm ||M||_1 = sum of singular values.

    For Hermitian input this equals the sum of absolute eigenvalues.
    """
    M = _as_square(M)
    return float(np.linalg.svd(M, compute_uv=False).sum())


def expm(M):
    """Matrix exponential e^M (scaling-and-squaring with Pade approximants).

    Accepts operators and superoperators alike.  Raises
    :class:`MagnitudeError` when the input is non-finite or the result
    overflows.
    """
    M = _as_square(M)
    if not np.all(np.isfinite(M)):
        raise MagnitudeError("matrix exponential of non-finite input")
    E = scipy.linalg.expm(M)
    if not np.all(np.isfinite(E)):
        raise MagnitudeError("matrix exponential overflowed; norm too extreme")
    return E


def propagate_semigroup(L, times, X):
    """``[expm(t*L) @ X for t in times]`` by stepping the semigroup.

    A time-independent generator gives a semigroup, e^{(t+s)L} = e^{tL} e^{sL},
    so each output is the step propagator e^{dt L} times the previous output.
    The exponential is computed once per distinct spacing; a spacing within a
    few ulps of the current step's (the rounding of a uniform grid) reuses it.
    ``X`` is a vector or a matrix; ``t = 0`` returns ``X`` itself.  Times must
    be nonnegative and strictly ascending (ValueError otherwise).
    """
    L = _as_square(L, "generator")
    times = [float(t) for t in times]
    if any(t < 0 for t in times) or any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("times must be nonnegative and strictly ascending")
    out, t_prev, dt, step = [], 0.0, None, None
    for t in times:
        d = t - t_prev
        if d > 0:
            if dt is None or abs(d - dt) > 4 * np.spacing(max(t, 1.0)):
                dt, step = d, expm(d * L)
            X = step @ X
        out.append(X)
        t_prev = t
    return out


def trotter_product(L1, L2, n):
    """First-order Lie-Trotter approximation (e^{L1/n} e^{L2/n})^n.

    Deviates from e^{L1+L2} at O(1/n) for non-commuting inputs and is exact
    for commuting ones.
    """
    L1 = _as_square(L1, "L1")
    L2 = _as_square(L2, "L2")
    if L1.shape != L2.shape:
        raise DimensionError(f"dimension mismatch: {L1.shape} vs {L2.shape}")
    if n < 1:
        raise ValueError("n must be a positive integer")
    step = expm(L1 / n) @ expm(L2 / n)
    return np.linalg.matrix_power(step, n)


def propagate_time_dependent(gen, t0, t1, steps):
    """Time-splitting propagator for a time-dependent generator.

    Evaluates the ordered product ``prod_{j=n-1..0} expm(dt * gen(t_j))`` on a
    uniform grid with the generator frozen at the left endpoint of each step.
    Converges to the time-ordered propagator as ``steps`` grows; the leading
    error is O(1/steps), so callers estimate accuracy by doubling ``steps``.
    """
    if t1 < t0:
        raise ValueError(f"t1={t1} must not precede t0={t0}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if t1 == t0:
        dim = _as_square(gen(t0), "generator output").shape[0]
        return np.eye(dim, dtype=complex)
    dt = (t1 - t0) / steps
    P = None
    for j in range(steps):
        G = _as_square(gen(t0 + j * dt), "generator output")
        if not np.all(np.isfinite(G)):
            raise MagnitudeError(f"generator non-finite at t={t0 + j * dt}")
        step = expm(dt * G)
        P = step if P is None else step @ P
    return P


def hs_basis(dim):
    """Orthonormal Hermitian operator basis (generalized Gell-Mann matrices).

    Ordered as: symmetric off-diagonal pairs, antisymmetric pairs, diagonal
    traceless elements, and the normalized identity 1/sqrt(N) last.  All
    elements except the last are traceless, and Tr(F_j^dag F_k) = delta_jk.
    """
    if dim < 2:
        raise ValueError("basis needs dimension >= 2")
    basis = []
    for j in range(dim):
        for k in range(j + 1, dim):
            F = np.zeros((dim, dim), dtype=complex)
            F[j, k] = F[k, j] = 1.0 / np.sqrt(2.0)
            basis.append(F)
    for j in range(dim):
        for k in range(j + 1, dim):
            F = np.zeros((dim, dim), dtype=complex)
            F[j, k] = -1.0j / np.sqrt(2.0)
            F[k, j] = 1.0j / np.sqrt(2.0)
            basis.append(F)
    for l in range(1, dim):
        F = np.zeros((dim, dim), dtype=complex)
        F[:l, :l] = np.eye(l)
        F[l, l] = -l
        basis.append(F / np.sqrt(l * (l + 1)))
    basis.append(np.eye(dim, dtype=complex) / np.sqrt(dim))
    return basis


def partial_trace(rho, dims, keep):
    """Reduced state of a bipartite operator.

    ``dims = (N_A, N_B)`` with the total space ordered as kron(A, B);
    ``keep`` selects the surviving factor (0 for A, 1 for B).
    """
    rho = _as_square(rho, "state")
    na, nb = dims
    if na * nb != rho.shape[0]:
        raise DimensionError(f"dims {dims} do not factor dimension {rho.shape[0]}")
    if keep not in (0, 1):
        raise ValueError("keep must be 0 (first factor) or 1 (second factor)")
    r = rho.reshape(na, nb, na, nb)
    return np.einsum("ikjk->ij", r) if keep == 0 else np.einsum("kikj->ij", r)


def sample_hermitian_directions(dim, samples, rng):
    """Hermitian test operators used for sampled induced-norm estimates.

    Mixes random density-matrix differences with pure-state projector
    differences; every element has unit trace norm up to normalization by the
    caller.
    """
    out = []
    for _ in range(samples // 2):
        out.append(rand_density_matrix(dim, rng) - rand_density_matrix(dim, rng))
    while len(out) < samples:
        p1 = rand_pure_state(dim, rng)
        p2 = rand_pure_state(dim, rng)
        out.append(np.outer(p1, p1.conj()) - np.outer(p2, p2.conj()))
    return out


def induced_trace_norm(S, samples=1000, rng=None, extra=()):
    """Sampled lower estimate of the induced trace norm of a superoperator.

    Maximizes ||S(sigma)||_1 / ||sigma||_1 over random Hermitian directions
    plus any ``extra`` operators supplied by the caller.  A sampled bound:
    values above 1 prove expansion, values at or below 1 are evidence only.
    """
    S = _as_square(S, "superoperator")
    dim = int(round(np.sqrt(S.shape[0])))
    rng = np.random.default_rng(0) if rng is None else rng
    best = 0.0
    for sigma in list(sample_hermitian_directions(dim, samples, rng)) + list(extra):
        denom = trace_norm(sigma)
        if denom < 1e-14:
            continue
        best = max(best, trace_norm(apply_superop(S, sigma)) / denom)
    return best
