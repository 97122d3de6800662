"""Markovian generators: GKSL form, Kossakowski matrix, canonical
diagonalization, and the generator-side positivity conditions (quantum and
classical).
"""
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import DimensionError
from .liouville import (
    TOL_HERM,
    TOL_PSD,
    _as_square,
    _check_tol,
    _hs_coordinates,
    _lindblad_superop,
    _vec_columns,
    devectorize,
    hs_basis,
    is_hermitian,
    vectorize,
)
from .maps import _map_dim, choi_of


def hamiltonian_superop(H):
    """Superoperator of the coherent part rho -> -i[H, rho]."""
    return _lindblad_superop(H)


def dissipator_superop(V):
    """Superoperator of the unit-rate dissipator
    rho -> V rho V^dag - (1/2){V^dag V, rho}."""
    V = _as_square(V, "jump operator")
    return _lindblad_superop(np.zeros_like(V), 0.5 * V.conj().T @ V, [V], np.eye(1))


@dataclass
class GKSLGenerator:
    """Canonical Markovian generator: Hamiltonian plus (rate, jump) pairs.

    Rates are required nonnegative by :meth:`validate`; time-dependent
    families with possibly negative instantaneous rates should be assembled
    directly from :func:`hamiltonian_superop` and :func:`dissipator_superop`
    and judged by the divisibility witness instead.
    """

    H: np.ndarray
    jumps: List[Tuple[float, np.ndarray]] = field(default_factory=list)

    def __post_init__(self):
        self.H = _as_square(self.H, "Hamiltonian")
        self.jumps = [(float(g), _as_square(V, "jump operator")) for g, V in self.jumps]
        for _, V in self.jumps:
            if V.shape != self.H.shape:
                raise DimensionError("jump operator dimension differs from Hamiltonian")

    @property
    def dim(self):
        return self.H.shape[0]

    def validate(self, tol_herm=TOL_HERM, tol_trace=1e-10):
        """Check the generator invariants; raises ValueError on violation."""
        if not is_hermitian(self.H, tol_herm):
            raise ValueError("Hamiltonian is not Hermitian within tolerance")
        for g, _ in self.jumps:
            if g < 0:
                raise ValueError(f"negative rate {g}")
        L = superop_of_generator(self)
        scale = max(np.abs(L).max(), 1.0)
        # Tr L(F_j) for every basis element F_j, as one row
        drift = _hs_coordinates(vectorize(np.eye(self.dim)) @ L)
        if np.abs(drift).max() > tol_trace * scale:
            raise ValueError("generator does not annihilate the trace")
        return self


def superop_of_generator(gen):
    """Liouvillian matrix of a GKSL generator: Q = (1/2) sum_k g_k V_k^dag V_k."""
    g = np.array([g for g, _ in gen.jumps])
    V = np.array([V for _, V in gen.jumps], dtype=complex).reshape(-1, gen.dim, gen.dim)
    Q = 0.5 * np.einsum("a,aji,ajk->ik", g, V.conj(), V)
    return _lindblad_superop(gen.H, Q, V, np.diag(g))


def time_dependent_superop(H_of_t, jumps_of_t):
    """Closure t -> Liouvillian for time-dependent Hamiltonians and
    (rate, jump) lists; feeds directly into the time-splitting propagator.

    Rates may go negative along the way (the family is then not Markovian in
    general); the divisibility witness is the arbiter in that case.
    """
    return lambda t: superop_of_generator(GKSLGenerator(H_of_t(t), jumps_of_t(t)))


@dataclass
class KossakowskiForm:
    """Generator data over a Hilbert-Schmidt basis: effective Hamiltonian plus
    the (N^2-1) x (N^2-1) coefficient matrix over the traceless elements."""

    H: np.ndarray
    a: np.ndarray
    basis: list


@dataclass
class NonGKSLDiagnosis:
    """Returned instead of a generator when the coefficient matrix fails PSD."""

    min_eigenvalue: float
    a: np.ndarray
    H: np.ndarray


def kossakowski_matrix(gen, basis=None):
    """Kossakowski coefficient matrix of a generator.

    Expands every jump over the traceless basis elements; identity components
    of the jumps are projected into the Hamiltonian part (they only generate a
    commutator term), so jumps need not be traceless on input.  The returned
    form reproduces the original dissipator exactly:
    ``sum_jk a_jk [F_j rho F_k^dag - ...] + (-i)[H, rho]``.
    """
    n = gen.dim
    basis = hs_basis(n) if basis is None else basis
    if len(basis) != n * n:
        raise DimensionError("basis size does not match generator dimension")
    traceless = _vec_columns(basis[:-1])
    a = np.zeros((n * n - 1, n * n - 1), dtype=complex)
    H_eff = gen.H.astype(complex).copy()
    for g, V in gen.jumps:
        d = np.trace(V) / n                      # identity component
        W = V - d * np.eye(n)
        v = traceless.conj().T @ vectorize(W)    # v_j = Tr(F_j^dag W)
        a += g * np.outer(v, v.conj())
        # D[W + d] = D[W] - i[(i/2)(d* W - d W^dag), rho]
        H_eff += g * 0.5j * (np.conj(d) * W - d * W.conj().T)
    return KossakowskiForm(H=H_eff, a=a, basis=basis)


def kossakowski_of_superop(L, basis=None):
    """Kossakowski form extracted from a raw trace-annihilating,
    Hermiticity-preserving superoperator.

    Expands L over the sandwich basis F_j . F_k^dag.  The Choi matrix of
    rho -> F_j rho F_k^dag is vec(F_j) vec(F_k)^dag, so with F the matrix of
    column-stacked basis elements, choi(L) = F chi F^dag and, F being
    unitary, chi = F^dag choi(L) F.  With the identity/sqrt(N) element last,
    the traceless block of chi is exactly the Kossakowski matrix, and the
    identity column/row carry the Hamiltonian and normalization parts.
    """
    L, n = _map_dim(L)
    basis = hs_basis(n) if basis is None else basis
    F = _vec_columns(basis)
    chi = F.conj().T @ choi_of(L) @ F
    # Hamiltonian part from the identity column (see the canonical-form
    # construction): G = (1/sqrt(N)) sum_j chi[j, -1] F_j, H = (i/2)(G - G^dag)
    G = devectorize(F[:, :-1] @ chi[:-1, -1]) / np.sqrt(n)
    return KossakowskiForm(H=0.5j * (G - G.conj().T), a=chi[:-1, :-1], basis=basis)


def canonical_form(kf, tol_psd=TOL_PSD):
    """Diagonalize a Kossakowski form into canonical (rate, jump) pairs.

    Jumps are normalized to unit Hilbert-Schmidt norm with the norm absorbed
    into the rate; eigenvalues below the truncation threshold are dropped.
    If any eigenvalue is negative beyond ``tol_psd * ||a||`` the input does
    not describe a GKSL generator and a :class:`NonGKSLDiagnosis` is returned
    instead.
    """
    a = _as_square(kf.a, "coefficient matrix")
    if not is_hermitian(a, 1e-10):
        raise ValueError("coefficient matrix must be Hermitian")
    w, U = np.linalg.eigh((a + a.conj().T) / 2.0)
    scale = max(abs(w).max(), 1e-300)
    if w.min() < -tol_psd * scale:
        return NonGKSLDiagnosis(min_eigenvalue=float(w.min()), a=a, H=kf.H)
    traceless = _vec_columns(kf.basis[:-1])
    jumps = []
    for m in range(len(w)):
        if w[m] <= 1e-14 * scale:
            continue
        W = devectorize(traceless @ U[:, m])
        norm = np.linalg.norm(W)
        if norm < 1e-14:
            continue
        jumps.append((float(w[m]) * norm**2, W / norm))
    jumps.sort(key=lambda gv: -gv[0])
    return GKSLGenerator(H=kf.H, jumps=jumps)


class PartitionViolation(NamedTuple):
    partition_index: int
    kind: str          # "diagonal", "off-diagonal", or "column-sum"
    indices: Tuple[int, int]
    value: float


@dataclass
class KossakowskiConditionsReport:
    passed: bool
    first_violation: Optional[PartitionViolation]
    matrices: List[np.ndarray]


def _check_partition(P_list, dim, tol):
    total = sum(P_list)
    if np.abs(total - np.eye(dim)).max() > tol:
        raise ValueError("projectors do not resolve the identity")
    for i, P in enumerate(P_list):
        if np.abs(P @ P - P).max() > 1e-8 or not is_hermitian(P, 1e-8):
            raise ValueError(f"element {i} is not an orthogonal projector")


def check_kossakowski_conditions(L, partitions, tol=1e-10):
    """Generator-side contraction conditions over resolutions of the identity.

    For each partition builds A_ij = Tr[P_i L(P_j)] and verifies the three
    conditions: nonpositive diagonal, nonnegative off-diagonal, vanishing
    column sums.  A sampled check: passing is evidence, a failure is a
    counterexample.  Reports the first violation found.  ``tol`` must be
    finite and nonnegative (ValueError otherwise).
    """
    _check_tol(tol)
    L = _as_square(L, "generator")
    dim = int(round(np.sqrt(L.shape[0])))
    scale = max(np.abs(L).max(), 1.0)
    matrices = []
    violation = None
    for p_idx, P_list in enumerate(partitions):
        _check_partition(P_list, dim, 1e-8)
        P = _vec_columns(P_list)
        A = (P.conj().T @ L @ P).real            # A_ij = Tr[P_i L(P_j)]
        matrices.append(A)
        if violation is None:
            violation = _first_violation(p_idx, A, tol * scale)
    return KossakowskiConditionsReport(violation is None, violation, matrices)


def _first_violation(p_idx, A, bound):
    """First broken condition of A: kinds in order diagonal, off-diagonal,
    column-sum, and row-major order within a kind."""
    diag = np.flatnonzero(np.diag(A) > bound)
    if diag.size:
        i = int(diag[0])
        return PartitionViolation(p_idx, "diagonal", (i, i), A[i, i])
    off = np.argwhere((A < -bound) & ~np.eye(len(A), dtype=bool))
    if off.size:
        i, j = (int(x) for x in off[0])
        return PartitionViolation(p_idx, "off-diagonal", (i, j), A[i, j])
    sums = A.sum(axis=0)
    cols = np.flatnonzero(np.abs(sums) > bound)
    if cols.size:
        j = int(cols[0])
        return PartitionViolation(p_idx, "column-sum", (j, j), sums[j])
    return None


def random_partitions(dim, count, rng, include_computational=True):
    """Sample resolutions of the identity: eigenbases of random Hermitian
    matrices, optionally preceded by the computational basis."""
    from .operators import rand_hermitian

    partitions = []
    if include_computational:
        partitions.append([np.diag(row).astype(complex) for row in np.eye(dim)])
    for _ in range(count - len(partitions)):
        _, V = np.linalg.eigh(rand_hermitian(dim, rng))
        partitions.append([np.outer(V[:, k], V[:, k].conj()) for k in range(dim)])
    return partitions


def eigenbasis_partition(H):
    """Resolution of the identity from the eigenbasis of a Hermitian matrix."""
    _, V = np.linalg.eigh(_as_square(H))
    return [np.outer(V[:, k], V[:, k].conj()) for k in range(V.shape[1])]


def classical_generator_check(Q, tol=1e-10):
    """Kolmogorov conditions for a classical Markov generator.

    True iff diagonal entries <= tol, off-diagonal entries >= -tol, and every
    row sums to zero within tol (so e^{tQ} is a stochastic matrix).
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise DimensionError(f"expected a square real matrix, got {Q.shape}")
    scale = max(np.abs(Q).max(), 1.0)
    if np.diag(Q).max() > tol * scale:
        return False
    off = Q - np.diag(np.diag(Q))
    if off.min() < -tol * scale:
        return False
    return bool(np.abs(Q.sum(axis=1)).max() <= tol * scale)
