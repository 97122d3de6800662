"""Liouvillian spectral analysis: relaxing classification, steady states,
ergodic averages, and Spohn's commutant criterion.

Jordan structure is never computed explicitly; the eigenvalues with their
multiplicities are all the relaxing criterion needs.  Every routine but
``spohn_check`` holds its matrix in the block format of
:mod:`openqdyn.liouville` (its exact-zero blocks, stacked by size) and makes
one batched ``eig`` or SVD call per block size; a matrix that is one block
takes the dense call.  A Davies generator of a diagonal H_S splits into its
Bohr-frequency sectors (Albert & Jiang, PRA 89, 022118, 2014), its spectrum,
kernel and zero eigenprojector with it.  ``spohn_check`` takes one SVD per
column block of its rectangular commutator system.  Eigenvalues are sorted by
real part on the zero-tolerance grid, then by imaginary part, so rounding
noise does not order a conjugate pair, then by exact real part, so that the
order of the blocks never orders the rows.
"""
from dataclasses import dataclass, field
from typing import List, NamedTuple

import numpy as np

from .errors import DegenerateSpectrumError, DimensionError
from .gksl import hamiltonian_superop
from .liouville import (
    _as_square,
    _blocks,
    _check_tol,
    _cond,
    _dense,
    _size_groups,
    _take,
    apply_superop,
    devectorize,
    trace_norm,
    vectorize,
)

DEFAULT_ZERO_TOL = 1e-9


@dataclass
class SpectralReport:
    eigenvalues: np.ndarray          # sorted by (real on the tolerance grid, imag, real)
    zero_multiplicity: int
    spectral_gap: float              # -max nonzero real part
    diagonalizable: bool
    zero_tolerance: float


def _block_eig(L, tol):
    """``(groups, eigs, grid)`` of a Liouvillian: its exact-zero blocks by
    size (:func:`liouville._size_groups`), one ``eig`` pair (w, V) per block
    size, and the zero-cluster radius ``tol * ||L||_2``, with ||L||_2 the
    largest block 2-norm.  ``tol`` must be finite and nonnegative (ValueError
    otherwise)."""
    _check_tol(tol)
    L = _as_square(L, "Liouvillian")
    groups = _size_groups(_blocks(L))
    subs = _take(groups, [L])
    eigs = [np.linalg.eig(S) for S in subs]
    grid = tol * max(max(float(np.linalg.norm(S, 2, axis=(-2, -1)).max()) for S in subs), 1e-300)
    return groups, eigs, grid


def liouvillian_spectrum(L, tol=DEFAULT_ZERO_TOL):
    """Full spectrum of a Liouvillian with zero-cluster identification.

    One ``eig`` call per block size of L; the zero cluster is
    ``|lambda| <= tol * ||L||_2``, with ||L||_2 the largest singular value
    over the blocks.  The sort key is the real part divided by that tolerance
    and rounded (the real part itself when the tolerance is zero), then the
    imaginary part, then the real part, so that equal keys hold equal
    eigenvalues and the rows do not depend on the order of the blocks.
    The diagonalizability flag is a tolerance-level statement from the
    conditioning of the eigenvectors, not a Jordan-form computation: the
    condition number of the block-diagonal eigenvector matrix, the largest
    singular value over all blocks over the smallest, below 1e10.  ``tol``
    must be finite and nonnegative (ValueError otherwise).
    """
    _, eigs, grid = _block_eig(L, tol)
    lam = np.concatenate([w.ravel() for w, _ in eigs])
    re = np.round(lam.real / grid) if grid > 0 else lam.real
    lam = lam[np.lexsort((lam.real, lam.imag, re))]
    zero_mask = np.abs(lam) <= grid
    zero_mult = int(zero_mask.sum())
    nonzero = lam[~zero_mask]
    gap = float(-nonzero.real.max()) if nonzero.size else float("inf")
    return SpectralReport(
        eigenvalues=lam,
        zero_multiplicity=zero_mult,
        spectral_gap=gap,
        diagonalizable=bool(_cond([V for _, V in eigs])[0] < 1e10),
        zero_tolerance=grid,
    )


class RelaxingReport(NamedTuple):
    verdict: bool
    reason: str                      # "relaxing" | "degenerate-zero" | "imaginary-eigenvalues"
    report: SpectralReport


def is_relaxing(L, tol=DEFAULT_ZERO_TOL):
    """Relaxing-semigroup criterion: nondegenerate zero eigenvalue and a
    strictly positive spectral gap."""
    rep = liouvillian_spectrum(L, tol)
    if rep.zero_multiplicity != 1:
        return RelaxingReport(False, "degenerate-zero", rep)
    if not rep.spectral_gap > rep.zero_tolerance:
        return RelaxingReport(False, "imaginary-eigenvalues", rep)
    return RelaxingReport(True, "relaxing", rep)


@dataclass
class SteadyStateResult:
    states: List[np.ndarray]
    kernel_dimension: int
    kernel_basis: List[np.ndarray] = field(default_factory=list)


def _hermitian_kernel_basis(L, tol):
    """``(basis, kernel_dim, ||L||_2)``: an orthonormal Hermitian basis of
    ker L (closed under dagger for Hermiticity-preserving generators), its
    dimension, and the largest singular value of L.  ker L is the direct sum
    of the kernels of the exact-zero blocks of L: one full SVD call per block
    size, and each block's right singular vectors with singular value at most
    ``tol * ||L||_2``, embedded into vectors of L's side and taken in the
    order of the blocks (:func:`liouville._blocks`), not of their sizes."""
    groups = _size_groups(_blocks(L))
    svds = [np.linalg.svd(S[0]) for S in _take(groups, [L])]
    scale = max(max(float(s.max()) for _, s, _ in svds), 1e-300)
    null = []
    for B, (_, s, Vh) in zip(groups, svds):
        for b, sb, Vb in zip(B, s, Vh):
            for i in np.flatnonzero(sb <= tol * scale):
                v = np.zeros(len(L), dtype=complex)
                v[b] = Vb[i].conj()
                null.append((b[0], v))
    null = [v for _, v in sorted(null, key=lambda e: e[0])]     # stable: keeps i order
    candidates = []
    for v in null:
        X = devectorize(v)
        candidates.append(X + X.conj().T)
        candidates.append(1j * (X - X.conj().T))
    basis = []
    for X in candidates:
        for B in basis:
            X = X - np.trace(B.conj().T @ X) * B
        norm = np.sqrt(np.trace(X.conj().T @ X).real)
        if norm > 1e-10:
            basis.append(X / norm)
    return basis[:len(null)], len(null), scale


def steady_states(L, tol=DEFAULT_ZERO_TOL, rng=None):
    """Steady states from the kernel of a trace-preserving Liouvillian.

    The kernel comes from one full SVD call per block size of L: the null
    vectors of the exact-zero blocks at ``tol * ||L||_2``.  Returns normalized PSD
    kernel elements; for degenerate kernels a generic Hermitian kernel
    combination is eigendecomposed and its spectral projectors kept when they
    are themselves steady, which recovers the extreme points in the commuting
    case.  At least one state is always returned (the ergodic average of the
    maximally mixed state as fallback).
    ``tol`` must be finite and nonnegative (ValueError otherwise).
    """
    _check_tol(tol)
    L = _as_square(L, "Liouvillian")
    n = int(round(np.sqrt(L.shape[0])))
    rng = np.random.default_rng(7) if rng is None else rng
    basis, kernel_dim, scale = _hermitian_kernel_basis(L, tol)
    states = []

    def try_add(X):
        tr = np.trace(X).real
        if abs(tr) < 1e-10:
            return
        rho = (X + X.conj().T) / (2.0 * tr)
        w = np.linalg.eigvalsh(rho)
        if w.min() < -1e-8:
            return
        for other in states:
            if trace_norm(rho - other) < 1e-8:
                return
        states.append(rho)

    for X in basis:
        try_add(X)
    if kernel_dim > 1 and basis:
        coeffs = rng.standard_normal(len(basis))
        Z = sum(c * B for c, B in zip(coeffs, basis))
        w, V = np.linalg.eigh(Z)
        groups = []
        for val, k in zip(w, range(len(w))):
            if groups and abs(val - groups[-1][0]) < 1e-8 * max(1.0, abs(w).max()):
                groups[-1][1].append(k)
            else:
                groups.append((val, [k]))
        for _, idxs in groups:
            P = sum(np.outer(V[:, k], V[:, k].conj()) for k in idxs)
            if trace_norm(apply_superop(L, P)) <= 1e-7 * scale * max(trace_norm(P), 1.0):
                try_add(P)
    if not states:
        try_add(ergodic_average(L, np.eye(n, dtype=complex) / n))
    return SteadyStateResult(states=states, kernel_dimension=kernel_dim, kernel_basis=basis)


def zero_eigenprojector(L, tol=DEFAULT_ZERO_TOL):
    """Spectral projector (as a superoperator) onto the zero-eigenvalue
    eigenspace of L, ``|lambda| <= tol * ||L||_2``.  Built from one ``eig``
    and one inverse call per block size of L; the projector is zero off the
    exact-zero blocks.  Raises :class:`DegenerateSpectrumError` when the zero
    eigenspace is defective beyond tolerance.  ``tol`` must be finite and
    nonnegative (ValueError otherwise)."""
    groups, eigs, grid = _block_eig(L, tol)
    zero = [np.abs(w) <= grid for w, _ in eigs]
    if not any(z.any() for z in zero):
        raise DegenerateSpectrumError("no zero eigenvalue found within tolerance")
    cond = _cond([V for _, V in eigs])[0]
    if not np.isfinite(cond) or cond > 1e12:
        raise DegenerateSpectrumError(
            f"eigenvector matrix condition {cond:.2e}; zero eigenspace unresolved"
        )
    Ps = [np.linalg.inv(V) for _, V in eigs]
    for (_, V), z, P in zip(eigs, zero, Ps):
        for j in np.ndindex(z.shape[:-1]):          # P[j] is inv(V[j]) until here
            P[j] = V[j][:, z[j]] @ P[j][z[j], :]
    # geometric multiplicity must match the clustered algebraic one
    if max(np.abs(P @ P - P).max() for P in Ps) > 1e-6:
        raise DegenerateSpectrumError("zero eigenprojector is not idempotent within tolerance")
    return _dense(groups, Ps, 0)


def ergodic_average(L, rho0, tol=DEFAULT_ZERO_TOL):
    """Long-time Cesaro mean of the evolution of rho0.

    Computed as the zero-eigenvalue spectral projector applied to rho0 (all
    decaying and oscillating eigenmodes average out).  The output is
    symmetrized and trace-normalized; it satisfies L(out) = 0 up to numerics.
    ``tol`` must be finite and nonnegative (ValueError otherwise).
    """
    P = zero_eigenprojector(L, tol)
    out = devectorize(P @ vectorize(np.asarray(rho0, dtype=complex)))
    out = (out + out.conj().T) / 2.0
    tr = np.trace(out).real
    if abs(tr) > 1e-12:
        out = out / tr
    return out


class SpohnReport(NamedTuple):
    self_adjoint_set: bool
    commutant_dim: int
    relaxing_guaranteed: bool


def spohn_check(jumps, tol=1e-12):
    """Spohn's relaxation criterion on a jump-operator set.

    The set must be closed under the adjoint and have trivial commutant
    (only multiples of the identity commute with every jump); then any GKSL
    generator with these jumps and strictly positive rates is relaxing.  The
    commutant dimension is the nullity of the stacked linear system
    M vec(X) = 0, M = [i ad V_k]_k, over all N^2 unknowns of X: the number of
    singular values of M at most 1e-10 times the largest.  They come from the
    column blocks of M, the connected components of the unknowns that share
    an equation: one SVD per block, on the rows it touches (all of M when it
    is one block), and a zero singular value for each column of a block
    beyond its row count.  ``tol``, for the
    adjoint pairing, must be finite and nonnegative (ValueError otherwise).
    """
    _check_tol(tol)
    if not jumps:
        raise ValueError("empty jump set")
    jumps = [_as_square(V, "jump") for V in jumps]
    if any(V.shape != jumps[0].shape for V in jumps):
        raise DimensionError("jump operators have mixed dimensions")
    M = np.vstack([1j * hamiltonian_superop(V) for V in jumps])    # X -> [V, X]
    nz = M != 0
    blocks = _blocks(nz.T.astype(float) @ nz)      # the unknowns that share an equation
    s = []
    for b in blocks:
        Mb = M if len(blocks) == 1 else M[np.ix_(np.flatnonzero(nz[:, b].any(axis=1)), b)]
        sb = np.linalg.svd(Mb, compute_uv=False)
        s.append(np.concatenate([sb, np.zeros(len(b) - len(sb))]))
    s = np.concatenate(s)                          # the n^2 singular values of M
    scale = max(s.max(), 1e-300)
    commutant_dim = int(np.sum(s <= 1e-10 * scale))
    stack = np.array(jumps)                        # each V against every W at once
    self_adjoint = all((np.abs(stack - V.conj().T).max(axis=(1, 2))
                        <= tol * max(np.abs(V).max(), 1.0)).any() for V in stack)
    return SpohnReport(self_adjoint, commutant_dim, self_adjoint and commutant_dim == 1)
