"""Liouvillian spectral analysis: relaxing classification, steady states,
ergodic averages, and Spohn's commutant criterion.

Jordan structure is never computed explicitly; the eigenvalues with their
multiplicities are all the relaxing criterion needs.  Every routine works on
the exact-zero blocks of its matrix (see :mod:`openqdyn.liouville`): one
``eig`` or SVD per block, and a matrix that is one block takes the dense
call.  A Davies generator of a diagonal H_S splits into its Bohr-frequency
sectors (Albert & Jiang, PRA 89, 022118, 2014), its spectrum, kernel and
zero eigenprojector with it.  Eigenvalues are sorted by real part on the
zero-tolerance grid, then by imaginary part, so rounding noise does not order
a conjugate pair, then by exact real part, so that the order of the blocks
never orders the rows.
"""
from dataclasses import dataclass, field
from typing import List, NamedTuple

import numpy as np

from .errors import DegenerateSpectrumError, DimensionError
from .gksl import hamiltonian_superop
from .liouville import (
    _as_square,
    _block_cond,
    _block_diag,
    _blocks,
    _check_tol,
    _diagonal_blocks,
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


def _superop_scale(subs):
    """||L||_2 of a matrix from its diagonal blocks ``subs``: the largest
    singular value over all blocks."""
    return max(max(float(np.linalg.norm(B, 2)) for B in subs), 1e-300)


def _block_eig(L):
    """``(blocks, ||L||_2, [(w, V) per block])``: the exact-zero blocks of a
    square L, its 2-norm, and the ``eig`` of each diagonal block."""
    blocks = _blocks(L)
    subs = _diagonal_blocks(L, blocks)
    return blocks, _superop_scale(subs), [np.linalg.eig(B) for B in subs]


def liouvillian_spectrum(L, tol=DEFAULT_ZERO_TOL):
    """Full spectrum of a Liouvillian with zero-cluster identification.

    One ``eig`` call per exact-zero block of L; the zero cluster is
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
    _check_tol(tol)
    L = _as_square(L, "Liouvillian")
    _, scale, eigs = _block_eig(L)
    lam = np.concatenate([w for w, _ in eigs])
    grid = tol * scale
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
        diagonalizable=bool(_block_cond([V for _, V in eigs]) < 1e10),
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


def _hermitian_kernel_basis(L, blocks, subs, zero_tol):
    """Orthonormal Hermitian basis of ker L (closed under dagger for
    Hermiticity-preserving generators).  ker L is the direct sum of the
    kernels of the diagonal blocks ``subs`` of L: each block's right singular
    vectors with singular value at most ``zero_tol``, embedded into vectors
    of L's side."""
    null = []
    for b, B in zip(blocks, subs):
        _, s, Vh = np.linalg.svd(B)
        for i in np.flatnonzero(s <= zero_tol):
            v = np.zeros(len(L), dtype=complex)
            v[b] = Vh[i].conj()
            null.append(v)
    if not null:
        return [], 0
    kernel_dim = len(null)
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
    return basis[:kernel_dim], kernel_dim


def steady_states(L, tol=DEFAULT_ZERO_TOL, rng=None):
    """Steady states from the kernel of a trace-preserving Liouvillian.

    The kernel comes from one full SVD per exact-zero block of L: the null
    vectors of the blocks at ``tol * ||L||_2``.  Returns normalized PSD
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
    blocks = _blocks(L)
    subs = _diagonal_blocks(L, blocks)
    scale = _superop_scale(subs)
    rng = np.random.default_rng(7) if rng is None else rng
    basis, kernel_dim = _hermitian_kernel_basis(L, blocks, subs, tol * scale)
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
    and one inverse per exact-zero block of L; the projector is zero off
    those blocks.  Raises :class:`DegenerateSpectrumError` when the zero
    eigenspace is defective beyond tolerance.  ``tol`` must be finite and
    nonnegative (ValueError otherwise)."""
    _check_tol(tol)
    L = _as_square(L, "Liouvillian")
    blocks, scale, eigs = _block_eig(L)
    zero = [np.abs(w) <= tol * scale for w, _ in eigs]
    if not any(z.any() for z in zero):
        raise DegenerateSpectrumError("no zero eigenvalue found within tolerance")
    cond = _block_cond([V for _, V in eigs])
    if not np.isfinite(cond) or cond > 1e12:
        raise DegenerateSpectrumError(
            f"eigenvector matrix condition {cond:.2e}; zero eigenspace unresolved"
        )
    Ps = [V[:, z] @ np.linalg.inv(V)[z, :] for (_, V), z in zip(eigs, zero)]
    # geometric multiplicity must match the clustered algebraic one
    if max(np.abs(P @ P - P).max() for P in Ps) > 1e-6:
        raise DegenerateSpectrumError("zero eigenprojector is not idempotent within tolerance")
    return _block_diag(Ps, blocks)


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
    self_adjoint = all(any(np.abs(W - V.conj().T).max() <= tol * max(np.abs(V).max(), 1.0)
                           for W in jumps) for V in jumps)
    return SpohnReport(self_adjoint, commutant_dim, self_adjoint and commutant_dim == 1)
