"""Liouvillian spectral analysis: relaxing classification, steady states,
ergodic averages, and Spohn's commutant criterion.

Jordan structure is never computed explicitly; one eigendecomposition gives
the eigenvalues, which with multiplicities is all the relaxing criterion
needs.  Eigenvalues are sorted by real part on the zero-tolerance grid, then
by imaginary part, so rounding noise does not order a conjugate pair.
"""
from dataclasses import dataclass, field
from typing import List, NamedTuple

import numpy as np

from .errors import DegenerateSpectrumError, DimensionError
from .gksl import hamiltonian_superop
from .liouville import _as_square, _check_tol, apply_superop, devectorize, trace_norm, vectorize

DEFAULT_ZERO_TOL = 1e-9


@dataclass
class SpectralReport:
    eigenvalues: np.ndarray          # sorted by (real on the tolerance grid, imag)
    zero_multiplicity: int
    spectral_gap: float              # -max nonzero real part
    diagonalizable: bool
    zero_tolerance: float


def _superop_scale(L):
    return max(float(np.linalg.norm(L, 2)), 1e-300)


def liouvillian_spectrum(L, tol=DEFAULT_ZERO_TOL):
    """Full spectrum of a Liouvillian with zero-cluster identification.

    One ``eig`` call; the zero cluster is ``|lambda| <= tol * ||L||``.  The
    sort key is the real part divided by that tolerance and rounded (the real
    part itself when the tolerance is zero), then the imaginary part.
    The diagonalizability flag is a tolerance-level statement from the
    conditioning of the eigenvectors, not a Jordan-form computation.  ``tol``
    must be finite and nonnegative (ValueError otherwise).
    """
    _check_tol(tol)
    L = _as_square(L, "Liouvillian")
    scale = _superop_scale(L)
    lam, V = np.linalg.eig(L)
    grid = tol * scale
    re = np.round(lam.real / grid) if grid > 0 else lam.real
    lam = lam[np.lexsort((lam.imag, re))]
    zero_mask = np.abs(lam) <= grid
    zero_mult = int(zero_mask.sum())
    nonzero = lam[~zero_mask]
    gap = float(-nonzero.real.max()) if nonzero.size else float("inf")
    return SpectralReport(
        eigenvalues=lam,
        zero_multiplicity=zero_mult,
        spectral_gap=gap,
        diagonalizable=bool(np.linalg.cond(V) < 1e10),
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
    """Orthonormal Hermitian basis of ker L (closed under dagger for
    Hermiticity-preserving generators)."""
    L = np.asarray(L, dtype=complex)
    scale = _superop_scale(L)
    _, s, Vh = np.linalg.svd(L)
    null = [Vh[i].conj() for i in range(len(Vh)) if s[i] <= tol * scale]
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

    Returns normalized PSD kernel elements; for degenerate kernels a generic
    Hermitian kernel combination is eigendecomposed and its spectral
    projectors kept when they are themselves steady, which recovers the
    extreme points in the commuting case.  At least one state is always
    returned (the ergodic average of the maximally mixed state as fallback).
    ``tol`` must be finite and nonnegative (ValueError otherwise).
    """
    _check_tol(tol)
    L = _as_square(L, "Liouvillian")
    n = int(round(np.sqrt(L.shape[0])))
    scale = _superop_scale(L)
    rng = np.random.default_rng(7) if rng is None else rng
    basis, kernel_dim = _hermitian_kernel_basis(L, tol)
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
    eigenspace of L.  Raises :class:`DegenerateSpectrumError` when the zero
    eigenspace is defective beyond tolerance."""
    L = _as_square(L, "Liouvillian")
    scale = _superop_scale(L)
    w, V = np.linalg.eig(L)
    idx = np.where(np.abs(w) <= tol * scale)[0]
    if idx.size == 0:
        raise DegenerateSpectrumError("no zero eigenvalue found within tolerance")
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > 1e12:
        raise DegenerateSpectrumError(
            f"eigenvector matrix condition {cond:.2e}; zero eigenspace unresolved"
        )
    Vinv = np.linalg.inv(V)
    P = V[:, idx] @ Vinv[idx, :]
    # geometric multiplicity must match the clustered algebraic one
    if np.abs(P @ P - P).max() > 1e-6:
        raise DegenerateSpectrumError("zero eigenprojector is not idempotent within tolerance")
    return P


def ergodic_average(L, rho0, tol=DEFAULT_ZERO_TOL):
    """Long-time Cesaro mean of the evolution of rho0.

    Computed as the zero-eigenvalue spectral projector applied to rho0 (all
    decaying and oscillating eigenmodes average out).  The output is
    symmetrized and trace-normalized; it satisfies L(out) = 0 up to numerics.
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
    [V_k, X] = 0 solved over all N^2 unknowns of X.
    """
    if not jumps:
        raise ValueError("empty jump set")
    jumps = [_as_square(V, "jump") for V in jumps]
    if any(V.shape != jumps[0].shape for V in jumps):
        raise DimensionError("jump operators have mixed dimensions")
    M = np.vstack([1j * hamiltonian_superop(V) for V in jumps])    # X -> [V, X]
    s = np.linalg.svd(M, compute_uv=False)      # rows >= n^2, so len(s) = n^2
    scale = max(s.max(), 1e-300)
    commutant_dim = int(np.sum(s <= 1e-10 * scale))
    self_adjoint = all(any(np.abs(W - V.conj().T).max() <= tol * max(np.abs(V).max(), 1.0)
                           for W in jumps) for V in jumps)
    return SpohnReport(self_adjoint, commutant_dim, self_adjoint and commutant_dim == 1)
