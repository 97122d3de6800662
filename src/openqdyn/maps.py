"""Dynamical maps: Choi/Kraus representations, CP/TP verification, inversion,
and the divisibility (Markovianity) witness.

A dynamical map is represented by its superoperator matrix under the global
column-stacking convention.  Maps may be unphysical; the checks here classify
them rather than assume validity.

Choi convention (unnormalized): ``C = sum_ij |i><j| (x) E(|i><j|)``, so a
trace-preserving map has Tr C = N and the identity map's Choi is N times the
maximally entangled projector.
"""
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

import numpy as np

from .errors import DimensionError, NotCompletelyPositiveError, SingularMapError
from .liouville import (
    _as_square,
    _block_cond,
    _block_diag,
    _blocks,
    _check_tol,
    _diagonal_blocks,
    _operator_sum_superop,
    _reshuffle,
    _vec_columns,
    hs_basis,
    induced_trace_norm,
    vectorize,
)

DEFAULT_CP_TOL = 1e-10
DEFAULT_COND_THRESHOLD = 1e10


def _map_dim(S):
    S = _as_square(S, "superoperator")
    n = int(round(np.sqrt(S.shape[0])))
    if n * n != S.shape[0]:
        raise DimensionError(f"superoperator side {S.shape[0]} is not a perfect square")
    return S, n


def choi_of(S):
    """Choi matrix C = sum_ij |i><j| (x) E(|i><j|) of a superoperator.

    Linear in the map.  Implemented as an index reshuffle of the
    column-stacked superoperator: C[(i,k),(j,l)] = S[(l,k),(j,i)].
    """
    return _reshuffle(_map_dim(S)[0])


def superop_from_choi(C):
    """Inverse reshuffle of :func:`choi_of`."""
    return _reshuffle(_map_dim(C)[0])


class CPReport(NamedTuple):
    verdict: bool
    min_choi_eigenvalue: float
    hermiticity_preserving: bool


def is_cp(S, tol=DEFAULT_CP_TOL):
    """Complete-positivity check via the minimum Choi eigenvalue.

    verdict is True iff min eig(C) >= -tol * ||C||_op, with ||C||_op taken
    from the eigenvalues of the Hermitian part of C.  A map that is not
    Hermiticity-preserving (non-Hermitian Choi) is reported as such and fails.
    The eigenvalues come from the exact-zero blocks of C, one block at a time.
    ``tol`` must be finite and nonnegative (ValueError otherwise).
    """
    _check_tol(tol)
    C = choi_of(S)
    subs = _diagonal_blocks(C, _blocks(C))
    w = np.concatenate([np.linalg.eigvalsh((B + B.conj().T) / 2.0) for B in subs])
    scale = max(np.abs(w).max(), 1e-300)
    # C is zero off its blocks, so it is Hermitian iff each block is
    herm = max(np.abs(B - B.conj().T).max() for B in subs) <= 1e-10 * max(scale, 1.0)
    if not herm:
        return CPReport(False, float("nan"), False)
    wmin = float(w.min())
    return CPReport(wmin >= -tol * scale, wmin, True)


def is_trace_preserving(S, tol=1e-10):
    """True iff |Tr E(F_j) - Tr F_j| <= tol * max(max|S_ij|, 1) for every
    Hilbert-Schmidt basis element F_j."""
    S, n = _map_dim(S)
    scale = max(np.abs(S).max(), 1.0)
    tr = vectorize(np.eye(n))                    # Tr X = tr . vec(X)
    drift = (tr @ S - tr) @ _vec_columns(hs_basis(n))
    return bool(np.abs(drift).max() <= tol * scale)


class ContractionReport(NamedTuple):
    max_ratio: float
    verdict: bool


def contraction_check(S, samples=200, rng=None, tol=1e-10):
    """Sampled trace-norm contraction test.

    Maximizes ||E(sigma)||_1 / ||sigma||_1 over random Hermitian operators
    (density-matrix mixtures and pure-projector differences).  A ratio above
    1 proves the map is not a contraction; a ratio <= 1 is evidence only.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    S, _ = _map_dim(S)
    best = induced_trace_norm(S, samples, rng)
    return ContractionReport(best, best <= 1.0 + tol)


def kraus_from_choi(C, tol=DEFAULT_CP_TOL):
    """Kraus operators from the eigendecomposition of a PSD Choi matrix.

    Operators are sorted by descending weight and truncated below 1e-12 so the
    output is deterministic; at most N^2 operators are returned.  A Choi
    eigenvalue below ``-tol * ||C||_op`` raises
    :class:`NotCompletelyPositiveError` carrying the witness.
    """
    C, n = _map_dim(C)
    scale = max(np.linalg.norm(C, 2), 1e-300)
    w, V = np.linalg.eigh((C + C.conj().T) / 2.0)
    if w.min() < -tol * scale:
        raise NotCompletelyPositiveError(w.min())
    kraus = []
    order = np.argsort(w)[::-1]
    for idx in order:
        if w[idx] <= 1e-12:
            continue
        kraus.append(np.sqrt(w[idx]) * V[:, idx].reshape(n, n, order="F"))
    return kraus


def map_from_kraus(kraus):
    """Superoperator of rho -> sum_a K_a rho K_a^dag."""
    if not kraus:
        raise ValueError("empty Kraus set")
    kraus = [_as_square(K, "Kraus operator") for K in kraus]
    if any(K.shape != kraus[0].shape for K in kraus):
        raise DimensionError("Kraus operators have mixed dimensions")
    return _operator_sum_superop(kraus, np.eye(len(kraus)), kraus)


def kraus_of(S, tol=DEFAULT_CP_TOL):
    """Kraus decomposition of a CP superoperator (shorthand composition)."""
    return kraus_from_choi(choi_of(S), tol=tol)


class MapInverse(NamedTuple):
    sop: np.ndarray
    condition: float
    forward_unitary: bool


def is_unitary_conjugation(S, tol=1e-10):
    """True iff the map is conjugation by a unitary (superoperator unitary)."""
    S, n = _map_dim(S)
    return np.abs(S @ S.conj().T - np.eye(n * n)).max() <= tol * n


def _guarded_inverse(S, cond_threshold):
    """``(inverse, condition number)`` of a map; raises
    :class:`SingularMapError` when the condition number is not finite or
    exceeds ``cond_threshold``.

    Works on the exact-zero blocks of S: the condition number is the largest
    singular value over all blocks divided by the smallest, and each block
    is inverted on its own.
    """
    S, _ = _map_dim(S)
    blocks = _blocks(S)
    subs = _diagonal_blocks(S, blocks)
    cond = _block_cond(subs)
    if not np.isfinite(cond) or cond > cond_threshold:
        raise SingularMapError(cond, cond_threshold)
    return _block_diag([np.linalg.inv(B) for B in subs], blocks), cond


def invert_map(S, cond_threshold=DEFAULT_COND_THRESHOLD):
    """Matrix inverse of a dynamical map.

    Note: the inverse of a non-unitary CPTP map is never CPTP itself; the
    ``forward_unitary`` flag tells whether the inverse is again physical.
    Raises :class:`SingularMapError` above the condition-number threshold,
    where any divisibility verdict would be numerically meaningless.
    """
    inv, cond = _guarded_inverse(S, cond_threshold)
    return MapInverse(inv, cond, is_unitary_conjugation(S))


@dataclass
class IntervalWitness:
    t_start: float
    t_end: float
    min_choi_eigenvalue: float = float("nan")
    cp: Optional[bool] = None       # None = inconclusive (singular interval)
    singular: bool = False
    label: str = ""


@dataclass
class DivisibilityReport:
    intervals: List[IntervalWitness] = field(default_factory=list)

    @property
    def markovian(self):
        """True iff every sampled intermediate map passed the CP check.

        Only a statement about the sampled grid; singular intervals, or no
        intervals at all (a single sample), make the verdict None
        (inconclusive).
        """
        if not self.intervals or any(iv.singular for iv in self.intervals):
            return None
        return all(iv.cp for iv in self.intervals)


def divisibility_witness(family, tol=1e-10, cond_threshold=DEFAULT_COND_THRESHOLD):
    """CP-divisibility witness for a sampled map family.

    ``family`` is a list of ``(t_i, E_i)`` with strictly increasing times,
    each ``E_i`` the map from the initial time to ``t_i``.  For each
    consecutive pair the intermediate map ``E_{i+1} E_i^{-1}`` is formed and
    its minimum Choi eigenvalue reported; the family is Markovian on the
    sampled grid iff every intermediate map is CP.  Non-invertible samples
    mark their interval inconclusive instead of failing the whole run.
    ``tol`` must be finite and nonnegative (ValueError otherwise).
    """
    _check_tol(tol)
    times = [t for t, _ in family]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("sample times must be strictly increasing")
    report = DivisibilityReport()
    for (t1, E1), (t2, E2) in zip(family, family[1:]):
        iv = IntervalWitness(t_start=float(t1), t_end=float(t2))
        try:
            inv, _ = _guarded_inverse(E1, cond_threshold)
        except SingularMapError:
            iv.singular = True
            iv.label = "inconclusive (singular)"
            report.intervals.append(iv)
            continue
        intermediate = np.asarray(E2, dtype=complex) @ inv
        cp = is_cp(intermediate, tol)
        iv.min_choi_eigenvalue = cp.min_choi_eigenvalue
        iv.cp = bool(cp.verdict)
        report.intervals.append(iv)
    return report
