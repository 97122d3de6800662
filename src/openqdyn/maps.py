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
from .liouville import _as_square, _vec_columns, hs_basis, induced_trace_norm, vectorize

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
    S, n = _map_dim(S)
    S4 = S.reshape(n, n, n, n)  # [l,k],[j,i]
    return np.transpose(S4, (3, 1, 2, 0)).reshape(n * n, n * n)


def superop_from_choi(C):
    """Inverse reshuffle of :func:`choi_of`."""
    C, n = _map_dim(C)
    C4 = C.reshape(n, n, n, n)  # [i,k],[j,l]
    return np.transpose(C4, (3, 1, 2, 0)).reshape(n * n, n * n)


class CPReport(NamedTuple):
    verdict: bool
    min_choi_eigenvalue: float
    hermiticity_preserving: bool


def is_cp(S, tol=DEFAULT_CP_TOL):
    """Complete-positivity check via the minimum Choi eigenvalue.

    verdict is True iff min eig(C) >= -tol * ||C||_op.  A map that is not
    Hermiticity-preserving (non-Hermitian Choi) is reported as such and fails.
    """
    C = choi_of(S)
    scale = max(np.linalg.norm(C, 2), 1e-300)
    herm = np.abs(C - C.conj().T).max() <= 1e-10 * max(scale, 1.0)
    if not herm:
        return CPReport(False, float("nan"), False)
    wmin = float(np.linalg.eigvalsh((C + C.conj().T) / 2.0).min())
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
    """Superoperator of rho -> sum_a K_a rho K_a^dag.

    Its Choi matrix is sum_a vec(K_a) vec(K_a)^dag = K K^dag, with K the
    matrix of column-stacked Kraus operators.
    """
    if not kraus:
        raise ValueError("empty Kraus set")
    kraus = [_as_square(K, "Kraus operator") for K in kraus]
    if any(K.shape != kraus[0].shape for K in kraus):
        raise DimensionError("Kraus operators have mixed dimensions")
    K = _vec_columns(kraus)
    return superop_from_choi(K @ K.conj().T)


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


def invert_map(S, cond_threshold=DEFAULT_COND_THRESHOLD):
    """Matrix inverse of a dynamical map.

    Note: the inverse of a non-unitary CPTP map is never CPTP itself; the
    ``forward_unitary`` flag tells whether the inverse is again physical.
    Raises :class:`SingularMapError` above the condition-number threshold,
    where any divisibility verdict would be numerically meaningless.
    """
    S, n = _map_dim(S)
    cond = float(np.linalg.cond(S))
    if not np.isfinite(cond) or cond > cond_threshold:
        raise SingularMapError(cond, cond_threshold)
    return MapInverse(np.linalg.inv(S), cond, is_unitary_conjugation(S))


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
    """
    times = [t for t, _ in family]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("sample times must be strictly increasing")
    report = DivisibilityReport()
    for (t1, E1), (t2, E2) in zip(family, family[1:]):
        iv = IntervalWitness(t_start=float(t1), t_end=float(t2))
        try:
            inv = invert_map(np.asarray(E1, dtype=complex), cond_threshold)
        except SingularMapError:
            iv.singular = True
            iv.label = "inconclusive (singular)"
            report.intervals.append(iv)
            continue
        intermediate = np.asarray(E2, dtype=complex) @ inv.sop
        cp = is_cp(intermediate, tol)
        iv.min_choi_eigenvalue = cp.min_choi_eigenvalue
        iv.cp = bool(cp.verdict)
        report.intervals.append(iv)
    return report
