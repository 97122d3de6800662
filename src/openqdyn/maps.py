"""Dynamical maps: Choi/Kraus representations, CP/TP verification, inversion,
and the divisibility (Markovianity) witness.

A dynamical map is represented by its superoperator matrix under the global
column-stacking convention.  Maps may be unphysical; the checks here classify
them rather than assume validity.

Choi convention (unnormalized): ``C = sum_ij |i><j| (x) E(|i><j|)``, so a
trace-preserving map has Tr C = N and the identity map's Choi is N times the
maximally entangled projector.

The Choi spectrum, the guarded inverse and the divisibility witness hold
their maps in the block format of :mod:`openqdyn.liouville`; a sampled map
family is blocked once, on the union exact-zero pattern of its maps.
"""
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from .errors import DimensionError, NotCompletelyPositiveError, SingularMapError
from .liouville import (
    _as_square,
    _blocks,
    _check_count,
    _check_tol,
    _cond,
    _dense,
    _hs_coordinates,
    _operator_sum_superop,
    _reshuffle,
    _semigroup_blocks,
    _size_groups,
    _take,
    _taylor_expm,
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
    The eigenvalues come from the exact-zero blocks of C, which follow from
    those of S (:func:`_choi_blocks`), one ``eigvalsh`` call per block size.
    ``tol`` must be finite and nonnegative (ValueError otherwise).
    """
    _check_tol(tol)
    S, _ = _map_dim(S)
    groups = _size_groups(_blocks(S))
    return _cp_reports(_choi_blocks(groups), _take(groups, [S]), tol)[0]


def _choi_blocks(groups):
    """The exact-zero blocks of the Choi matrix of any map that is zero off
    the blocks ``groups`` (as from :func:`liouville._size_groups`), as
    gather indices: per Choi block size, the (g, m, m) positions of the Choi
    blocks' entries among the map's block entries (the stacks of
    :func:`liouville._take`, each flattened, in group order), or their count
    where the entry lies off the map's blocks.  The Choi blocks are those of
    the reshuffled pattern of the map's blocks, found once for every map that
    shares them."""
    side = sum(B.size for B in groups)
    pos, start = np.full((side, side), sum(B.size * B.shape[1] for B in groups)), 0
    for B in groups:
        pos[B[:, :, None], B[:, None, :]] = np.arange(start, start + B.size * B.shape[1]).reshape(
            B.shape + B.shape[1:])
        start += B.size * B.shape[1]
    pos = _reshuffle(pos)                       # the map entry of each Choi entry
    return [pos[G[:, :, None], G[:, None, :]] for G in _size_groups(_blocks(pos != start))]


def _cp_reports(choi, stacks, tol):
    """:func:`is_cp` of each map of the block ``stacks`` (per group a (K, g,
    m, m) stack, as from :func:`liouville._take`), whose Choi blocks
    ``choi`` come from :func:`_choi_blocks`: the K reports, from one
    ``eigvalsh`` call per Choi block size."""
    K = len(stacks[0])
    if not K:
        return []
    entries = np.concatenate([S.reshape(K, -1) for S in stacks] + [np.zeros((K, 1))], axis=1)
    w, dev = [], []
    for idx in choi:
        C = entries[:, idx]
        Ch = C.conj().swapaxes(-1, -2)
        dev.append(np.abs(C - Ch).max(axis=(1, 2, 3)))
        w.append(np.linalg.eigvalsh((C + Ch) / 2.0).reshape(K, -1))
    w = np.concatenate(w, axis=1)
    scale = np.maximum(np.abs(w).max(axis=1), 1e-300)
    # C is zero off its blocks, so it is Hermitian iff each block is
    herm = np.max(dev, axis=0) <= 1e-10 * np.maximum(scale, 1.0)
    wmin = w.min(axis=1)
    return [CPReport(bool(v >= -tol * c), float(v), True) if h else
            CPReport(False, float("nan"), False) for v, c, h in zip(wmin, scale, herm)]


def is_trace_preserving(S, tol=1e-10):
    """True iff |Tr E(F_j) - Tr F_j| <= tol * max(max|S_ij|, 1) for every
    Hilbert-Schmidt basis element F_j (:func:`liouville.hs_basis`), whose
    coordinates come in closed form (:func:`liouville._hs_coordinates`).
    ``tol`` must be finite and nonnegative (ValueError otherwise)."""
    _check_tol(tol)
    S, n = _map_dim(S)
    scale = max(np.abs(S).max(), 1.0)
    tr = vectorize(np.eye(n))                    # Tr X = tr . vec(X)
    return bool(np.abs(_hs_coordinates(tr @ S - tr)).max() <= tol * scale)


class ContractionReport(NamedTuple):
    max_ratio: float
    verdict: bool


def contraction_check(S, samples=200, rng=None, tol=1e-10):
    """Sampled trace-norm contraction test.

    Maximizes ||E(sigma)||_1 / ||sigma||_1 over random Hermitian operators
    (density-matrix mixtures and pure-projector differences).  A ratio above
    1 proves the map is not a contraction; a ratio <= 1 is evidence only.
    The directions are drawn and judged in batches
    (:func:`liouville.induced_trace_norm`).  ``samples`` must be a positive
    integer and ``tol`` finite and nonnegative (ValueError otherwise).
    """
    _check_count(samples, "samples")
    _check_tol(tol)
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
    """True iff the map is conjugation by a unitary (superoperator unitary).
    ``tol`` must be finite and nonnegative (ValueError otherwise)."""
    _check_tol(tol)
    S, n = _map_dim(S)
    return np.abs(S @ S.conj().T - np.eye(n * n)).max() <= tol * n


def _chunks(count, groups):
    """The sample numbers ``0..count-1`` in batches of as many samples as the
    blocks of one dense map hold, so that a one-block family goes one sample
    at a time."""
    step = max(1, sum(B.size for B in groups) ** 2 // sum(B.size * B.shape[1] for B in groups))
    return np.split(np.arange(count), np.arange(step, count, step))


class _BlockFamily(NamedTuple):
    """A sampled map family held by its exact-zero blocks: every map is zero
    off the blocks of ``groups`` (as from :func:`liouville._size_groups`), and
    ``take(idx)`` gives, as :func:`liouville._take` does, the blocks of the samples
    numbered in the integer array ``idx``.  :func:`divisibility_witness`
    takes one in place of a list of ``(t, E)``."""
    times: np.ndarray
    groups: Optional[list]
    take: Callable


def _block_family(family):
    """A list of ``(t, E)`` as a :class:`_BlockFamily` on the union exact-zero
    pattern of its maps; a _BlockFamily as it is.  Times must be finite and
    strictly increasing (ValueError), the maps square of one side
    (:class:`DimensionError`)."""
    if isinstance(family, _BlockFamily):
        return family
    times = np.array([t for t, _ in family], dtype=float)
    if not np.all(np.isfinite(times)) or np.any(np.diff(times) <= 0):
        raise ValueError("sample times must be finite and strictly increasing")
    maps = [_map_dim(E)[0] for _, E in family]
    if not maps:
        return _BlockFamily(times, None, None)
    if any(E.shape != maps[0].shape for E in maps):
        raise DimensionError("the maps of a family have mixed sides")
    pattern = np.zeros(maps[0].shape, dtype=bool)
    for E in maps:
        pattern |= E != 0
    groups = _size_groups(_blocks(pattern))
    return _BlockFamily(times, groups, lambda idx: _take(groups, [maps[k] for k in idx]))


def _generator_family(L, times, stepped=False):
    """The family ``(t, e^{tL})`` over ``times`` as a :class:`_BlockFamily` on
    the exact-zero blocks of L, built without a dense map: with ``stepped``,
    by :func:`liouville._semigroup_blocks` from the diagonal blocks of the
    identity (times finite, nonnegative and strictly ascending); otherwise
    each map exponentiated on its own, one :func:`liouville._taylor_expm`
    call per block size for all times."""
    L = _as_square(L, "generator")
    groups = _size_groups(_blocks(L))
    times = np.array(times, dtype=float)
    if stepped:
        eye = [S[0] for S in _take(groups, [np.eye(len(L), dtype=complex)])]
        stacks = [np.empty((len(times),) + I.shape, dtype=complex) for I in eye]
        for k, E in enumerate(_semigroup_blocks(L, groups, times, eye)):
            for S, Eb in zip(stacks, E):
                S[k] = Eb
    else:
        stacks = [times[:, None, None, None] * S for S in _take(groups, [L])]
        for E in stacks:
            _taylor_expm(E, out=E)
    return _BlockFamily(times, groups, lambda idx: [S[idx] for S in stacks])


def _guarded_inverse(stacks, cond_threshold):
    """Guarded inverses of a stack of maps held by their blocks (per group a
    (K, g, m, m) stack, as from :func:`liouville._take`): ``(cond, ok,
    inverses)``.

    ``cond[k]`` is the 2-norm condition number of map k (:func:`liouville._cond`);
    ``ok[k]`` tells whether it is at most ``cond_threshold``; ``inverses``
    holds the blocks of the inverses of the maps with ``ok``, stacked like
    ``stacks``.  One SVD call and one inverse call per group.
    """
    cond = _cond(stacks)
    ok = cond <= cond_threshold
    return cond, ok, [np.linalg.inv(S if ok.all() else S[ok]) for S in stacks]  # no copy if all pass


def invert_map(S, cond_threshold=DEFAULT_COND_THRESHOLD):
    """Matrix inverse of a dynamical map.

    Note: the inverse of a non-unitary CPTP map is never CPTP itself; the
    ``forward_unitary`` flag tells whether the inverse is again physical.
    Raises :class:`SingularMapError` when the 2-norm condition number is not
    finite or exceeds the threshold, where any divisibility verdict would be
    numerically meaningless.  The condition number and the inverse come from
    the exact-zero blocks of S (see :func:`divisibility_witness`).
    """
    S, _ = _map_dim(S)
    groups = _size_groups(_blocks(S))
    cond, ok, inv = _guarded_inverse(_take(groups, [S]), cond_threshold)
    if not ok[0]:
        raise SingularMapError(cond[0], cond_threshold)
    return MapInverse(_dense(groups, inv, 0), float(cond[0]), is_unitary_conjugation(S))


@dataclass
class IntervalWitness:
    t_start: float
    t_end: float
    min_choi_eigenvalue: float = float("nan")
    cp: Optional[bool] = None       # None = inconclusive (singular interval)
    singular: bool = False
    label: str = ""
    condition: float = float("nan")  # 2-norm condition number of E(t_start)


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

    ``family`` is a list of ``(t_i, E_i)`` with finite, strictly increasing
    times (ValueError otherwise) and maps of one side (DimensionError), each
    ``E_i`` the map from the initial time to ``t_i``.  For each consecutive
    pair the intermediate map ``E_{i+1} E_i^{-1}`` is formed and its minimum
    Choi eigenvalue reported (:func:`is_cp`), with the condition number of
    ``E_i``; the family is Markovian on the sampled grid iff every
    intermediate map is CP.  An ``E_i`` whose condition number is not finite
    or exceeds ``cond_threshold`` marks its interval inconclusive instead of
    failing the whole run.  ``tol`` must be finite and nonnegative
    (ValueError otherwise).

    Every map is zero off the exact-zero blocks of the family's union
    pattern, so the condition numbers, inverses and products are taken per
    block, batched over the blocks of one size and over as many samples as
    fit the bytes of one dense map, and each batch of intermediate maps is
    judged on its Choi blocks (:func:`_cp_reports`) without a dense map.
    """
    _check_tol(tol)
    times, groups, take = _block_family(family)
    report = DivisibilityReport()
    if len(times) < 2:
        return report
    choi = _choi_blocks(groups)
    for k in _chunks(len(times) - 1, groups):
        cond, ok, inv = _guarded_inverse(take(k), cond_threshold)
        mids = [S @ Si for S, Si in zip(take(k[ok] + 1), inv)]
        cps = iter(_cp_reports(choi, mids, tol))
        for i, c, good in zip(k, cond, ok):
            iv = IntervalWitness(float(times[i]), float(times[i + 1]), condition=float(c))
            if good:
                cp = next(cps)
                iv.min_choi_eigenvalue, iv.cp = cp.min_choi_eigenvalue, cp.verdict
            else:
                iv.singular, iv.label = True, "inconclusive (singular)"
            report.intervals.append(iv)
    return report
