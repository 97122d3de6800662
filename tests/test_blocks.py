"""Exact-zero blocking of the Liouville algebra.

``expm``, ``propagate_semigroup``, the guarded map inverse, ``is_cp``, the
routines of ``spectra`` and the map-family routines (``divisibility_witness``,
``tcl_from_family``) work on the connected components of a matrix's exact
nonzero pattern.  The dense code they replace is kept here as the oracle:
blocked and dense results agree within 1e-12 relative (eigenvalues within
their conditioning), and a matrix that is one block gives bitwise the dense
result.  For ``expm`` the dense call is the package's own kernel
``liouville._taylor_expm``; ``scipy.linalg.expm`` stays the 1e-12 oracle.
"""
import itertools
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from openqdyn import cli, gksl, maps, nonmarkov, spectra
from openqdyn import liouville as lv
from openqdyn import weakcoupling as wc
from openqdyn.errors import DegenerateSpectrumError, SingularMapError
from openqdyn.operators import rand_hermitian

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
REL = 1e-12


# -- the dense code that the blocked paths replace ---------------------------

def dense_expm(M):
    return scipy.linalg.expm(np.asarray(M, dtype=complex))


def dense_guarded_inverse(S, cond_threshold):
    S = np.asarray(S, dtype=complex)
    cond = float(np.linalg.cond(S))
    if not np.isfinite(cond) or cond > cond_threshold:
        raise SingularMapError(cond, cond_threshold)
    return np.linalg.inv(S), cond


def dense_witness(family, tol=1e-10, cond_threshold=maps.DEFAULT_COND_THRESHOLD):
    """Per interval: the condition number of E1 and, unless it is singular,
    ``is_cp(E2 @ inv(E1))`` on the dense maps."""
    out = []
    for (_, E1), (_, E2) in zip(family, family[1:]):
        cond = float(np.linalg.cond(E1))
        singular = not cond <= cond_threshold
        out.append((cond, None if singular else maps.is_cp(E2 @ np.linalg.inv(E1), tol)))
    return out


def dense_tcl(family, cond_threshold=1e10):
    """Central-difference local generators, one dense inverse per sample."""
    times = [t for t, _ in family]
    gens = []
    for i, (_, E) in enumerate(family):
        j0, j1 = max(i - 1, 0), min(i + 1, len(family) - 1)
        dE = (family[j1][1] - family[j0][1]) / (times[j1] - times[j0])
        cond = np.linalg.cond(E)
        gens.append(dE @ np.linalg.inv(E) if cond <= cond_threshold else None)
    return gens


def dense_is_cp(S, tol=maps.DEFAULT_CP_TOL):
    C = maps.choi_of(S)
    scale = max(np.linalg.norm(C, 2), 1e-300)
    if np.abs(C - C.conj().T).max() > 1e-10 * max(scale, 1.0):
        return maps.CPReport(False, float("nan"), False)
    wmin = float(np.linalg.eigvalsh((C + C.conj().T) / 2.0).min())
    return maps.CPReport(wmin >= -tol * scale, wmin, True)


# -- inputs --------------------------------------------------------------------

def _scale(M):
    return max(np.abs(M).max(), 1.0)


def _permuted_blocks(sizes, rng, make):
    """Block-diagonal matrix with ``make(size)`` blocks, under a random
    permutation; returns the matrix and its blocks as index sets."""
    n = sum(sizes)
    M = np.zeros((n, n), dtype=complex)
    perm = rng.permutation(n)
    blocks, start = [], 0
    for s in sizes:
        idx = perm[start:start + s]
        M[np.ix_(idx, idx)] = make(s)
        blocks.append(frozenset(idx.tolist()))
        start += s
    return M, blocks


def _gaussian(rng, shift=0.0):
    def make(s):
        # nonzero everywhere, so that each block is one component
        B = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s)) + shift * np.eye(s)
        return np.where(B == 0, 1.0, B)
    return make


def _hermitian(rng):
    def make(s):
        B = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
        B = np.where(B == 0, 1.0, B)
        return (B + B.conj().T) / 2.0
    return make


def _sizes(total):
    """Partitions of ``total`` into block sizes, 1 x 1 blocks and one full
    block included."""
    return st.lists(st.integers(1, total), min_size=1, max_size=total).map(
        lambda parts: _partition(total, parts))


def _partition(total, parts):
    sizes = []
    for p in parts:
        p = min(p, total - sum(sizes))
        if p:
            sizes.append(p)
    if sum(sizes) < total:
        sizes.append(total - sum(sizes))
    return sizes


def _davies_superop(seed, temperature):
    """Davies generator of a random ``single`` model whose H is diagonal with
    a degenerate spectrum (levels drawn from {0, 1, 2})."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    H = np.diag(rng.integers(0, 3, dim).astype(float))
    n_couplings = int(rng.integers(1, 3))
    system = wc.SystemModel(H, [rand_hermitian(dim, rng) for _ in range(n_couplings)], "single")
    bath = wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=temperature)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # near-colliding Bohr bins only warn
        gen = wc.davies_generator(system, bath)
    return gksl.superop_of_generator(gen.base)


# -- the helper ------------------------------------------------------------------

def test_blocks_of_permuted_block_matrix():
    rng = np.random.default_rng(3)
    M, blocks = _permuted_blocks([3, 1, 4, 1, 2], rng, _gaussian(rng))
    found = lv._blocks(M)
    singles = frozenset().union(*(b for b in blocks if len(b) == 1))
    assert {frozenset(b.tolist()) for b in found} == \
        {b for b in blocks if len(b) > 1} | {singles}
    assert all(np.all(np.diff(b) > 0) for b in found)
    assert [b[0] for b in found] == sorted(b[0] for b in found)


def test_blocks_edge_cases():
    assert [b.tolist() for b in lv._blocks(np.ones((3, 3)))] == [[0, 1, 2]]
    assert [b.tolist() for b in lv._blocks(np.zeros((1, 1)))] == [[0]]
    # the 1 x 1 components form one diagonal block
    assert [b.tolist() for b in lv._blocks(np.zeros((3, 3)))] == [[0, 1, 2]]
    assert [b.tolist() for b in lv._blocks(np.diag([1.0, 2.0, 3.0]))] == [[0, 1, 2]]
    M = np.eye(4)
    M[3, 1] = 1.0
    assert [b.tolist() for b in lv._blocks(M)] == [[0, 2], [1, 3]]
    # one-sided couplings connect: the pattern is symmetrised
    chain = np.diag(np.ones(4)) + np.diag(np.ones(3), 1)
    assert [b.tolist() for b in lv._blocks(chain)] == [[0, 1, 2, 3]]
    # a path through the last index joins the first two
    M = np.eye(4)
    M[0, 3] = M[3, 1] = 1.0
    assert [b.tolist() for b in lv._blocks(M)] == [[0, 1, 3], [2]]
    # exact zeros only: tiny entries still connect, and -0.0 does not
    M = np.eye(3)
    M[0, 2], M[1, 2] = 1e-300, -0.0
    assert [b.tolist() for b in lv._blocks(M)] == [[0, 2], [1]]


def test_osc_generator_splits_into_sectors():
    system = wc.damped_oscillator(6)
    bath = wc.BathModel.ohmic(coupling=0.05, omega_c=3.0, temperature=1.0)
    L = gksl.superop_of_generator(wc.davies_generator(system, bath).base)
    blocks = lv._blocks(L)
    # sectors m - n = k of side 6 - |k|; the two of side 1 form one block
    assert sorted(len(b) for b in blocks) == [2, 2, 2, 3, 3, 4, 4, 5, 5, 6]
    E = lv.expm(0.2 * L)
    assert all(len(b) <= 6 for b in lv._blocks(E))


@pytest.mark.parametrize("sizes", [[3, 1, 4, 1, 2], [2, 2, 2], [6]],
                         ids=["mixed", "one_size", "one_block"])
def test_take_of_an_array_is_take_of_its_maps(sizes):
    """An (K, n, n) array gives the stacks of its list of maps, bitwise, and
    every stack is C-contiguous, so an in-place Taylor call reaches it."""
    rng = np.random.default_rng(5)
    M, _ = _permuted_blocks(sizes, rng, _gaussian(rng))
    stack = np.array([M * (k + 1.5j) for k in range(4)])
    groups = lv._size_groups(lv._blocks(M))
    for got, ref in zip(lv._take(groups, stack), lv._take(groups, list(stack)), strict=True):
        assert np.array_equal(got, ref)
        assert got.flags.c_contiguous and ref.flags.c_contiguous


# -- one block: bitwise the dense result -----------------------------------------

@pytest.mark.parametrize("zeros", [False, True], ids=["no_zero", "connected_with_zeros"])
def test_one_block_is_bitwise_dense(zeros):
    rng = np.random.default_rng(11)
    M = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    if zeros:
        M[np.triu_indices(9, 2)] = 0.0        # lower Hessenberg: connected
    assert len(lv._blocks(M)) == 1
    assert np.array_equal(lv.expm(M), lv._taylor_expm(M))
    inv, cond, _ = maps.invert_map(M, 1e10)
    assert cond == np.linalg.cond(M)
    assert np.array_equal(inv, np.linalg.inv(M))
    C = maps.choi_of(M @ M.conj().T)
    S = maps.superop_from_choi((C + C.conj().T) / 2.0)
    ref = np.linalg.eigvalsh((maps.choi_of(S) + maps.choi_of(S).conj().T) / 2.0).min()
    assert maps.is_cp(S).min_choi_eigenvalue == ref


def test_blocked_singular_map_reports_infinite_condition():
    S = np.diag([1.0, 2.0, 0.0, 3.0])
    with pytest.raises(SingularMapError) as exc:
        maps.invert_map(S, 1e10)
    assert exc.value.condition == np.inf
    with pytest.raises(SingularMapError) as exc:
        maps.invert_map(np.zeros((4, 4)), 1e10)
    assert exc.value.condition == np.inf


# -- the oracle ------------------------------------------------------------------

def _assert_expm_matches(M):
    E = lv.expm(M)
    ref = dense_expm(M)
    assert np.abs(E - ref).max() <= REL * _scale(ref)


def _assert_inverse_matches(S):
    try:
        ref_inv, ref_cond = dense_guarded_inverse(S, 1e10)
    except SingularMapError:
        with pytest.raises(SingularMapError):
            maps.invert_map(S, 1e10)
        return
    inv, cond, _ = maps.invert_map(S, 1e10)
    # the dense SVD fixes the smallest singular value only to eps * sigma_max,
    # so on an ill-conditioned map the oracle itself is good to eps * cond
    rel = max(REL, np.finfo(float).eps * ref_cond)
    assert abs(cond - ref_cond) <= rel * ref_cond
    assert np.abs(inv - ref_inv).max() <= rel * _scale(ref_inv)


def _assert_cp_matches(S):
    got, ref = maps.is_cp(S), dense_is_cp(S)
    assert got.hermiticity_preserving == ref.hermiticity_preserving
    assert got.verdict == ref.verdict
    if ref.hermiticity_preserving:
        scale = _scale(maps.choi_of(S))
        assert abs(got.min_choi_eigenvalue - ref.min_choi_eigenvalue) <= REL * scale


@PROPERTY
@given(st.sampled_from([2, 3]).flatmap(lambda N: _sizes(N * N)), SEEDS)
def test_blocked_algebra_matches_dense_on_permuted_blocks(sizes, seed):
    rng = np.random.default_rng(seed)
    M, _ = _permuted_blocks(sizes, rng, _gaussian(rng))
    _assert_expm_matches(M)
    S, _ = _permuted_blocks(sizes, rng, _gaussian(rng, shift=4.0))
    _assert_inverse_matches(S)
    C, blocks = _permuted_blocks(sizes, rng, _hermitian(rng))
    _assert_cp_matches(maps.superop_from_choi(C))
    for b in blocks:          # one block that is not Hermitian, each in turn
        k = min(b)
        C_b = C.copy()
        C_b[k, k] += 1e-3j
        _assert_cp_matches(maps.superop_from_choi(C_b))
    # a vector, as the CLI's evolve passes, and a rectangular matrix
    n, times = len(M), [0.0, 0.25, 0.5, 1.0]
    for shape in [(n,), (n, 3)]:
        X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = lv.propagate_semigroup(M, times, X)
        assert got[0] is X
        for t_prev, t, G in zip(times, times[1:], got[1:]):
            X = dense_expm((t - t_prev) * M) @ X
            assert G.shape == shape
            assert np.abs(G - X).max() <= REL * _scale(X)


@PROPERTY
@given(SEEDS, st.sampled_from([0.0, 1.0]), st.floats(min_value=0.05, max_value=3.0))
def test_blocked_algebra_matches_dense_on_davies_maps(seed, temperature, t):
    L = _davies_superop(seed, temperature)
    _assert_expm_matches(t * L)
    E = lv.expm(t * L)
    _assert_inverse_matches(E)
    _assert_cp_matches(E)
    times = [0.0, t / 2, t, 2 * t]
    got = lv.propagate_semigroup(L, times, np.eye(L.shape[0], dtype=complex))
    step, X = dense_expm(t / 2 * L), np.eye(L.shape[0], dtype=complex)
    for k, G in enumerate(got):
        assert np.abs(G - X).max() <= REL * _scale(X)
        X = step @ X if k < 2 else dense_expm(t * L) @ X


def test_davies_maps_of_degenerate_spectra_are_blocked():
    """The oracle above compares blocked and dense paths on these maps; make
    sure it is not comparing the dense path with itself."""
    counts = [len(lv._blocks(_davies_superop(seed, 1.0))) for seed in range(8)]
    assert max(counts) > 1


# -- spectra: the dense code that the blocked routines replace ----------------------

def dense_spectrum(L, tol=spectra.DEFAULT_ZERO_TOL):
    """``(report, cond(V))`` from one ``eig`` of the whole matrix, with ||L||_2
    and cond(V) from dense SVDs and rows sorted by (real on the grid, imag)."""
    L = np.asarray(L, dtype=complex)
    scale = max(float(np.linalg.norm(L, 2)), 1e-300)
    lam, V = np.linalg.eig(L)
    grid = tol * scale
    re = np.round(lam.real / grid) if grid > 0 else lam.real
    lam = lam[np.lexsort((lam.imag, re))]
    zero = np.abs(lam) <= grid
    gap = float(-lam[~zero].real.max()) if np.count_nonzero(~zero) else float("inf")
    cond = np.linalg.cond(V)
    return spectra.SpectralReport(lam, int(zero.sum()), gap, bool(cond < 1e10), grid), cond


def dense_kernel_basis(L, tol=spectra.DEFAULT_ZERO_TOL):
    """Hermitian basis of ker L from one full SVD of the whole matrix."""
    L = np.asarray(L, dtype=complex)
    scale = max(float(np.linalg.norm(L, 2)), 1e-300)
    _, s, Vh = np.linalg.svd(L)
    return _hermitian_basis([Vh[i].conj() for i in range(len(Vh)) if s[i] <= tol * scale])


def _hermitian_basis(null):
    """The Hermitian kernel basis that ``steady_states`` builds from the null
    vectors ``null``, in their order."""
    candidates = []
    for v in null:
        X = lv.devectorize(v)
        candidates.append(X + X.conj().T)
        candidates.append(1j * (X - X.conj().T))
    basis = []
    for X in candidates:
        for B in basis:
            X = X - np.trace(B.conj().T @ X) * B
        norm = np.sqrt(np.trace(X.conj().T @ X).real)
        if norm > 1e-10:
            basis.append(X / norm)
    return basis[:len(null)]


def dense_zero_eigenprojector(L, tol=spectra.DEFAULT_ZERO_TOL):
    L = np.asarray(L, dtype=complex)
    scale = max(float(np.linalg.norm(L, 2)), 1e-300)
    w, V = np.linalg.eig(L)
    idx = np.where(np.abs(w) <= tol * scale)[0]
    if idx.size == 0:
        raise DegenerateSpectrumError("no zero eigenvalue found within tolerance")
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > 1e12:
        raise DegenerateSpectrumError("zero eigenspace unresolved")
    P = V[:, idx] @ np.linalg.inv(V)[idx, :]
    if np.abs(P @ P - P).max() > 1e-6:
        raise DegenerateSpectrumError("zero eigenprojector is not idempotent")
    return P


def dense_commutant_dim(jumps):
    M = np.vstack([1j * gksl.hamiltonian_superop(V) for V in jumps])
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s <= 1e-10 * max(s.max(), 1e-300)))


# -- spectra: inputs -------------------------------------------------------------------

def _with_zero_eigenvalue(rng):
    """Blocks as ``_gaussian``; the first one is shifted by one of its
    eigenvalues, so that the matrix has one (rounding-level) zero eigenvalue."""
    gaussian, made = _gaussian(rng), []

    def make(s):
        B = gaussian(s)
        if not made:
            B = B - np.linalg.eigvals(B)[0] * np.eye(s)
        made.append(s)
        return B
    return make


def _davies(n_levels, temperature):
    """A damped oscillator's Davies generator: equidistant levels, so its
    Bohr frequencies are degenerate; and its jump operators."""
    gen = wc.davies_generator(wc.damped_oscillator(n_levels),
                              wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=temperature))
    return gen.superoperator(), [V for _, V in gen.base.jumps]


def _custom_model(seed):
    """Davies generator and jumps of a 4-level model in a random basis: the
    superoperator has no zero entry and is one block."""
    rng = np.random.default_rng(seed)
    system = wc.SystemModel(rand_hermitian(4, rng), [rand_hermitian(4, rng)], "single")
    gen = wc.davies_generator(system, wc.BathModel.ohmic(coupling=0.1, omega_c=3.0,
                                                         temperature=1.0))
    return gen.superoperator(), [V for _, V in gen.base.jumps]


# -- spectra: the oracle ------------------------------------------------------------

def _assert_spectrum_matches(L):
    got = spectra.liouvillian_spectrum(L)
    ref, cond = dense_spectrum(L)
    scale = ref.zero_tolerance / spectra.DEFAULT_ZERO_TOL
    # the eigenvalues as multisets, paired one to one; each is fixed to about
    # eps * cond(V) * ||L|| by either eig
    dist = np.abs(got.eigenvalues[:, None] - ref.eigenvalues[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert dist[rows, cols].max() <= max(REL, 100 * np.finfo(float).eps * cond) * scale
    assert got.zero_multiplicity == ref.zero_multiplicity
    assert got.diagonalizable == ref.diagonalizable
    assert abs(got.zero_tolerance - ref.zero_tolerance) <= REL * ref.zero_tolerance
    assert abs(got.spectral_gap - ref.spectral_gap) <= max(REL, 100 * np.finfo(float).eps * cond) * scale


def _assert_zero_projector_matches(L):
    try:
        ref = dense_zero_eigenprojector(L)
    except DegenerateSpectrumError:
        with pytest.raises(DegenerateSpectrumError):
            spectra.zero_eigenprojector(L)
        return
    assert np.abs(spectra.zero_eigenprojector(L) - ref).max() <= 1e-10 * _scale(ref)


def _kernel_projector(basis):
    Q = lv._vec_columns(basis) if basis else np.zeros((0, 0))
    return Q @ Q.conj().T


def _one_block():
    """``spectra`` with every matrix taken as one block: the dense calls."""
    return mock.patch.object(spectra, "_blocks", lambda M: [np.arange(len(M))])


def _assert_same_states(got, ref):
    assert len(got) == len(ref)
    assert all(lv.trace_norm(a - b) <= 1e-8 for a, b in zip(got, ref))


def _assert_steady_states_match(L):
    """The same kernel dimension and span, and the same states, in the same
    order, as the dense calls give; each is a steady density matrix, and a
    unique one is the dense kernel element."""
    got, ref = spectra.steady_states(L), dense_kernel_basis(L)
    assert got.kernel_dimension == len(ref)
    if ref:
        assert np.abs(_kernel_projector(got.kernel_basis) - _kernel_projector(ref)).max() <= 1e-10
    assert got.states
    for rho in got.states:
        lv.assert_density_matrix(rho, tol_trace=1e-10, tol_psd=1e-8)
        assert lv.trace_norm(lv.apply_superop(L, rho)) <= 1e-8 * np.linalg.norm(L, 2)
    with _one_block():
        _assert_same_states(spectra.steady_states(L).states, got.states)
    if len(ref) == 1:
        assert len(got.states) == 1
        assert lv.trace_norm(got.states[0] - ref[0] / np.trace(ref[0])) <= 1e-10


@PROPERTY
@given(st.sampled_from([2, 3]).flatmap(lambda N: _sizes(N * N)), SEEDS)
def test_blocked_spectrum_matches_dense_on_permuted_blocks(sizes, seed):
    rng = np.random.default_rng(seed)
    L, _ = _permuted_blocks(sizes, rng, _with_zero_eigenvalue(rng))
    _assert_spectrum_matches(L)
    _assert_zero_projector_matches(L)
    assert spectra.steady_states(L).kernel_dimension == len(dense_kernel_basis(L))


@PROPERTY
@given(SEEDS, st.sampled_from([0.0, 1.0]))
def test_blocked_spectra_match_dense_on_davies_generators(seed, temperature):
    L = _davies_superop(seed, temperature)
    _assert_spectrum_matches(L)
    _assert_zero_projector_matches(L)
    _assert_steady_states_match(L)


def _degenerate_davies(n, sparse, temperature, seed):
    """Davies superoperator of a ``single`` model with H = diag of levels
    drawn from {0, 1, 2} and one or two Hermitian couplings, dense or with
    about half of their entries zero."""
    rng = np.random.default_rng(seed)
    H = np.diag(rng.integers(0, 3, n).astype(float))
    couplings = []
    for _ in range(int(rng.integers(1, 3))):
        keep = np.triu(rng.random((n, n)) < 0.5) if sparse else np.ones((n, n), dtype=bool)
        couplings.append(np.where(keep | keep.T, rand_hermitian(n, rng), 0.0))
    bath = wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=temperature)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # near-colliding Bohr bins only warn
        return wc.davies_generator(wc.SystemModel(H, couplings, "single"), bath).superoperator()


@settings(PROPERTY, max_examples=80)
@given(st.integers(3, 5), st.booleans(), st.sampled_from([0.0, 1.0]), SEEDS)
def test_steady_states_are_one_per_block_in_any_kernel_basis(n, sparse, temperature, seed):
    """Exactly degenerate levels, so the kernel is often degenerate: the list
    is the same for every ``rng``, with one block, and in a rotated kernel
    basis.  The kernel elements commute exactly when every block is
    classical (no coherence, no noiseless subsystem), and then there is one
    state per kernel dimension."""
    L = _degenerate_davies(n, sparse, temperature, seed)
    got = spectra.steady_states(L)
    for s in (1, 2):
        _assert_same_states(spectra.steady_states(L, rng=np.random.default_rng(s)).states,
                            got.states)
    with _one_block():
        _assert_same_states(spectra.steady_states(L).states, got.states)
    O, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((got.kernel_dimension,) * 2))
    kernel_basis = spectra._hermitian_kernel_basis
    rotated = lambda L, tol: ([sum(o * B for o, B in zip(row, kernel_basis(L, tol)[0]))
                               for row in O], len(O))
    with mock.patch.object(spectra, "_hermitian_kernel_basis", rotated):
        _assert_same_states(spectra.steady_states(L).states, got.states)
    for rho in got.states:
        lv.assert_density_matrix(rho, tol_trace=1e-10, tol_psd=1e-8)
        assert lv.trace_norm(lv.apply_superop(L, rho)) <= 1e-8 * np.linalg.norm(L, 2)
    for a, b in itertools.combinations(got.states, 2):
        assert abs(np.trace(a @ b)) <= 1e-8                        # disjoint blocks
    commute = all(np.abs(A @ B - B @ A).max() <= 1e-8
                  for A, B in itertools.combinations(got.kernel_basis, 2))
    assert (len(got.states) == got.kernel_dimension) == commute


@pytest.mark.parametrize("temperature", [0.0, 1.0], ids=["T0", "T1"])
@pytest.mark.parametrize("n_levels", [4, 6])
def test_blocked_spectra_match_dense_on_oscillators(n_levels, temperature):
    """osc4 and osc6: Davies generators of degenerate Bohr spectra.  Their
    Spohn matrices have singular values far below the largest, which the
    eigenvalues of the Gram matrix M^dag M would lose: at T = 0 the commutant
    of the one jump, the polynomials in the lowering operator, has dimension
    n; at T = 1 it is trivial."""
    L, jumps = _davies(n_levels, temperature)
    assert len(lv._blocks(L)) > 1
    _assert_spectrum_matches(L)
    _assert_zero_projector_matches(L)
    _assert_steady_states_match(L)
    expect = n_levels if temperature == 0.0 else 1
    assert spectra.spohn_check(jumps).commutant_dim == dense_commutant_dim(jumps) == expect


@PROPERTY
@given(st.integers(2, 4), st.integers(1, 3), SEEDS)
def test_blocked_commutant_matches_dense(dim, n_jumps, seed):
    """Sparse jumps (each entry zero with probability 1/2), so that the
    unknowns split into several column blocks, and diagonal ones, whose
    commutator system has zero columns."""
    rng = np.random.default_rng(seed)
    jumps = [np.where(rng.random((dim, dim)) < 0.5, 0.0,
                      rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
             for _ in range(n_jumps)]
    jumps.append(np.diag(rng.integers(0, 2, dim).astype(complex)))
    assert spectra.spohn_check(jumps).commutant_dim == dense_commutant_dim(jumps)


def test_one_block_spectra_are_bitwise_dense():
    L, jumps = _custom_model(5)
    assert len(lv._blocks(L)) == 1
    got, (ref, _) = spectra.liouvillian_spectrum(L), dense_spectrum(L)
    assert np.array_equal(got.eigenvalues, ref.eigenvalues)
    assert (got.zero_multiplicity, got.spectral_gap, got.diagonalizable, got.zero_tolerance) == \
        (ref.zero_multiplicity, ref.spectral_gap, ref.diagonalizable, ref.zero_tolerance)
    result = spectra.steady_states(L)
    basis = result.kernel_basis
    ref_basis = dense_kernel_basis(L)
    assert len(basis) == len(ref_basis) == 1
    assert all(np.array_equal(B, R) for B, R in zip(basis, ref_basis))
    B = ref_basis[0]                     # a one-dimensional kernel: its element, normalised
    assert np.array_equal(result.states[0], (B + B.conj().T) / (2.0 * np.trace(B).real))
    assert np.array_equal(spectra.zero_eigenprojector(L), dense_zero_eigenprojector(L))
    assert spectra.spohn_check(jumps).commutant_dim == dense_commutant_dim(jumps)


def test_spectrum_rows_do_not_depend_on_block_order():
    """Blocks A, B and a copy of A, in every order of whole blocks.  A and B
    are triangular, so ``eig`` returns their diagonals exactly: -1 in A and
    -1 - 1e-12 in B, which share their imaginary part and their cell of the
    zero-tolerance grid and are told apart by the real-part tiebreak alone."""
    A = np.array([[-1.0, 1.0], [0.0, -2.0]], dtype=complex)
    B = np.array([[-1.0 - 1e-12, 1.0], [0.0, -3.0]], dtype=complex)
    spectra_rows = []
    for order in itertools.permutations([A, B, A]):
        L = scipy.linalg.block_diag(*order)
        assert len(lv._blocks(L)) == 3
        spectra_rows.append(spectra.liouvillian_spectrum(L).eigenvalues)
    assert all(np.array_equal(rows, spectra_rows[0]) for rows in spectra_rows)
    assert np.array_equal(spectra_rows[0].real, [-3.0, -2.0, -2.0, -1.0 - 1e-12, -1.0, -1.0])


def test_kernel_basis_takes_the_blocks_in_index_order():
    """The null vectors come in the order of the blocks' smallest indices,
    not of their sizes: the Hermitian basis, and with it the state list of a
    degenerate kernel, depends on that order.  Here the block of index 0 is
    the largest, and the first two basis elements come from its null vector."""
    rng = np.random.default_rng(4)
    L = np.zeros((9, 9), dtype=complex)
    for b in ([0, 2, 4, 6], [1, 3, 5], [7, 8]):
        B = _gaussian(rng)(len(b))
        L[np.ix_(b, b)] = B - np.linalg.eigvals(B)[0] * np.eye(len(b)) if len(b) > 2 else B
    assert [len(b) for b in lv._blocks(L)] == [4, 3, 2]
    scale, null = np.linalg.norm(L, 2), []
    for b in lv._blocks(L):
        _, s, Vh = np.linalg.svd(L[np.ix_(b, b)])
        for i in np.flatnonzero(s <= spectra.DEFAULT_ZERO_TOL * scale):
            null.append(np.zeros(9, dtype=complex))
            null[-1][b] = Vh[i].conj()
    got, ref = spectra.steady_states(L).kernel_basis, _hermitian_basis(null)
    assert len(got) == len(ref) == 2
    assert all(np.abs(G - R).max() <= 1e-12 for G, R in zip(got, ref))


def test_zero_tolerance_is_relative_to_the_whole_matrix():
    """A block of norm 2e-6 next to one of norm 2: its singular value and
    eigenvalue 5e-11 are below tol * ||L||_2 = 2e-9, though not below tol
    times the block's own norm."""
    L = scipy.linalg.block_diag(np.ones((2, 2)), 1e-6 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-4]]))
    assert len(lv._blocks(L)) == 2
    ref, _ = dense_spectrum(L)
    assert spectra.liouvillian_spectrum(L).zero_multiplicity == ref.zero_multiplicity == 2
    assert spectra.steady_states(L).kernel_dimension == len(dense_kernel_basis(L)) == 2
    _assert_zero_projector_matches(L)


def test_diagonalizable_is_the_cond_of_the_block_diagonal_eigenvectors():
    """cond(V) of the block-diagonal eigenvector matrix is the largest
    singular value over all blocks over the smallest, not the largest
    per-block cond: here 1.08e10 (from block B's 1.68 over block A's
    1.56e-10), while A alone has 9.1e9 and B alone 36."""
    eta = 2.2e-10
    A = np.array([[-3.0, 1.0], [0.0, -3.0 - eta]], dtype=complex)
    B = np.array([[-1.0, 2.0, 2.0], [0.0, -1.5, 2.0], [0.0, 0.0, -2.0]], dtype=complex)
    assert spectra.liouvillian_spectrum(A).diagonalizable
    assert spectra.liouvillian_spectrum(B).diagonalizable
    L = scipy.linalg.block_diag(A, B)
    assert len(lv._blocks(L)) == 2
    assert spectra.liouvillian_spectrum(L).diagonalizable is dense_spectrum(L)[0].diagonalizable is False


# -- map families: the witness, invert_map and tcl_from_family ---------------------

def _random_gksl_superop(rng, dim):
    jumps = [(float(rng.uniform(0.05, 0.3)),
              rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
             for _ in range(2)]
    return gksl.superop_of_generator(gksl.GKSLGenerator(H=rand_hermitian(dim, rng), jumps=jumps))


def _map_family(kind, seed, count):
    """``count`` samples (t, E) from t = 0 (the identity):
    - ``gksl``: a random GKSL semigroup, one block;
    - ``davies``: a Davies semigroup of a diagonal-H model, many blocks;
    - ``mixed``: that Davies family with its later half followed by a dense
      map, so that the samples have different patterns;
    - ``singular``: the Davies family with one later sample exactly singular
      and one beyond the condition threshold;
    - ``csv``: the Davies family written and read back in the CLI's
      map-family format (12 significant digits).
    """
    rng = np.random.default_rng(seed)
    if kind == "gksl":
        L = _random_gksl_superop(rng, int(rng.integers(2, 4)))
    else:
        L = _davies_superop(seed, float(seed % 2))
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.02, 0.4, count - 1))])
    family = [(t, lv.expm(t * L)) for t in times]
    side = len(L)
    if kind == "mixed":
        D = lv.expm(_random_gksl_superop(rng, int(round(np.sqrt(side)))))
        family[count // 2:] = [(t, D @ E) for t, E in family[count // 2:]]
    elif kind == "singular":
        # E followed by the Schur product with a real symmetric D, X -> D * X,
        # which keeps the map Hermiticity-preserving; D is 1 but for one pair
        # of entries, 0 (exactly singular) or 1e-13 (beyond the threshold)
        n = int(round(np.sqrt(side)))
        for k, scale in zip(rng.permutation(np.arange(1, count))[:2], (0.0, 1e-13)):
            i, j = rng.integers(n, size=2)
            d = np.ones(side)
            d[j * n + i] = d[i * n + j] = scale
            family[k] = (family[k][0], family[k][1] * d)
    elif kind == "csv":
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "family.csv")
            cli.write_map_family_csv(path, family)
            family = cli.read_map_family_csv(path)
    return family


def _assert_witness_matches(family, tol=1e-10):
    report = maps.divisibility_witness(family, tol=tol)
    assert [(iv.t_start, iv.t_end) for iv in report.intervals] == \
        [(float(t1), float(t2)) for (t1, _), (t2, _) in zip(family, family[1:])]
    threshold = maps.DEFAULT_COND_THRESHOLD
    for k, (iv, (cond, ref)) in enumerate(zip(report.intervals, dense_witness(family, tol))):
        if abs(cond / threshold - 1) < 1e-4:
            continue                             # at the threshold either flag is right
        assert iv.singular == (ref is None)
        if ref is None:
            # an exactly singular map has a dense cond of about 1/eps, not inf
            assert iv.cp is None and np.isnan(iv.min_choi_eigenvalue)
            assert iv.condition > threshold
            continue
        # the dense SVD fixes the smallest singular value only to eps * sigma_max
        assert abs(iv.condition - cond) <= max(1e-10, np.finfo(float).eps * cond) * cond
        C = maps.choi_of(family[k + 1][1] @ np.linalg.inv(family[k][1]))
        scale = max(np.abs(np.linalg.eigvalsh((C + C.conj().T) / 2)).max(), 1.0)
        # an ill-conditioned E1 leaves rounding of eps * cond in C, which
        # decides the Hermiticity test when it is within a decade of 1e-10
        ratio = np.abs(C - C.conj().T).max() / (1e-10 * scale)
        if 0.1 < ratio < 10:
            continue
        assert np.isnan(iv.min_choi_eigenvalue) == (not ref.hermiticity_preserving)
        if ref.hermiticity_preserving:
            assert abs(iv.min_choi_eigenvalue - ref.min_choi_eigenvalue) <= 1e-9 * scale
        if abs(ref.min_choi_eigenvalue + tol * scale) > 1e-12 * scale:
            assert iv.cp == ref.verdict


@PROPERTY
@given(st.sampled_from(["gksl", "davies", "mixed", "singular", "csv"]), SEEDS,
       st.integers(2, 14))
def test_blocked_map_families_match_dense(kind, seed, count):
    family = _map_family(kind, seed, count)
    _assert_witness_matches(family)
    for (_, E), gen, ref in zip(family, nonmarkov.tcl_from_family(family).generators,
                                dense_tcl(family)):
        assert (gen is None) == (ref is None) or \
            abs(np.linalg.cond(E) / 1e10 - 1) < 1e-4
        if gen is not None and ref is not None:
            rel = max(REL, np.finfo(float).eps * np.linalg.cond(E))
            assert np.abs(gen - ref).max() <= rel * _scale(ref)
    for _, E in family:
        _assert_inverse_matches(E)


def test_map_families_span_several_chunks_and_blocks():
    """The oracle above compares the chunked, blocked witness with the dense
    one; make sure its families do have several blocks and several chunks."""
    spans = []
    for seed in range(8):
        family = _map_family("davies", seed, 14)
        _, groups, _ = maps._block_family(family)
        spans.append((sum(len(B) for B in groups), len(maps._chunks(len(family) - 1, groups))))
    assert any(blocks > 1 and chunks > 1 for blocks, chunks in spans)


# -- complete positivity on the Choi blocks of a map family -----------------------

def _assert_cp_reports_match(groups, stacks):
    """``maps._cp_reports`` over the block stacks against the dense oracle and
    the one-map ``is_cp`` of each dense map: the same Hermiticity flag and
    verdict, and the witness within rounding (NaN where the map is not
    Hermiticity-preserving)."""
    reports = maps._cp_reports(maps._choi_blocks(groups), stacks, maps.DEFAULT_CP_TOL)
    assert len(reports) == len(stacks[0])
    for k, got in enumerate(reports):
        S = lv._dense(groups, stacks, k).copy()
        scale = _scale(maps.choi_of(S))
        for ref in (dense_is_cp(S), maps.is_cp(S)):
            assert got.hermiticity_preserving == ref.hermiticity_preserving
            assert got.verdict == ref.verdict
            if ref.hermiticity_preserving:
                assert abs(got.min_choi_eigenvalue - ref.min_choi_eigenvalue) <= REL * scale
            else:
                assert np.isnan(got.min_choi_eigenvalue)


@pytest.mark.parametrize("n_levels", [3, 6])
def test_cp_reports_of_a_davies_semigroup_family(n_levels):
    L, _ = _davies(n_levels, 1.0)
    fam = maps._generator_family(L, [0.0, 0.01, 0.3, 2.0, 40.0])
    assert len(fam.groups) > 1 and len(maps._choi_blocks(fam.groups)) > 1
    _assert_cp_reports_match(fam.groups, fam.take(np.arange(5)))


@PROPERTY
@given(SEEDS, st.integers(2, 4))
def test_cp_reports_of_one_block_gksl_maps(seed, dim):
    rng = np.random.default_rng(seed)
    fam = maps._generator_family(_random_gksl_superop(rng, dim), rng.uniform(0.01, 5.0, 3))
    assert len(fam.groups) == 1 and len(fam.groups[0]) == 1
    _assert_cp_reports_match(fam.groups, fam.take(np.arange(3)))


def test_cp_reports_of_a_map_that_is_not_hermiticity_preserving():
    """Choi blocks of a Davies map, one of them made non-Hermitian, next to
    the map itself, a partially transposed (not CP) one and a small one whose
    deviation is within the bound: NaN witness and no Hermiticity only where
    it is broken."""
    L, _ = _davies(4, 0.0)
    E = lv.expm(0.5 * L)
    n = 4
    bad = E.copy()
    bad[0, n + 1] += 1e-3j                           # |0><0| -> |1><1| gains an imaginary part
    transposed = maps.superop_from_choi(maps.choi_of(E).reshape(n, n, n, n).transpose(
        0, 3, 2, 1).reshape(n * n, n * n))
    # a small map: the Hermiticity bound is 1e-10 max(||C||, 1), not 1e-10 ||C||
    small = 1e-3 * E
    small[0, n + 1] += 5e-11j
    _, groups, take = maps._block_family(list(enumerate([E, bad, transposed, small])))
    stacks = take(np.arange(4))
    _assert_cp_reports_match(groups, stacks)
    reports = maps._cp_reports(maps._choi_blocks(groups), stacks, maps.DEFAULT_CP_TOL)
    assert [r.hermiticity_preserving for r in reports] == [True, False, True, True]
    assert [r.verdict for r in reports] == [True, False, False, True]


def test_cp_reports_of_a_one_sample_family():
    L, _ = _davies(5, 1.0)
    fam = maps._generator_family(L, [0.7])
    _assert_cp_reports_match(fam.groups, fam.take(np.arange(1)))
    E = lv.expm(0.7 * L)
    got = maps._cp_reports(maps._choi_blocks(fam.groups), fam.take(np.arange(1)), 1e-10)[0]
    assert got.verdict and abs(got.min_choi_eigenvalue - maps.is_cp(E).min_choi_eigenvalue) \
        <= REL * _scale(maps.choi_of(E))


def test_exponential_family_is_the_blocked_exponential():
    """``check cp`` exponentiates its maps on the generator's blocks in one
    stack; each is bitwise the exponential of its block alone."""
    L, _ = _davies(5, 1.0)
    times = [0.01, 0.1, 1.0, 10.0]
    fam = maps._generator_family(L, times)
    stacks = fam.take(np.arange(len(times)))
    for k, t in enumerate(times):
        assert np.array_equal(lv._dense(fam.groups, stacks, k), lv.expm(t * L))


def test_witness_memory_stays_within_a_few_dense_maps():
    """The witness on the osc20 semigroup family (400 x 400 maps) never holds
    a stack of dense maps or Choi matrices: its peak allocation stays below
    two dense maps."""
    import tracemalloc

    L, _ = _davies(20, 1.0)
    fam = maps._generator_family(L, list(np.linspace(0.0, 10.0, 51)), stepped=True)
    tracemalloc.start()
    try:
        report = maps.divisibility_witness(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.intervals) == 50
    assert peak < 2 * L.nbytes


def test_cli_semigroup_family_is_the_stepped_semigroup():
    """``check markov`` builds its family as block stacks; densely, they are
    the maps of ``propagate_semigroup``."""
    L, _ = _davies(4, 1.0)
    times = [0.0, 0.5, 1.0, 1.5, 2.5]
    fam = maps._generator_family(L, times, stepped=True)
    dense = lv.propagate_semigroup(L, times, np.eye(len(L), dtype=complex))
    stacks = fam.take(np.arange(len(times)))
    for k, E in enumerate(dense):
        assert np.abs(lv._dense(fam.groups, stacks, k) - E).max() <= REL * _scale(E)
    assert len(fam.groups) > 1
