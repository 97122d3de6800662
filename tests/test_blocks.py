"""Exact-zero blocking of the Liouville algebra.

``expm``, ``propagate_semigroup``, the guarded map inverse and ``is_cp`` work
on the connected components of a matrix's exact nonzero pattern.  The dense
code they replace is kept here as the oracle: blocked and dense results agree
within 1e-12 relative, and a matrix that is one block gives bitwise the dense
result.  For ``expm`` the dense call is the package's own kernel
``liouville._pade_expm``; ``scipy.linalg.expm`` stays the 1e-12 oracle.
"""
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from openqdyn import gksl, maps
from openqdyn import liouville as lv
from openqdyn import weakcoupling as wc
from openqdyn.errors import SingularMapError
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


# -- one block: bitwise the dense result -----------------------------------------

@pytest.mark.parametrize("zeros", [False, True], ids=["no_zero", "connected_with_zeros"])
def test_one_block_is_bitwise_dense(zeros):
    rng = np.random.default_rng(11)
    M = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    if zeros:
        M[np.triu_indices(9, 2)] = 0.0        # lower Hessenberg: connected
    assert len(lv._blocks(M)) == 1
    assert np.array_equal(lv.expm(M), lv._pade_expm(M))
    inv, cond = maps._guarded_inverse(M, 1e10)
    assert cond == np.linalg.cond(M)
    assert np.array_equal(inv, np.linalg.inv(M))
    C = maps.choi_of(M @ M.conj().T)
    S = maps.superop_from_choi((C + C.conj().T) / 2.0)
    ref = np.linalg.eigvalsh((maps.choi_of(S) + maps.choi_of(S).conj().T) / 2.0).min()
    assert maps.is_cp(S).min_choi_eigenvalue == ref


def test_blocked_singular_map_reports_infinite_condition():
    S = np.diag([1.0, 2.0, 0.0, 3.0])
    with pytest.raises(SingularMapError) as exc:
        maps._guarded_inverse(S, 1e10)
    assert exc.value.condition == np.inf
    with pytest.raises(SingularMapError) as exc:
        maps._guarded_inverse(np.zeros((4, 4)), 1e10)
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
            maps._guarded_inverse(S, 1e10)
        return
    inv, cond = maps._guarded_inverse(S, 1e10)
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
    C, _ = _permuted_blocks(sizes, rng, _hermitian(rng))
    _assert_cp_matches(maps.superop_from_choi(C))


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
