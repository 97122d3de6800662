"""Property tests over random generators and maps (hypothesis, derandomized).

Each example draws a dimension N <= 4 and a seed; the seed feeds a numpy
generator that builds the random operators, so failures replay exactly.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from openqdyn import gksl, maps
from openqdyn.liouville import expm, propagate_semigroup
from openqdyn.operators import rand_hermitian

PROPERTY = settings(derandomize=True, deadline=None, max_examples=30, database=None)
DIMS = st.integers(min_value=2, max_value=4)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _random_generator(dim, rng):
    n_jumps = int(rng.integers(1, 4))
    jumps = [(float(rng.uniform(0.05, 1.0)),
              rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
             for _ in range(n_jumps)]
    return gksl.GKSLGenerator(H=rand_hermitian(dim, rng), jumps=jumps)


def _scale(M):
    return max(np.abs(M).max(), 1.0)


@PROPERTY
@given(DIMS, SEEDS)
def test_kossakowski_of_superop_equals_kossakowski_matrix(dim, seed):
    gen = _random_generator(dim, np.random.default_rng(seed))
    L = gksl.superop_of_generator(gen)
    extracted = gksl.kossakowski_of_superop(L)
    direct = gksl.kossakowski_matrix(gen)
    assert np.abs(extracted.a - direct.a).max() < 1e-12 * _scale(direct.a)
    # the superoperator fixes H only up to a multiple of the identity
    H = direct.H - np.trace(direct.H) / dim * np.eye(dim)
    assert np.abs(extracted.H - H).max() < 1e-12 * _scale(L)


@PROPERTY
@given(DIMS, SEEDS)
def test_canonical_form_rebuilds_superoperator(dim, seed):
    gen = _random_generator(dim, np.random.default_rng(seed))
    L = gksl.superop_of_generator(gen)
    for kf in (gksl.kossakowski_matrix(gen), gksl.kossakowski_of_superop(L)):
        rebuilt = gksl.canonical_form(kf)
        assert isinstance(rebuilt, gksl.GKSLGenerator)
        assert np.abs(gksl.superop_of_generator(rebuilt) - L).max() < 1e-11 * _scale(L)


@PROPERTY
@given(DIMS, SEEDS)
def test_choi_and_superop_from_choi_are_inverse(dim, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((dim * dim,) * 2) + 1j * rng.standard_normal((dim * dim,) * 2)
    assert np.array_equal(maps.superop_from_choi(maps.choi_of(M)), M)
    assert np.array_equal(maps.choi_of(maps.superop_from_choi(M)), M)


@PROPERTY
@given(DIMS, SEEDS, st.floats(min_value=0.01, max_value=3.0))
def test_map_from_kraus_inverts_kraus_of(dim, seed, t):
    gen = _random_generator(dim, np.random.default_rng(seed))
    S = expm(t * gksl.superop_of_generator(gen))
    assert np.abs(maps.map_from_kraus(maps.kraus_of(S)) - S).max() < 1e-10


@PROPERTY
@given(DIMS, SEEDS, st.floats(min_value=0.01, max_value=1.0), st.integers(1, 8))
def test_stepped_semigroup_maps_are_cptp(dim, seed, dt, steps):
    gen = _random_generator(dim, np.random.default_rng(seed))
    L = gksl.superop_of_generator(gen)
    times = list(np.linspace(0.0, dt * steps, steps + 1))
    for E in propagate_semigroup(L, times, np.eye(dim * dim, dtype=complex)):
        assert maps.is_cp(E, tol=1e-10).verdict
        assert maps.is_trace_preserving(E)
