"""Property tests over random generators and maps (hypothesis, derandomized).

Each example draws a dimension N <= 4 and a seed; the seed feeds a numpy
generator that builds the random operators, so failures replay exactly.
"""
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from openqdyn import gksl, maps
from openqdyn import weakcoupling as wc
from openqdyn.liouville import (
    _lindblad_superop,
    conjugation_superop,
    expm,
    left_multiply_superop,
    propagate_semigroup,
    right_multiply_superop,
)
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


@PROPERTY
@given(DIMS, SEEDS, st.integers(1, 3), st.integers(1, 3))
def test_operator_sum_superop_matches_kron_sum(dim, seed, n_left, n_right):
    rng = np.random.default_rng(seed)

    def ops(m):
        return rng.standard_normal((m, dim, dim)) + 1j * rng.standard_normal((m, dim, dim))

    left, right = ops(n_left), ops(n_right)
    c = rng.standard_normal((n_left, n_right)) + 1j * rng.standard_normal((n_left, n_right))
    ref = sum(c[j, k] * conjugation_superop(left[j], right[k].conj().T)
              for j in range(n_left) for k in range(n_right))
    got = maps._operator_sum_superop(left, c, right)
    assert np.abs(got - ref).max() < 1e-13 * _scale(ref)


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _kron_lindblad(H, Q, left, c, right):
    """The kron reference sum of rho -> -i[H, rho] + sum_ab c_ab L_a rho R_b^dag
    - Q rho - rho Q^dag."""
    L = (-1j * (left_multiply_superop(H) - right_multiply_superop(H))
         - left_multiply_superop(Q) - right_multiply_superop(Q.conj().T))
    for a in range(len(left)):
        for b in range(len(right)):
            L = L + c[a, b] * conjugation_superop(left[a], right[b].conj().T)
    return L


@PROPERTY
@given(DIMS, SEEDS, st.integers(0, 3), st.integers(0, 3))
def test_lindblad_superop_matches_kron_sum(dim, seed, n_left, n_right):
    """Non-Hermitian H and Q, different left and right operators, and empty
    operator lists."""
    rng = np.random.default_rng(seed)
    H, Q = _complex(rng, dim, dim), _complex(rng, dim, dim)
    left, right = _complex(rng, n_left, dim, dim), _complex(rng, n_right, dim, dim)
    c = _complex(rng, n_left, n_right)
    ref = _kron_lindblad(H, Q, left, c, right)
    got = _lindblad_superop(H, Q, left, c, right)
    assert np.abs(got - ref).max() < 1e-13 * _scale(ref)
    if n_left == n_right:                  # right defaults to left
        ref = _kron_lindblad(H, Q, left, c, left)
        assert np.abs(_lindblad_superop(H, Q, left, c) - ref).max() < 1e-13 * _scale(ref)
    ref = _kron_lindblad(H, Q, [], np.zeros((0, 0)), [])
    assert np.abs(_lindblad_superop(H, Q) - ref).max() < 1e-13 * _scale(ref)


@PROPERTY
@given(DIMS, SEEDS, st.integers(1, 3), st.integers(0, 3),
       st.sampled_from(["both", "Q", "coeffs"]))
def test_lindblad_superop_stacks_match_slices(dim, seed, m, n_ops, stacked):
    """A stack of Q, of coefficient matrices or of both gives the stack of
    superoperators, each slice the kron reference sum of its own data."""
    rng = np.random.default_rng(seed)
    H, B = _complex(rng, dim, dim), _complex(rng, n_ops, dim, dim)
    Q, c = _complex(rng, m, dim, dim), _complex(rng, m, n_ops, n_ops)
    if stacked == "Q":
        c[:] = c[0]
    elif stacked == "coeffs":
        Q[:] = Q[0]
    got = _lindblad_superop(H, Q if stacked != "coeffs" else Q[0], B,
                            c if stacked != "Q" else c[0])
    assert got.shape == (m, dim * dim, dim * dim)
    for k in range(m):
        ref = _kron_lindblad(H, Q[k], B, c[k], B)
        assert np.abs(got[k] - ref).max() < 1e-13 * _scale(ref)


@PROPERTY
@given(DIMS, SEEDS)
def test_hamiltonian_superop_is_the_kron_commutator(dim, seed):
    """Bitwise, for a non-Hermitian H too; a generator without jumps is its
    Hamiltonian part alone."""
    rng = np.random.default_rng(seed)
    H = _complex(rng, dim, dim)
    ref = -1j * (left_multiply_superop(H) - right_multiply_superop(H))
    assert np.array_equal(gksl.hamiltonian_superop(H), ref)
    H = rand_hermitian(dim, rng)
    ref = -1j * (left_multiply_superop(H) - right_multiply_superop(H))
    assert np.array_equal(gksl.superop_of_generator(gksl.GKSLGenerator(H=H)), ref)


@PROPERTY
@given(DIMS, SEEDS)
def test_superop_of_generator_matches_kron_dissipators(dim, seed):
    gen = _random_generator(dim, np.random.default_rng(seed))
    ref = -1j * (left_multiply_superop(gen.H) - right_multiply_superop(gen.H))
    for g, V in gen.jumps:
        VdV = V.conj().T @ V
        D = (conjugation_superop(V, V.conj().T) - 0.5 * left_multiply_superop(VdV)
             - 0.5 * right_multiply_superop(VdV))
        assert np.abs(gksl.dissipator_superop(V) - D).max() < 1e-13 * _scale(D)
        ref = ref + g * D
    assert np.abs(gksl.superop_of_generator(gen) - ref).max() < 1e-13 * _scale(ref)


@PROPERTY
@given(DIMS, SEEDS, st.integers(1, 2), st.sampled_from([0.0, 0.3, 1.0, 2.5]))
def test_davies_generator_is_kms_and_gibbs_stationary(dim, seed, n_couplings, temperature):
    """Random spectra and ``single``-pattern couplings, at T = 0 and T > 0."""
    rng = np.random.default_rng(seed)
    system = wc.SystemModel(rand_hermitian(dim, rng),
                            [rand_hermitian(dim, rng) for _ in range(n_couplings)], "single")
    bath = wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=temperature)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # near-colliding Bohr bins only warn
        gen = wc.davies_generator(system, bath)
    assert wc.kms_check(gen).passed
    rate = max(np.abs(block.gamma).max() for block in gen.per_frequency.values())
    assert wc.stationarity_check(gen) < 1e-12 * rate
