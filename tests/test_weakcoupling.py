import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from openqdyn import weakcoupling as wc
from openqdyn.errors import (
    IncompleteDecompositionError,
    QuadratureError,
    ZeroFrequencyRateError,
)
from openqdyn.gksl import dissipator_superop
from openqdyn.maps import is_cp, is_trace_preserving
from openqdyn.liouville import expm
from openqdyn.operators import create, destroy, number, sigma_minus, sigma_plus, sigma_x, sigma_z

OMEGA0 = 1.0


def ohmic(coupling=0.05, omega_c=3.0, T=1.0, **kw):
    return wc.BathModel.ohmic(coupling=coupling, omega_c=omega_c, temperature=T, **kw)


# ---------------------------------------------------------------------------
# occupation and rates
# ---------------------------------------------------------------------------

def test_bose_occupation_values():
    assert wc.bose_occupation(1.0, 0.0) == 0.0
    assert abs(wc.bose_occupation(np.log(2.0), 1.0) - 1.0) < 1e-12
    # high-temperature: nbar ~ T/omega within 1% for omega/T <= 0.01
    T = 100.0
    for omega in (0.5, 1.0):
        nb = wc.bose_occupation(omega, T)
        assert abs(nb - T / omega) / (T / omega) < 0.01
    with pytest.raises(ValueError):
        wc.bose_occupation(0.0, 1.0)


def test_bath_rates_positive_frequency():
    bath = ohmic()
    g = wc.bath_rates(bath, OMEGA0, "position_xy")
    j = bath.J(np.array([OMEGA0]))[0]
    nb = wc.bose_occupation(OMEGA0, bath.temperature)
    expect = (np.pi / 2) * j * (nb + 1) * np.array([[1, 1j], [-1j, 1]])
    assert np.abs(g - expect).max() < 1e-12
    assert np.linalg.eigvalsh(g).min() > -1e-15


def test_bath_rates_negative_frequency_detailed_balance():
    bath = ohmic()
    g_plus = wc.bath_rates(bath, OMEGA0, "position_xy")
    g_minus = wc.bath_rates(bath, -OMEGA0, "position_xy")
    # emission/absorption must satisfy gamma(w) = e^{w/T} gamma(-w)^T
    ratio = np.exp(OMEGA0 / bath.temperature)
    assert np.abs(g_plus - ratio * g_minus.T).max() < 1e-12 * np.abs(g_plus).max()
    j = bath.J(np.array([OMEGA0]))[0]
    nb = wc.bose_occupation(OMEGA0, bath.temperature)
    expect = (np.pi / 2) * j * nb * np.array([[1, -1j], [1j, 1]])
    assert np.abs(g_minus - expect).max() < 1e-12
    assert np.linalg.eigvalsh(g_minus).min() > -1e-15


def test_bath_rates_outside_cutoff_zero():
    bath = ohmic(omega_max=5.0)
    assert np.abs(wc.bath_rates(bath, 7.0, "position_xy")).max() == 0.0


def test_bath_rates_single_pattern():
    bath = ohmic()
    g = wc.bath_rates(bath, OMEGA0, "single")
    j = bath.J(np.array([OMEGA0]))[0]
    nb = wc.bose_occupation(OMEGA0, bath.temperature)
    assert abs(g[0, 0] - 2 * np.pi * j * (nb + 1)) < 1e-12


def test_zero_frequency_rate_ohmic_limit():
    alpha, T = 0.02, 0.7
    bath = wc.BathModel.ohmic(coupling=alpha, omega_c=3.0, temperature=T)
    g0 = wc.bath_rates(bath, 0.0, "single")[0, 0].real
    assert abs(g0 - 2 * np.pi * alpha * T) / (2 * np.pi * alpha * T) < 1e-6


def test_zero_frequency_rate_flat_bath_errors():
    with pytest.raises(ZeroFrequencyRateError):
        wc.bath_rates(wc.BathModel.flat(0.5, 3.0, 0.0), 0.0, "single")
    with pytest.raises(ZeroFrequencyRateError):
        wc.bath_rates(wc.BathModel.flat(0.5, 3.0, 1.0), 0.0, "single")


def test_zero_frequency_xy_pattern_ill_defined():
    with pytest.raises(ZeroFrequencyRateError):
        wc.bath_rates(ohmic(), 0.0, "position_xy")


def test_unknown_coupling_pattern_rejected_everywhere():
    bath = ohmic()
    with pytest.raises(ValueError, match="unknown coupling pattern 'bogus'"):
        wc.SystemModel(H=0.5 * sigma_z, couplings=[sigma_x], coupling_pattern="bogus")
    for call in (lambda: wc.bath_rates(bath, OMEGA0, "bogus"),
                 lambda: wc.lamb_shift(bath, OMEGA0, "bogus"),
                 lambda: wc.finite_time_gamma(bath, OMEGA0, 1.0, "bogus")):
        with pytest.raises(ValueError, match="unknown coupling pattern 'bogus'"):
            call()


# ---------------------------------------------------------------------------
# Gauss-Legendre rules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [64, 128, 1024])
def test_leggauss_matches_numpy(n):
    """Nodes agree to rounding; numpy's weights come from a companion-matrix
    eigensolve with one Newton step, and both are good to ~1e-9 relative on
    the tiny endpoint weights of a 1024-point rule."""
    x, w = wc._leggauss(n)
    x_ref, w_ref = np.polynomial.legendre.leggauss(n)
    assert np.abs(x - x_ref).max() <= 2.3e-16
    assert np.abs(w / w_ref - 1.0).max() <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 128, 1024])
def test_leggauss_integrates_legendre_polynomials_exactly(n):
    """Ascending nodes in (-1, 1), mirror-symmetric, weights summing to 2,
    and int P_k = 2 delta_k0 for every degree k < 2n."""
    x, w = wc._leggauss(n)
    assert len(x) == len(w) == n
    assert np.all(np.diff(x) > 0) and -1.0 < x[0] and x[-1] < 1.0
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(w.sum() - 2.0) <= 1e-13
    moments = w @ np.polynomial.legendre.legvander(x, 2 * n - 1)
    assert np.abs(moments - 2.0 * (np.arange(2 * n) == 0)).max() <= 1e-13


# ---------------------------------------------------------------------------
# principal value and shifts
# ---------------------------------------------------------------------------

def test_pv_integral_log_closed_form():
    # PV int_0^3 dx/(1 - x) = ln(1/2)
    val = wc.pv_integral(lambda x: np.ones_like(x), 0.0, 3.0, 1.0)
    assert abs(val - np.log(0.5)) < 1e-12


def test_pv_integral_pole_outside():
    val = wc.pv_integral(lambda x: np.ones_like(x), 0.0, 1.0, 2.0)
    assert abs(val - (-np.log(0.5))) < 1e-12


def test_pv_integral_boundary_pole_raises():
    with pytest.raises(QuadratureError):
        wc.pv_integral(lambda x: np.ones_like(x), 0.0, 1.0, 1.0)


def test_lamb_shift_flat_closed_form():
    j0, wmax, w0 = 0.5, 3.0, 1.0
    bath = wc.BathModel.flat(j0, wmax, 0.0)
    S = wc.lamb_shift(bath, w0, "position_xy")
    expect = (j0 / 4.0) * np.log(w0 / (wmax - w0))
    assert abs(S[0, 0].real - expect) < 1e-6 * abs(expect)
    assert abs(S[0, 0].imag) < 1e-12


def test_lamb_shift_symmetric_vacuum_zero():
    w0, a = 1.0, 0.4

    def tent(w):
        w = np.asarray(w, dtype=float)
        return 0.3 * np.maximum(0.0, 1.0 - np.abs(w - w0) / a)

    bath = wc.BathModel(tent, 0.0, 3.0, 1.0)
    S = wc.lamb_shift(bath, w0, "position_xy")
    assert abs(S[0, 0]) <= 1e-10


def test_lamb_shift_grid_refinement_stable():
    bath = wc.BathModel.flat(0.5, 3.0, 0.0)
    s1 = wc.lamb_shift(bath, 1.0, "position_xy", n_nodes=2048)[0, 0].real
    s2 = wc.lamb_shift(bath, 1.0, "position_xy", n_nodes=4096)[0, 0].real
    assert abs(s1 - s2) < 1e-6 * abs(s1)


def test_lamb_shift_hermitian_thermal():
    bath = ohmic()
    for w in (OMEGA0, -OMEGA0):
        S = wc.lamb_shift(bath, w, "position_xy")
        assert np.abs(S - S.conj().T).max() < 1e-12 * max(np.abs(S).max(), 1e-300)


# ---------------------------------------------------------------------------
# eigenoperator decomposition
# ---------------------------------------------------------------------------

def test_bohr_decompose_qubit_transverse():
    H = 0.5 * OMEGA0 * sigma_z
    dec = wc.bohr_decompose(H, sigma_x)
    assert dec.frequencies == [-OMEGA0, OMEGA0]
    assert np.abs(dec.blocks[OMEGA0] - sigma_minus).max() < 1e-12
    assert np.abs(dec.blocks[-OMEGA0] - sigma_plus).max() < 1e-12


def test_bohr_decompose_qubit_longitudinal():
    H = 0.5 * OMEGA0 * sigma_z
    dec = wc.bohr_decompose(H, sigma_z)
    assert dec.frequencies == [0.0]
    assert np.abs(dec.blocks[0.0] - sigma_z).max() < 1e-12


def test_bohr_decompose_oscillator():
    n = 10
    a = destroy(n)
    dec = wc.bohr_decompose(OMEGA0 * number(n), a + create(n))
    assert dec.frequencies == [-OMEGA0, OMEGA0]
    assert np.abs(dec.blocks[OMEGA0] - a).max() < 1e-12
    assert np.abs(dec.blocks[-OMEGA0] - create(n)).max() < 1e-12


def test_bohr_invariants_random_hermitian():
    rng = np.random.default_rng(60)
    from openqdyn.operators import rand_hermitian

    H = rand_hermitian(4, rng)
    A = rand_hermitian(4, rng)
    dec = wc.bohr_decompose(H, A)
    total = sum(dec.blocks.values())
    assert np.abs(total - A).max() < 1e-10
    for w, B in dec.blocks.items():
        comm = H @ B - B @ H
        assert np.abs(comm + w * B).max() < 1e-9
        assert np.abs(dec.blocks[-w] - B.conj().T).max() < 1e-10


# ---------------------------------------------------------------------------
# Davies generator
# ---------------------------------------------------------------------------

def _pv_quad_oracle(f, a, b, pole):
    """Independent adaptive-quadrature principal value for the tests."""
    h = min(pole - a, b - pole)

    def folded(u):
        return (f(pole - u) - f(pole + u)) / u

    val, _ = scipy.integrate.quad(folded, 0.0, h, limit=400, points=[h / 3])
    if pole - h > a:
        tail, _ = scipy.integrate.quad(lambda x: f(x) / (pole - x), a, pole - h, limit=400)
        val += tail
    if pole + h < b:
        tail, _ = scipy.integrate.quad(lambda x: f(x) / (pole - x), pole + h, b, limit=400)
        val += tail
    return val


def test_bohr_decompose_rejects_a_non_hermitian_coupling():
    A = np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="not adjoints"):
        wc.bohr_decompose(0.5 * OMEGA0 * sigma_z, A)


def test_davies_damped_qubit_rates_and_shift():
    system = wc.damped_qubit(OMEGA0)
    bath = ohmic()
    gen = wc.davies_generator(system, bath)
    j = bath.J(np.array([OMEGA0]))[0]
    nb = wc.bose_occupation(OMEGA0, bath.temperature)
    G = 2 * np.pi * j
    rates = sorted(g for g, _ in gen.base.jumps)
    assert np.allclose(rates, sorted([G * (nb + 1), G * nb]), rtol=1e-10)
    # jumps proportional to sigma_- and sigma_+
    for g, V in gen.base.jumps:
        target = sigma_minus if abs(g - G * (nb + 1)) < 1e-9 else sigma_plus
        overlap = abs(np.trace(target.conj().T @ V))
        assert overlap > 1.0 - 1e-10
    # Lamb shift: H_LS = (Delta' + Delta/2) sigma_z up to identity, with
    # Delta = PV int J/(w0-w), Delta' = PV int J nbar/(w0-w)
    T = bath.temperature

    def jf(w):
        return float(bath.J(np.atleast_1d(w))[0])

    def jn(w):
        w = float(w)
        return jf(w) / np.expm1(w / T)

    delta = _pv_quad_oracle(jf, 0.0, bath.omega_max, OMEGA0)
    delta_p = _pv_quad_oracle(jn, 0.0, bath.omega_max, OMEGA0)
    H_LS = gen.lamb_shift
    traceless = H_LS - np.trace(H_LS) / 2.0 * np.eye(2)
    coeff = np.trace(sigma_z @ traceless).real / 2.0
    assert abs(coeff - (delta_p + delta / 2.0)) < 1e-6 * max(abs(coeff), 1e-6)
    # H_LS commutes with H_A
    assert np.abs(system.H @ H_LS - H_LS @ system.H).max() < 1e-10


def test_davies_damped_oscillator():
    n = 10
    system = wc.damped_oscillator(n_levels=n, omega0=OMEGA0)
    bath = ohmic()
    gen = wc.davies_generator(system, bath)
    j = bath.J(np.array([OMEGA0]))[0]
    nb = wc.bose_occupation(OMEGA0, bath.temperature)
    G = 2 * np.pi * j
    a = destroy(n)
    # gauge-invariant: the dissipator equals G(n+1) D[a] + G n D[a^dag]
    dissipator = sum(g * dissipator_superop(V) for g, V in gen.base.jumps)
    expect = G * (nb + 1) * dissipator_superop(a) + G * nb * dissipator_superop(create(n))
    assert np.abs(dissipator - expect).max() < 1e-9 * np.abs(expect).max()
    # Stark-like shift does not contribute to the level spacings away from
    # the truncation edge: <n+1|H_LS|n+1> - <n|H_LS|n> constant for n <= 7
    d = np.diag(gen.lamb_shift).real
    spacings = np.diff(d)[:8]
    assert np.abs(spacings - spacings[0]).max() < 1e-8 * max(abs(spacings[0]), 1e-12)


def test_davies_pure_dephasing():
    system = wc.pure_dephasing(OMEGA0)
    alpha_j, T = 0.02, 0.7
    bath = wc.BathModel.ohmic(coupling=alpha_j, omega_c=3.0, temperature=T)
    gen = wc.davies_generator(system, bath)
    assert len(gen.base.jumps) == 1
    g, V = gen.base.jumps[0]
    overlap = abs(np.trace(sigma_z.conj().T @ V)) / np.sqrt(2)   # both unit HS norm
    assert overlap > 1 - 1e-10
    expect = 2 * np.pi * alpha_j * T * 2.0  # rate on normalized jump sigma_z/sqrt(2)
    assert abs(g - expect) < 1e-6 * expect
    # no shift: H_LS proportional to the identity
    off = gen.lamb_shift - np.trace(gen.lamb_shift) / 2.0 * np.eye(2)
    assert np.abs(off).max() < 1e-10


def test_davies_generator_cptp_propagators():
    system = wc.damped_qubit(OMEGA0)
    bath = ohmic()
    gen = wc.davies_generator(system, bath)
    gen.base.validate()
    L = gen.superoperator()
    for tau in (0.01, 0.1, 1.0, 10.0):
        E = expm(tau * L)
        assert is_cp(E).verdict
        assert is_trace_preserving(E)


def test_davies_alpha_scaling():
    system = wc.damped_qubit(OMEGA0)
    bath = ohmic()
    g1 = wc.davies_generator(system, bath, alpha=1.0)
    g2 = wc.davies_generator(system, bath, alpha=0.5)
    r1 = sorted(g for g, _ in g1.base.jumps)
    r2 = sorted(g for g, _ in g2.base.jumps)
    assert np.allclose(np.array(r2), 0.25 * np.array(r1), rtol=1e-12)


def test_davies_near_degenerate_warning():
    H = np.diag([0.0, 1.0, 1.0 + 1e-11])
    A = np.zeros((3, 3), dtype=complex)
    A[0, 1] = A[1, 0] = 1.0
    A[0, 2] = A[2, 0] = 1.0
    system = wc.SystemModel(H=H, couplings=[A], coupling_pattern="single")
    bath = ohmic()
    with pytest.warns(UserWarning, match="collide|secular"):
        wc.davies_generator(system, bath, bin_tol=1e-13)


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(st.floats(min_value=0.3, max_value=3.0), st.floats(min_value=2.0, max_value=1e4),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_davies_warns_exactly_when_bohr_bins_nearly_collide(level, gap_in_bins, seed):
    """Levels 0, E and E + g give the Bohr frequencies g, E and E + g; with
    bins of width b (< g) the frequencies E and E + g nearly collide, and the
    generator warns, iff g < 1e3 b."""
    assume(abs(gap_in_bins - 1e3) > 1e-6)   # clear of the threshold's rounding
    bin_tol = 1e-6
    gap = gap_in_bins * bin_tol
    rng = np.random.default_rng(seed)
    A = np.zeros((3, 3), dtype=complex)
    A[0, 1], A[0, 2] = rng.uniform(0.5, 1.5, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
    A = A + A.conj().T
    system = wc.SystemModel(H=np.diag([0.0, level, level + gap]), couplings=[A],
                            coupling_pattern="single")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        wc.davies_generator(system, ohmic(), bin_tol=bin_tol)
    collide = [w for w in caught if "nearly collide" in str(w.message)]
    assert bool(collide) == (gap < 1e3 * bin_tol)


def test_import_leaves_quadrature_and_sparse_modules_unloaded():
    """The runtime is numpy alone: neither the import nor ``bath_correlation``,
    which sums on the package's own frequency rule, loads any scipy module."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, openqdyn\n"
            "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(scipy())\n"
            "openqdyn.weakcoupling.bath_correlation(openqdyn.BathModel.ohmic(0.05, 3.0, 1.0), 0.5)\n"
            "print(scipy())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "[]"]



def test_import_and_qubit_runs_leave_scipy_linalg_unloaded(tmp_path):
    """Matrix exponentials run in numpy alone, so neither the import nor a
    qubit ``derive``, ``evolve`` and ``nonmarkov`` run (``tcl2`` and
    ``coarse_grain``) loads ``scipy.linalg``, whose import is most of the
    package's start-up time."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    args = []
    for verb, scheme in [("derive", "markov"), ("evolve", "markov"), ("nonmarkov", "tcl2"),
                         ("nonmarkov", "coarse_grain")]:
        cfg = tmp_path / f"{verb}_{scheme}.cfg"
        cfg.write_text("[model]\npreset = damped_qubit\nomega0 = 1.0\n"
                       "[bath]\ntype = ohmic\nalpha = 0.1\nomega_c = 3.0\ntemperature = 1.0\n"
                       f"[solver]\nscheme = {scheme}\nt_final = 1.0\nsteps = 2\nsubsteps = 2\n"
                       f"[output]\npath = {tmp_path / (cfg.stem + '.csv')}\n")
        args += [verb, str(cfg)]
    code = ("import sys, openqdyn, openqdyn.cli\n"
            "print([openqdyn.cli.main([verb, '--config', cfg])\n"
            "       for verb, cfg in zip(sys.argv[1::2], sys.argv[2::2])],\n"
            "      'scipy.linalg' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code] + args, capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0] False"

def test_gamma_matrices_psd_every_block():
    system = wc.damped_qubit(OMEGA0)
    bath = ohmic()
    gen = wc.davies_generator(system, bath)
    for w, block in gen.per_frequency.items():
        assert np.linalg.eigvalsh(block.gamma).min() > -1e-12
        ops_comm = [block.operators[k].conj().T @ block.operators[l]
                    for k in range(len(block.operators))
                    for l in range(len(block.operators))]
        for X in ops_comm:
            assert np.abs(system.H @ X - X @ system.H).max() < 1e-10


# ---------------------------------------------------------------------------
# thermal certificates
# ---------------------------------------------------------------------------

def test_kms_check_damped_qubit():
    system = wc.damped_qubit(OMEGA0)
    bath = ohmic(T=0.8)
    gen = wc.davies_generator(system, bath)
    rep = wc.kms_check(gen)
    assert rep.passed
    assert rep.max_relative_violation < 1e-12
    # nbar ratio equals the Boltzmann factor
    nb = wc.bose_occupation(OMEGA0, 0.8)
    assert abs((nb + 1) / nb - np.exp(OMEGA0 / 0.8)) < 1e-12


def test_kms_vacuum_flag():
    system = wc.damped_qubit(OMEGA0)
    gen = wc.davies_generator(system, ohmic(T=0.0))
    rep = wc.kms_check(gen)
    assert rep.passed
    assert all(c.vacuum for c in rep.checks)


def test_kms_random_ohmic_draws():
    rng = np.random.default_rng(61)
    system = wc.damped_qubit(OMEGA0)
    for _ in range(10):
        bath = wc.BathModel.ohmic(coupling=float(rng.uniform(0.01, 0.2)),
                                  omega_c=float(rng.uniform(1.0, 8.0)),
                                  temperature=float(rng.uniform(0.1, 5.0)))
        rep = wc.kms_check(gen := wc.davies_generator(system, bath, shift=False))
        assert rep.max_relative_violation <= 1e-8


def test_kms_missing_mirror_block_error():
    system = wc.damped_qubit(OMEGA0)
    gen = wc.davies_generator(system, ohmic())
    del gen.per_frequency[-OMEGA0]
    with pytest.raises(IncompleteDecompositionError):
        wc.kms_check(gen)


def test_thermal_state_gibbs_ratio():
    H = 0.5 * OMEGA0 * sigma_z
    T = 0.7
    rho = wc.thermal_state(H, T)
    # excited state is |0> (energy +w0/2)
    assert abs(rho[0, 0] / rho[1, 1] - np.exp(-OMEGA0 / T)) < 1e-12
    ground = wc.thermal_state(H, 0.0)
    assert np.abs(ground - np.diag([0.0, 1.0])).max() < 1e-15


def test_stationarity_residuals():
    for T in (0.1, 1.0, 10.0):
        bath = ohmic(T=T)
        gq = wc.davies_generator(wc.damped_qubit(OMEGA0), bath)
        assert wc.stationarity_check(gq) <= 1e-10
        go = wc.davies_generator(wc.damped_oscillator(10, OMEGA0), bath)
        assert wc.stationarity_check(go) <= 1e-9


# ---------------------------------------------------------------------------
# bath correlation function
# ---------------------------------------------------------------------------

def test_correlation_t0_real_positive():
    bath = ohmic()
    c0 = bath.correlation(0.0)
    expect, _ = scipy.integrate.quad(
        lambda w: bath.J(np.atleast_1d(w))[0] * (2 / np.expm1(w / bath.temperature) + 1),
        0, bath.omega_max, limit=400)
    assert abs(c0.imag) < 1e-12
    assert abs(c0.real - expect) < 1e-7


def test_correlation_conjugate_symmetry():
    bath = ohmic()
    for t in (0.3, 1.7):
        assert abs(bath.correlation(-t) - np.conj(bath.correlation(t))) < 1e-10


def test_correlation_riemann_lebesgue_decay():
    bath = ohmic(T=0.5)
    c0 = abs(bath.correlation(0.0))
    assert abs(bath.correlation(50.0 / 3.0)) < 0.01 * c0


@pytest.mark.parametrize("T", [0.0, 0.5, 1.0])
def test_correlation_matches_adaptive_quadrature(T):
    """The frequency-rule sum against scipy's oscillatory ``quad`` (QAWO) on
    the real part J coth(w/2T) cos(wt) and the imaginary part -J sin(wt)."""
    bath = ohmic(T=T)

    def sym(w):
        w = max(w, 1e-300)
        J = bath.J(np.array([w]))[0]
        return J if T == 0 else J / np.tanh(w / (2.0 * T))

    kw = dict(limit=400, epsabs=1e-12, epsrel=1e-12)
    for t in (0.3, 1.7, 50.0 / 3.0, 100.0):
        re, _ = scipy.integrate.quad(sym, 0.0, bath.omega_max, weight="cos", wvar=t, **kw)
        im, _ = scipy.integrate.quad(lambda w: bath.J(np.array([w]))[0], 0.0, bath.omega_max,
                                     weight="sin", wvar=t, **kw)
        assert abs(bath.correlation(t) - complex(re, -im)) < 1e-11


def test_correlation_unresolved_by_the_rule_raises():
    """A flat bath at T > 0 has J nbar ~ T j0 / w, which is not integrable at
    w = 0: the rule with twice the nodes does not agree.  So does no rule
    within an absolute tolerance below rounding."""
    with pytest.raises(QuadratureError, match="nodes differ"):
        wc.BathModel.flat(0.05, 8.0, 0.5).correlation(0.3)
    with pytest.raises(QuadratureError):
        ohmic().correlation(0.3, abs_tol=1e-17)


def test_correlation_fourier_consistency_with_rates():
    # gamma(w) = 2 Re int_0^inf e^{iwu} C(u) du, evaluated with the
    # oscillatory infinite-range rule (vacuum bath: edge term vanishes)
    bath = ohmic(T=0.0)
    w0 = 1.0

    def re_c(u):
        return bath.correlation(u).real

    def im_c(u):
        return bath.correlation(u).imag

    cos_part, _ = scipy.integrate.quad(re_c, 0, np.inf, weight="cos", wvar=w0, limit=400)
    sin_part, _ = scipy.integrate.quad(im_c, 0, np.inf, weight="sin", wvar=w0, limit=400)
    gamma_num = 2.0 * (cos_part - sin_part)
    gamma_exact = wc.bath_rates(bath, w0, "single")[0, 0].real
    assert abs(gamma_num - gamma_exact) < 1e-6 * max(gamma_exact, 1.0)


def test_finite_time_gamma_converges_to_halfline_transform():
    bath = ohmic(T=0.1)
    w = OMEGA0
    Ginf = 0.5 * wc.bath_rates(bath, w, "position_xy") \
        + 1j * wc.lamb_shift(bath, w, "position_xy")
    G = wc.finite_time_gamma(bath, w, 400.0, "position_xy")
    assert np.abs(G - Ginf).max() < 2e-3 * np.abs(Ginf).max()
    errs = [np.abs(wc.finite_time_gamma(bath, w, t, "position_xy") - Ginf).max()
            for t in (25.0, 100.0, 400.0)]
    assert errs[2] < errs[0]


@pytest.mark.parametrize("T", [0.0, 1.0])
def test_finite_time_gamma_array_matches_scalar_calls(T):
    """Horizons on both sides of the 4096-node threshold: omega_max = 120, so
    1.3 (omega_max + |w|) 40 > 4096 while the shorter horizons take 4096."""
    bath = ohmic(coupling=0.1, T=T)
    assert 1.3 * bath.omega_max * 40.0 > 4096
    ts = np.array([0.0, 0.3, 2.0, 40.0, 0.3])
    for w in (-OMEGA0, 0.0, 2.5 * OMEGA0):
        G = wc.finite_time_gamma(bath, w, ts, "position_xy")
        assert G.shape == (len(ts), 2, 2)
        for t, Gt in zip(ts, G):
            ref = wc.finite_time_gamma(bath, w, t, "position_xy")
            assert np.abs(Gt - ref).max() <= 1e-14 * max(np.abs(ref).max(), 1e-300)


def _gamma_by_node_sums(bath, w, t, pattern):
    """Gamma^t(w) as the rule's sums of f E_t(w -+ nu), one half-line kernel
    per node, on the node count of (w, t)."""
    x, f_plus, f_minus = bath.correlation_table(int(wc._node_counts(bath, w, t)))
    w_plus, w_minus = wc._pattern_weights(pattern)
    return (np.sum(f_plus * wc._halfline_kernel(w - x, t)) * w_plus
            + np.sum(f_minus * wc._halfline_kernel(w + x, t)) * w_minus)


@pytest.mark.parametrize("pattern", ["single", "position_xy"])
@pytest.mark.parametrize("T", [0.0, 1.0])
def test_gamma_stack_matches_node_by_node_sums(T, pattern):
    """The phase-table sums of all frequencies in one call, against the
    half-line kernel summed node by node.  The horizons are 0, 1e-9 (every
    node on the series), 0.3 and 40 (a node count per |w|); the last
    frequency lies 5e-7 from a node of the 4096-node rule, so its term there
    is on the series at t = 0.3."""
    bath = ohmic(coupling=0.1, T=T)
    ts = np.array([0.0, 1e-9, 0.3, 40.0])
    x = bath.correlation_table(4096)[0]
    near = x[np.argmin(np.abs(x - OMEGA0))] + 5e-7
    omegas = np.array([0.0, -OMEGA0, OMEGA0, 2.5 * OMEGA0, near])
    assert len(set(wc._node_counts(bath, omegas, 40.0))) >= 3
    assert set(wc._node_counts(bath, omegas, 0.3)) == {4096}
    got = wc._gamma_stack(bath, omegas, ts, pattern)
    assert got.shape == (len(ts), len(omegas)) + wc._pattern_weights(pattern)[0].shape
    assert np.all(got[0] == 0.0)
    for i, w in enumerate(omegas):
        for t, G in zip(ts[1:], got[1:, i]):
            ref = _gamma_by_node_sums(bath, w, t, pattern)
            assert np.abs(G - ref).max() <= 1e-14 * np.abs(ref).max(), (w, t)


@pytest.mark.parametrize("t", [420.0, 800.0])
def test_finite_time_gamma_past_one_row_block_of_nodes(t):
    """A rule with more nodes than _GAMMA_BLOCK entries is a block of one
    horizon (it was split into an empty block, which raised ValueError);
    the sums are those of the half-line kernel node by node."""
    bath = ohmic(coupling=0.1, T=1.0)
    assert wc._node_counts(bath, OMEGA0, t) > wc._GAMMA_BLOCK
    got = wc.finite_time_gamma(bath, OMEGA0, t, "position_xy")
    ref = _gamma_by_node_sums(bath, OMEGA0, t, "position_xy")
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_finite_time_gamma_rejects_negative_or_2d_horizons():
    bath = ohmic()
    for t in (-1.0, np.array([0.0, 1.0, -0.5]), np.ones((2, 2)), np.nan):
        with pytest.raises(ValueError):
            wc.finite_time_gamma(bath, OMEGA0, t, "position_xy")


def _halfline_in_long_double(x, t):
    """E_t(x) = int_0^t e^{ixu} du in extended precision: the quotient
    (e^{ixt} - 1)/(ix) where |x t| >= 1, else t sum_k (ixt)^k/(k+1)! to 30
    terms."""
    x, t = np.asarray(x, dtype=np.longdouble), np.asarray(t, dtype=np.longdouble)
    xt = x * t
    z = 1j * xt.astype(np.clongdouble)
    series = sum(z ** k / math.factorial(k + 1) for k in range(30))
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = (np.exp(z) - 1) / (1j * x.astype(np.clongdouble))
    return np.where(np.abs(xt) < 1, t * series, quotient)


def test_halfline_kernel_matches_a_long_double_reference():
    """Within 2 eps (1 + |x t|) |t| of the extended-precision kernel for x t
    from 0 to about 5e3: the phase x t itself carries eps |x t|.  The
    float64 quotient misses this bound by four orders near |x t| = 1e-5."""
    if np.finfo(np.longdouble).eps >= 1e-18:
        pytest.skip("long double is not extended precision on this platform")
    x = np.concatenate([[0.0, 1e-9, -3e-6, 1e-4, 5e-3], OMEGA0 - np.linspace(0.0, 120.0, 997)])
    for t in (2.0, np.array([[0.0], [1e-7], [0.3], [40.0]])):
        got = wc._halfline_kernel(x, t)
        ref = _halfline_in_long_double(x, t)
        assert got.shape == ref.shape
        err = np.abs(got.astype(np.clongdouble) - ref).astype(float)
        bound = 2 * np.finfo(float).eps * (1 + np.abs(x * t)) * np.abs(t)
        assert np.all(err <= bound)


@pytest.mark.parametrize("T", [0.0, 1.0])
def test_gamma_sums_match_a_long_double_reference(T):
    """The phase sums of _gamma_sums, with their closed-form near nodes,
    against the rule's sums of the extended-precision half-line kernel:
    within 4 eps sum |f E_t(w -+ nu)| (1 + (|w| + nu) t), the rounding of
    the phases (|w| + nu) t that a product e^{iwt} e^{-+i nu t} carries.
    The frequencies include 0 and +-w 5e-7 off a node of the 4096-node
    rule (the pole w -+ nu = 0 next to a node), the horizons 1e-9 (every
    node on the closed form) and 40 (a larger rule)."""
    if np.finfo(np.longdouble).eps >= 1e-18:
        pytest.skip("long double is not extended precision on this platform")
    bath = ohmic(coupling=0.1, T=T)
    x = bath.correlation_table(4096)[0]
    near = x[np.argmin(np.abs(x - 1.3))] + 5e-7
    omegas = np.array([-2.3, -near, -OMEGA0, 0.0, OMEGA0, near, 2.5])
    ts = np.array([1e-9, 0.025, 0.3, 2.0, 40.0])
    got = wc._gamma_sums(bath, omegas, ts)
    for ti, t in enumerate(ts):
        for i, w in enumerate(omegas):
            nu, f_plus, f_minus = bath.correlation_table(int(wc._node_counts(bath, w, t)))
            for k, (f, y) in enumerate(((f_plus, w - nu), (f_minus, w + nu))):
                terms = f * _halfline_in_long_double(y, t)
                scale = np.sum(np.abs(terms).astype(float) * (1 + (abs(w) + nu) * t))
                err = abs(complex(got[k, ti, i]) - complex(np.sum(terms)))
                assert err <= 4 * np.finfo(float).eps * scale, (w, t, k)


def _triangle_by_quadrature(a, s, t, n=64):
    """int_0^t du e^{-iau} int_0^{t-u} dv e^{-isv} by Gauss-Legendre in u and v."""
    x, w = np.polynomial.legendre.leggauss(n)
    u, wu = 0.5 * t * (x + 1.0), 0.5 * t * w
    v, wv = 0.5 * (t - u)[:, None] * (x + 1.0), 0.5 * (t - u)[:, None] * w
    return np.sum(wu * np.exp(-1j * a * u) * np.sum(wv * np.exp(-1j * s * v), axis=1))


@pytest.mark.parametrize("t", [0.3, 2.0, 20.0])
@pytest.mark.parametrize("st", [1e-12, 1e-8, 1e-4, 1e-1, 2.0])
def test_triangle_kernel_matches_quadrature(st, t):
    """Near-coincident nodes included: a t near 0, a t near s t, and s t
    down to 1e-12, where a plain difference quotient loses eps/|s t|."""
    s = st / t
    for at in (0.0, 1e-12, 1e-7, 1e-3, 2e-3, 0.02, 0.5, 3.0, -7.0, st, st * (1 + 1e-9), -st):
        a = at / t
        ref = _triangle_by_quadrature(a, s, t)
        got = wc._triangle_kernel(a, s, t)
        assert abs(got - ref) <= 1e-13 * abs(ref), (at, st, t)


def test_triangle_kernel_broadcasts_and_has_the_s0_limit():
    nu = np.linspace(0.0, 30.0, 41)
    t = np.array([[0.3], [2.0]])
    got = wc._triangle_kernel(OMEGA0 - nu, 0.0, t)
    assert got.shape == (2, nu.size)
    for i, ti in enumerate(t[:, 0]):
        for j, a in enumerate(OMEGA0 - nu):
            assert got[i, j] == wc._triangle_kernel(a, 0.0, ti)
            if abs(a * ti) > 1.0:           # the s = 0 closed form, no cancellation here
                ref = (np.exp(-1j * a * ti) - 1.0 + 1j * a * ti) / (-a * a)
                assert abs(got[i, j] - ref) <= 1e-14 * abs(ref)


def test_all_three_presets_certify_across_temperatures():
    for T in (0.2, 0.5, 1.0, 2.0, 5.0):
        bath = ohmic(T=T)
        deph_bath = wc.BathModel.ohmic(coupling=0.02, omega_c=3.0, temperature=T)
        for system, b in ((wc.damped_qubit(OMEGA0), bath),
                          (wc.damped_oscillator(6, OMEGA0), bath),
                          (wc.pure_dephasing(OMEGA0), deph_bath)):
            gen = wc.davies_generator(system, b, shift=False)
            assert wc.kms_check(gen).max_relative_violation <= 1e-8
            assert wc.stationarity_check(gen) <= 1e-9


def test_zero_frequency_rate_subohmic_and_superohmic():
    # sub-ohmic: J nbar ~ w^{-1/2} diverges -> error
    sub = wc.BathModel.ohmic(coupling=0.05, omega_c=3.0, temperature=1.0, s=0.5)
    with pytest.raises(ZeroFrequencyRateError):
        wc.bath_rates(sub, 0.0, "single")
    # super-ohmic: J nbar ~ w -> 0, well-defined vanishing rate
    sup = wc.BathModel.ohmic(coupling=0.05, omega_c=3.0, temperature=1.0, s=2.0)
    g0 = wc.bath_rates(sup, 0.0, "single")[0, 0].real
    assert abs(g0) < 1e-8


def test_multi_coupling_single_pattern_system():
    # three-level system with two independent-bath couplings
    rng = np.random.default_rng(62)
    H = np.diag([0.0, 1.0, 2.3])
    A1 = np.zeros((3, 3), dtype=complex)
    A1[0, 1] = A1[1, 0] = 1.0
    A2 = np.zeros((3, 3), dtype=complex)
    A2[1, 2] = A2[2, 1] = 1.0
    system = wc.SystemModel(H=H, couplings=[A1, A2], coupling_pattern="single")
    bath = ohmic(T=0.8)
    gen = wc.davies_generator(system, bath)
    gen.base.validate()
    assert wc.kms_check(gen).max_relative_violation <= 1e-10
    assert wc.stationarity_check(gen) <= 1e-10
    L = gen.superoperator()
    E = expm(L)
    assert is_cp(E).verdict and is_trace_preserving(E)


def test_bath_correlation_module_level_alias():
    bath = ohmic()
    assert wc.bath_correlation(bath, 0.7) == bath.correlation(0.7)


def test_bohr_decompose_fully_degenerate_hamiltonian():
    H = 2.5 * np.eye(3, dtype=complex)
    from openqdyn.operators import rand_hermitian

    A = rand_hermitian(3, np.random.default_rng(63))
    dec = wc.bohr_decompose(H, A)
    assert dec.frequencies == [0.0]
    assert np.abs(dec.blocks[0.0] - A).max() < 1e-12


def test_larger_dimension_smoke():
    # 12-level oscillator: Liouville space 144x144
    import time

    t0 = time.time()
    system = wc.damped_oscillator(12, OMEGA0)
    bath = ohmic(T=2.0)
    gen = wc.davies_generator(system, bath)
    assert wc.stationarity_check(gen) < 1e-9
    L = gen.superoperator()
    E = expm(0.5 * L)
    assert is_trace_preserving(E)
    assert is_cp(E).verdict
    from openqdyn.spectra import is_relaxing

    assert is_relaxing(L).verdict
    assert time.time() - t0 < 20.0


# ---------------------------------------------------------------------------
# one Davies assembly for every Bohr frequency
# ---------------------------------------------------------------------------

def _shift_scalars_by_pv_integral(bath, w, n_nodes=2048, breakpoints=None):
    """I_plus = PV int J (nbar+1)/(w - nu) and I_minus = PV int J nbar/(w + nu)
    over (0, omega_max], one folded pv_integral each."""
    pts = bath._breakpoints() if breakpoints is None else breakpoints
    T = bath.temperature
    f_plus = lambda x: bath.J(x) * (wc._nbar(x, T) + 1.0)
    f_minus = lambda x: bath.J(x) * wc._nbar(x, T)
    return (wc.pv_integral(f_plus, 0.0, bath.omega_max, w, n_nodes, pts),
            -wc.pv_integral(f_minus, 0.0, bath.omega_max, -w, n_nodes, pts))


def _shift_scalars_of(S):
    """(I_plus, I_minus) from a quadrature-pair shift matrix
    I_plus W_plus + I_minus W_minus."""
    return (2.0 * S[0, 0] - 2j * S[0, 1]).real, (2.0 * S[0, 0] + 2j * S[0, 1]).real


@pytest.mark.parametrize("T", [0.0, 1.0])
def test_shift_stack_matches_pv_integral_per_frequency(T):
    """All frequencies from one rule against one folded pv_integral per
    frequency and sign: +-w pairs, poles on the breakpoints omega_c = 3 and
    T = 1, and frequencies beyond the cutoff omega_max = 120."""
    bath = ohmic(coupling=0.1, T=T)
    omegas = np.array([-130.0, -7.3, -3.0, -1.0, -0.37, 0.37, 1.0, 2.5, 3.0, 5.0, 17.2,
                       119.0, 130.0])
    got = wc._shift_stack(bath, omegas, "position_xy")
    assert got.shape == (len(omegas), 2, 2)
    ref = np.array([_shift_scalars_by_pv_integral(bath, w) for w in omegas])
    scalars = np.array([_shift_scalars_of(S) for S in got])
    assert np.abs(scalars - ref).max() <= 2e-13 * np.abs(ref).max()
    for w, S in zip(omegas, got):          # the same rule; rows summed in other blocks
        assert np.abs(wc.lamb_shift(bath, w, "position_xy") - S).max() <= 1e-14 * np.abs(got).max()


def test_shift_stack_zero_frequency_is_the_pole_free_sum():
    bath = ohmic(coupling=0.02, T=0.7)
    got = wc._shift_stack(bath, [-1.0, 0.0, 1.0], "single")
    x, g = wc._panel_nodes(0.0, bath.omega_max, bath._breakpoints(), 2048)
    assert got[1, 0, 0] == np.sum(g * (-bath.J(x) / x))
    assert np.array_equal(got[[0, 2]], wc._shift_stack(bath, [-1.0, 1.0], "single"))


def test_tabulated_bath_needs_two_ascending_nodes():
    """np.interp on jumbled nodes would return J(1.5) = 0.075 from [0, 2, 1, 3]
    silently; a one-node table has no panel width."""
    with pytest.raises(ValueError, match="at least two nodes"):
        wc.BathModel.tabulated([1.0], [0.1], 0.5)
    for nodes in ([0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 1.0, 3.0]):
        with pytest.raises(ValueError, match="strictly ascending"):
            wc.BathModel.tabulated(nodes, [0.0, 0.1, 0.05, 0.0], 0.5)


@pytest.mark.parametrize("omegas, values", [
    ([0.0, 1.0, 2.0], [0.0, np.nan, 0.0]),
    ([0.0, 1.0, 2.0], [0.0, np.inf, 0.0]),
    ([0.0, np.nan, 2.0], [0.0, 0.1, 0.0]),
    ([0.0, 1.0, np.inf], [0.0, 0.1, 0.0]),
])
def test_tabulated_bath_needs_finite_nodes_and_values(omegas, values):
    """A NaN J passes ``J < 0``, and the quadrature then fails far from the
    table; the table itself is rejected."""
    with pytest.raises(ValueError, match="finite omega and J"):
        wc.BathModel.tabulated(omegas, values, 0.5)


def test_shift_on_a_tabulated_bath_at_a_table_node():
    """The table nodes are panel edges, so the subtraction at the node w = 1
    sees no kink inside a panel: the shift matches a 65536-node folded
    principal value to 1e-12."""
    nodes = np.linspace(0.0, 6.0, 13)
    bath = wc.BathModel.tabulated(nodes, 0.1 * nodes * np.exp(-nodes / 2.0), 0.7)
    assert set(nodes[1:-1]) <= set(bath._breakpoints())
    for w in (1.0, -1.0, 2.5):
        ref = _shift_scalars_by_pv_integral(bath, w, 65536)
        got = _shift_scalars_of(wc.lamb_shift(bath, w, "position_xy"))
        assert np.abs(np.subtract(got, ref)).max() <= 1e-12 * np.abs(ref).max(), w


def test_shift_pole_at_a_band_edge_or_on_a_quadrature_node_raises():
    bath = ohmic()
    x, _ = wc._panel_nodes(0.0, bath.omega_max, bath._breakpoints(), 2048)
    with pytest.raises(QuadratureError, match="quadrature node"):
        wc.lamb_shift(bath, x[100], "position_xy")
    for w in (bath.omega_max, -bath.omega_max * (1.0 + 1e-13), 1e-14, -1e-14):
        with pytest.raises(QuadratureError, match="of 0 or of the cutoff"):
            wc.lamb_shift(bath, w, "position_xy")


def test_shift_of_a_flat_bath_at_positive_temperature_raises():
    """J nbar ~ j0 T / w is not integrable at 0+: the shift is an error, named
    for the bath, and the zero-frequency rate error still comes first."""
    hot = wc.BathModel.flat(0.05, 8.0, 0.5)
    assert abs(wc._infrared_limit(hot) - 0.05 * 0.5) <= 1e-6 * 0.025
    with pytest.raises(QuadratureError, match="flat bath diverges"):
        wc.lamb_shift(hot, OMEGA0, "position_xy")
    with pytest.raises(QuadratureError, match="flat bath diverges"):
        wc.davies_generator(wc.damped_qubit(OMEGA0), hot)
    with pytest.raises(ZeroFrequencyRateError):
        wc.davies_generator(wc.pure_dephasing(OMEGA0), hot)
    gen = wc.davies_generator(wc.damped_qubit(OMEGA0), hot, shift=False)
    assert np.all(gen.lamb_shift == 0.0)


def test_shift_of_integrable_infrared_baths_is_finite():
    """Flat at T = 0 (the closed form) and sub-ohmic s = 0.5 at T > 0, whose
    J nbar ~ w^{-1/2} is integrable, give numbers."""
    cold = wc.BathModel.flat(0.5, 3.0, 0.0)
    sub = wc.BathModel.ohmic(coupling=0.05, omega_c=2.0, temperature=0.3, s=0.5,
                             omega_max=60.0)
    for bath in (cold, sub, ohmic()):
        assert wc._infrared_limit(bath) == 0.0
    S = wc.lamb_shift(cold, 1.0, "position_xy")
    assert abs(S[0, 0].real - 0.125 * np.log(0.5)) <= 1e-15
    for bath in (cold, sub):
        gen = wc.davies_generator(wc.damped_qubit(OMEGA0), bath)
        assert np.all(np.isfinite(gen.lamb_shift)) and np.abs(gen.lamb_shift).max() > 0


def test_finite_horizon_schemes_of_a_flat_bath_at_positive_temperature_raise():
    """The TCL2 and coarse-graining coefficients sum the bath correlation,
    which diverges with J nbar ~ j0 T / w: an error named for the bath, not a
    finite number from the rule.  Integrable baths still give numbers, and
    a zero horizon still gives exactly 0."""
    from openqdyn import nonmarkov as nm

    hot = wc.BathModel.flat(0.05, 8.0, 0.5)
    system = wc.damped_qubit(OMEGA0)
    for scheme in (lambda b: nm.tcl2_generator(system, b, 5.0),
                   lambda b: nm.coarse_grain_generator(system, b, 5.0),
                   lambda b: wc.finite_time_gamma(b, OMEGA0, 5.0)):
        with pytest.raises(QuadratureError, match="flat bath diverges"):
            scheme(hot)
        for bath in (wc.BathModel.flat(0.5, 3.0, 0.0), ohmic(T=0.0), ohmic()):
            value = scheme(bath)
            assert np.all(np.isfinite(value)) and np.abs(value).max() > 0
    assert np.all(wc.finite_time_gamma(hot, OMEGA0, 0.0) == 0.0)


def _bohr_by_frequency_loop(H, A, bin_tol):
    """One coupling's blocks, one mask and one product V B V^dag per bin
    center, as {w: block}."""
    eps, V = np.linalg.eigh(H)
    At = V.conj().T @ A @ V
    levels = eps[None, :] - eps[:, None]
    diffs = np.sort(np.abs(levels).ravel())
    runs = np.split(diffs, np.flatnonzero(np.diff(diffs) > bin_tol) + 1)
    pos = [c for c in (float(np.mean(run)) for run in runs) if c > bin_tol]
    blocks = {}
    for w in sorted({0.0} | set(pos) | {-c for c in pos}):
        B = np.where(np.abs(levels - w) <= bin_tol, At, 0.0)
        if np.abs(B).max() > 1e-12 * np.abs(A).max():
            blocks[w] = V @ B @ V.conj().T
    return blocks


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bohr_stack_matches_per_frequency_masks(seed):
    """Degenerate levels in a random basis, two random couplings and one
    diagonal in the eigenbasis (a block at w = 0 only): the batched
    decomposition against a per-frequency mask loop per coupling, its blocks
    summing back to each coupling and satisfying [H, A(w)] = -w A(w)."""
    from openqdyn.operators import rand_hermitian, rand_unitary

    rng = np.random.default_rng(seed)
    U = rand_unitary(6, rng)
    H = U @ np.diag([0.0, 0.0, 1.0, 1.0, 1.0, 2.7]) @ U.conj().T
    H = (H + H.conj().T) / 2.0
    couplings = [rand_hermitian(6, rng), rand_hermitian(6, rng),
                 U @ np.diag(rng.standard_normal(6)) @ U.conj().T]
    freqs, A, bin_tol = wc._bohr_stack(H, couplings)
    fi, ki = np.nonzero(A.any(axis=(2, 3)))
    B = A[fi, ki]
    assert abs(bin_tol - 2.7e-9) <= 1e-23
    assert freqs == sorted(freqs) and len(freqs) == 7
    assert list(np.lexsort((ki, fi))) == list(range(len(fi)))       # frequency-major
    for k, A in enumerate(couplings):
        ref = _bohr_by_frequency_loop(H, A, bin_tol)
        mine = {freqs[f]: Bk for f, kk, Bk in zip(fi, ki, B) if kk == k}
        assert sorted(mine) == sorted(ref)
        for w, Bk in mine.items():
            assert np.abs(Bk - ref[w]).max() <= 1e-14 * np.abs(A).max()
            assert np.abs(H @ Bk - Bk @ H + w * Bk).max() <= 1e-12 * np.abs(A).max()
        assert np.abs(sum(mine.values()) - A).max() <= 1e-12 * np.abs(A).max()
    assert [freqs[f] for f, k in zip(fi, ki) if k == 2] == [0.0]
    dec = wc.bohr_decompose(H, couplings[0])
    assert dec.frequencies == [freqs[f] for f, k in zip(fi, ki) if k == 0]


def _chain_model(spacing, length, n_couplings, seed):
    """Levels 0, E, E + d, ..., E + (length - 1) d and 3 with d = spacing *
    3e-9 (``spacing`` default bin widths), in a random eigenbasis, with
    random couplings."""
    from openqdyn.operators import rand_hermitian, rand_unitary

    rng = np.random.default_rng(seed)
    e = np.concatenate([[0.0], rng.uniform(0.5, 2.0) + spacing * 3e-9 * np.arange(length),
                        [3.0]])
    U = rand_unitary(len(e), rng)
    H = U @ np.diag(e) @ U.conj().T
    return (H + H.conj().T) / 2.0, [rand_hermitian(len(e), rng) for _ in range(n_couplings)]


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(st.floats(min_value=0.0, max_value=3.0, exclude_min=True), st.integers(2, 4),
       st.integers(1, 2), st.sampled_from([0.0, 1.0]), st.integers(0, 2**32 - 1))
def test_near_degenerate_chains_bin_into_a_partition(spacing, length, n_couplings, T, seed):
    """A chain of levels closer than a few bin widths: each run of sorted
    level differences is one bin, so the Bohr stack never raises, its blocks
    sum back to every coupling and each is an eigenoperator within its run's
    spread; the Davies generator is trace preserving with a PSD Kossakowski
    matrix and satisfies detailed balance at T > 0."""
    from openqdyn.gksl import kossakowski_matrix
    from openqdyn.liouville import vectorize

    H, couplings = _chain_model(spacing, length, n_couplings, seed)
    freqs, A, bin_tol = wc._bohr_stack(H, couplings)
    scale = np.abs(couplings).max()
    assert np.abs(A.sum(axis=0) - couplings).max() <= 1e-10 * scale
    eps = np.linalg.eigh(H)[0]
    diffs = np.sort(np.abs(np.subtract.outer(eps, eps)), axis=None)
    runs = np.split(diffs, np.flatnonzero(np.diff(diffs) > bin_tol) + 1)
    for w, blocks in zip(freqs, A):
        spread = runs[0][-1] if w == 0 else next(r[-1] - r[0] for r in runs[1:]
                                                 if r[0] <= abs(w) <= r[-1])
        for B in blocks[blocks.any(axis=(1, 2))]:
            comm = np.abs(H @ B - B @ H + w * B).max()
            assert comm <= 3e-9 * np.abs(B).max() + spread * np.linalg.norm(B)
    system = wc.SystemModel(H=H, couplings=couplings, coupling_pattern="single")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")                  # the chain's bins nearly collide
        gen = wc.davies_generator(system, ohmic(T=T))
    L = gen.superoperator()
    assert np.abs(vectorize(np.eye(len(H))).conj() @ L).max() <= 1e-12 * np.abs(L).max()
    a = np.linalg.eigvalsh(kossakowski_matrix(gen.base).a)
    assert a.min() >= -1e-12 * max(a.max(), 1e-300)
    if T > 0:
        assert wc.kms_check(gen).passed


def test_chain_bins_merge_each_run_at_its_mean():
    """Levels 1, 1 + d, 1 + 2d, 1 + 3d with d = 0.6 bin widths: the pairs of
    the chain are one run with the differences 0 .. 3d, which is the bin at
    0, and 1 - 0 .. 1 + 3d is one bin at the run's mean; two bins of the old
    rule met no level pair there."""
    H = np.diag([0.0, 1.0, 1.0 + 1.8e-9, 1.0 + 3.6e-9, 1.0 + 5.4e-9, 3.0])
    A = np.ones((6, 6)) - np.eye(6)
    dec = wc.bohr_decompose(H, A)
    assert dec.bin_tol == 1e-9 * 3.0
    pos = [w for w in dec.frequencies if w > 0]
    assert len(dec.frequencies) == 2 * len(pos) + 1 and len(pos) == 3
    assert pos[0] == float(np.mean(np.repeat(np.diag(H)[1:5], 2)))     # both signs of a pair
    assert np.array_equal(dec.blocks[0.0], np.where(np.abs(np.subtract.outer(
        np.diag(H), np.diag(H))) < 1e-8, A, 0.0))
    assert np.abs(sum(dec.blocks.values()) - A).max() <= 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, -1e-300])
@pytest.mark.parametrize("build", ["bohr_decompose", "davies", "tcl2", "coarse_grain",
                                   "tcl2_evolve", "coarse_grain_evolve", "tcl2_evolve_t0",
                                   "coarse_grain_evolve_t0"])
def test_bin_tol_must_be_finite_and_nonnegative(build, bad):
    from openqdyn import nonmarkov as nm

    system, rho0, grid = wc.damped_oscillator(3), np.diag([0.0, 0.0, 1.0]), [0.0, 0.5]
    run = {"bohr_decompose": lambda t: wc.bohr_decompose(system.H, system.couplings[0], t),
           "davies": lambda t: wc.davies_generator(system, ohmic(), bin_tol=t),
           "tcl2": lambda t: nm.tcl2_generator(system, ohmic(), 0.5, bin_tol=t),
           "coarse_grain": lambda t: nm.coarse_grain_generator(system, ohmic(), 0.5, bin_tol=t),
           "tcl2_evolve": lambda t: nm.tcl2_evolve(system, ohmic(), rho0, grid, bin_tol=t),
           "coarse_grain_evolve": lambda t: nm.coarse_grain_evolve(
               system, ohmic(), 1.0, rho0, grid, bin_tol=t),
           # a grid of t = 0 alone builds no generator
           "tcl2_evolve_t0": lambda t: nm.tcl2_evolve(system, ohmic(), rho0, [0.0], bin_tol=t),
           "coarse_grain_evolve_t0": lambda t: nm.coarse_grain_evolve(
               system, ohmic(), 1.0, rho0, [0.0], bin_tol=t)}[build]
    with pytest.raises(ValueError, match="bin_tol must be finite and nonnegative"):
        run(bad)
    run(0.0)                      # a zero bin width is valid: exact differences only


def test_collision_warning_prints_distinct_frequencies_and_the_gap():
    """A gap of 4.5e-9 between the bins at -2 and -2 - 4.5e-9: the warning
    shows two numbers that differ, and the gap."""
    H = np.diag([0.0, 1.0, 1.0 + 4.5e-9, 3.0])
    A = np.ones((4, 4)) - np.eye(4)
    system = wc.SystemModel(H=H, couplings=[A], coupling_pattern="single")
    with pytest.warns(UserWarning, match="nearly collide") as caught:
        wc.davies_generator(system, ohmic())
    text = str(caught[0].message)
    first, second = text.split("frequencies ")[1].split(" nearly")[0].split(" and ")
    assert float(first) != float(second)
    assert abs(float(second) - float(first) - 4.5e-9) < 1e-15
    assert "gap 4.500e-09" in text


@pytest.mark.parametrize("pattern", ["single", "position_xy"])
def test_davies_assembly_matches_per_frequency_loop(pattern):
    """H_LS from one contraction over the (F, K, K) shift stack and the jumps
    from one batched eigensolve, against the per-frequency sums over the
    blocks that exist.  The second coupling has no block at +-1, where the
    quadrature pair's rate matrix would otherwise mix in its zero operator."""
    H = np.diag([0.0, 1.0, 2.3, 3.1]).astype(complex)
    A1 = np.zeros((4, 4), dtype=complex)
    A1[0, 1] = A1[1, 2] = A1[0, 3] = 1.0
    A2 = np.zeros((4, 4), dtype=complex)
    A2[0, 2] = A2[1, 3] = 0.7j
    system = wc.SystemModel(H, [A1 + A1.conj().T, A2 + A2.conj().T], pattern)
    gen = wc.davies_generator(system, ohmic(T=0.8), alpha=0.6)
    assert [b.coupling_indices for w, b in sorted(gen.per_frequency.items())
            if abs(w) == 1.0] == [[0], [0]]
    H_LS = np.zeros((4, 4), dtype=complex)
    jumps = []
    for w, block in sorted(gen.per_frequency.items()):
        for a, Aa in enumerate(block.operators):
            for b, Ab in enumerate(block.operators):
                H_LS += block.shift[a, b] * Aa.conj().T @ Ab
        rates, U = np.linalg.eigh(block.gamma)
        for m, r in enumerate(rates):
            if r > 1e-12 * np.abs(rates).max():
                V = sum(np.conj(U[l, m]) * Al for l, Al in enumerate(block.operators))
                norm2 = np.sum(np.abs(V) ** 2)
                jumps.append((0.36 * r * norm2, V / np.sqrt(norm2)))
    assert np.abs(gen.lamb_shift - (H_LS + H_LS.conj().T) / 2.0).max() <= 1e-15
    assert len(gen.base.jumps) == len(jumps)
    for (g, V), (g_ref, V_ref) in zip(gen.base.jumps, jumps):
        assert abs(g - g_ref) <= 1e-14 * g_ref
        assert np.abs(V - V_ref).max() <= 1e-14
