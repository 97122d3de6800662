import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import openqdyn as oq

from openqdyn import nonmarkov as nm
from openqdyn import weakcoupling as wc
from openqdyn.gksl import (
    GKSLGenerator,
    canonical_form,
    dissipator_superop,
    hamiltonian_superop,
    kossakowski_of_superop,
    superop_of_generator,
)
from openqdyn.liouville import apply_superop, expm, trace_norm
from openqdyn.operators import rand_density_matrix, sigma_minus, sigma_plus, sigma_z

OMEGA0 = 1.0


def damped_qubit_L(gamma=0.5, nbar=0.3, omega0=OMEGA0):
    gen = GKSLGenerator(H=0.5 * omega0 * sigma_z,
                        jumps=[(gamma * (nbar + 1), sigma_minus), (gamma * nbar, sigma_plus)])
    return superop_of_generator(gen)


def test_memory_kernel_normalization():
    k = nm.MemoryKernel(g=3.0)
    assert abs(k(0.0) - 3.0) < 1e-12
    with pytest.raises(ValueError):
        nm.MemoryKernel(g=-1.0)
    with pytest.raises(ValueError):
        nm.MemoryKernel(g=1.0, kind="gaussian")
    # every finite positive rate is a normalized kernel; inf and nan are not rates
    for g in (1e-6, 1e6):
        assert nm.MemoryKernel(g=g).g == g
    for g in (np.inf, np.nan):
        with pytest.raises(ValueError):
            nm.MemoryKernel(g=g)


def test_memory_kernel_t0_and_trace():
    rng = np.random.default_rng(70)
    L = damped_qubit_L()
    rho0 = rand_density_matrix(2, rng)
    t = np.array([0.0, 0.5, 1.0, 2.0])
    traj = nm.memory_kernel_evolve(L, nm.MemoryKernel(g=4.0), rho0, t)
    assert np.abs(traj.states[0] - rho0).max() == 0.0
    assert traj.max_trace_error < 1e-8
    assert traj.min_eigenvalue > -1e-6


def test_memory_kernel_markovian_limit():
    rng = np.random.default_rng(71)
    L = damped_qubit_L()
    g = 1e3 * np.linalg.norm(L, 2)
    rho0 = rand_density_matrix(2, rng)
    t = np.linspace(0.0, 5.0, 11)
    traj = nm.memory_kernel_evolve(L, nm.MemoryKernel(g=g), rho0, t)
    worst = max(trace_norm(traj.states[i] - apply_superop(expm(tt * L), rho0)) / 2
                for i, tt in enumerate(t))
    assert worst < 1e-3


def test_memory_kernel_scalar_dephasing_closed_form():
    # coherence obeys c'' = -g c' + g lambda c with c(0)=c0, c'(0)=0
    gamma, g = 0.5, 5.0
    lam = -2.0 * gamma                       # dephasing eigenvalue of L
    L = superop_of_generator(GKSLGenerator(H=np.zeros((2, 2)), jumps=[(gamma, sigma_z)]))
    c0 = 0.4
    rho0 = np.array([[0.5, c0], [c0, 0.5]], dtype=complex)
    t = np.linspace(0.0, 4.0, 9)
    traj = nm.memory_kernel_evolve(L, nm.MemoryKernel(g=g), rho0, t)
    disc = np.sqrt(g * g + 4.0 * g * lam)
    s_plus, s_minus = (-g + disc) / 2.0, (-g - disc) / 2.0
    A = -c0 * s_minus / (s_plus - s_minus)
    B = c0 * s_plus / (s_plus - s_minus)
    for i, tt in enumerate(t):
        expect = A * np.exp(s_plus * tt) + B * np.exp(s_minus * tt)
        assert abs(traj.states[i][0, 1] - expect) < 1e-12


def test_memory_kernel_positivity_warning_names_the_callers_line():
    # a strongly non-local kernel breaks positivity; the warning points at
    # the solver's caller, so the default filter shows it once per call site
    L = damped_qubit_L(0.8, 0.2)
    rho0 = np.array([[0.9, 0.3], [0.3, 0.1]], dtype=complex)
    with pytest.warns(UserWarning, match="positivity violation") as caught:
        nm.memory_kernel_evolve(L, nm.MemoryKernel(g=0.5), rho0, np.linspace(0, 8, 9))
    assert caught[0].filename == __file__


def test_post_markovian_t0_and_markov_limit():
    rng = np.random.default_rng(72)
    L = damped_qubit_L()
    rho0 = rand_density_matrix(2, rng)
    t = np.linspace(0.0, 5.0, 11)
    g = 1e3 * np.linalg.norm(L, 2)
    traj = nm.post_markovian_evolve(L, nm.MemoryKernel(g=g), rho0, t)
    assert np.abs(traj.states[0] - rho0).max() < 1e-14
    assert traj.max_trace_error < 1e-8
    worst = max(trace_norm(traj.states[i] - apply_superop(expm(tt * L), rho0)) / 2
                for i, tt in enumerate(t))
    assert worst < 1e-3


def test_post_markovian_scalar_laplace_closed_form():
    # Laplace inversion for one eigenmode: poles at s = lambda and s = -g,
    # c(t) = c0 (g e^{lambda t} + lambda e^{-g t})/(g + lambda)
    gamma, g = 0.4, 3.0
    lam = -2.0 * gamma
    L = superop_of_generator(GKSLGenerator(H=np.zeros((2, 2)), jumps=[(gamma, sigma_z)]))
    c0 = 0.35
    rho0 = np.array([[0.6, c0], [c0, 0.4]], dtype=complex)
    t = np.linspace(0.0, 6.0, 13)
    traj = nm.post_markovian_evolve(L, nm.MemoryKernel(g=g), rho0, t)
    for i, tt in enumerate(t):
        expect = c0 * (g * np.exp(lam * tt) + lam * np.exp(-g * tt)) / (g + lam)
        assert abs(traj.states[i][0, 1] - expect) < 1e-6


def test_post_markovian_defective_generator_matches_history():
    # the resonantly driven decaying qubit at its exceptional point
    # Omega = gamma/4: L is defective, so no eigenbasis resolves it, while the
    # augmented semigroup is exact; the history route, Richardson-extrapolated
    # from its second-order error, agrees with it
    gamma = 1.0
    L = superop_of_generator(GKSLGenerator(H=0.5 * (gamma / 4) * np.array([[0, 1], [1, 0]]),
                                           jumps=[(gamma, sigma_minus)]))
    assert np.linalg.cond(np.linalg.eig(L)[1]) > 1e6
    rho0 = np.array([[0.8, 0.1], [0.1, 0.2]], dtype=complex)
    t = np.linspace(0.0, 2.0, 5)
    exact = nm.post_markovian_evolve(L, nm.MemoryKernel(g=4.0), rho0, t)
    coarse, fine = (nm.post_markovian_evolve(L, _HistoryExponentialKernel(4.0), rho0, t,
                                             steps=steps).states for steps in (2000, 4000))
    worst = max(np.abs(a - (4 * f - c) / 3).max()
                for a, c, f in zip(exact.states, coarse, fine))
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# TCL2
# ---------------------------------------------------------------------------

def test_tcl2_zero_horizon_is_free_generator():
    system = wc.damped_qubit(OMEGA0)
    bath = wc.BathModel.ohmic(coupling=0.05, omega_c=3.0, temperature=1.0)
    L0 = nm.tcl2_generator(system, bath, 0.0)
    assert np.abs(L0 - hamiltonian_superop(system.H)).max() < 1e-14


def test_tcl2_converges_to_weak_coupling_generator():
    system = wc.damped_qubit(OMEGA0)
    bath = wc.BathModel.ohmic(coupling=0.05, omega_c=3.0, temperature=0.1)
    L_dav = wc.davies_generator(system, bath).superoperator()
    scale = np.abs(L_dav).max()
    devs = [np.abs(nm.tcl2_generator(system, bath, t) - L_dav).max() / scale
            for t in (20.0 / 3.0, 80.0 / 3.0)]
    assert devs[1] < devs[0]
    assert devs[0] < 5e-3          # horizon 20/omega_c: still converging
    assert devs[1] < 1e-3          # horizon 80/omega_c: secular limit reached


def test_tcl2_dephasing_matches_exact_factor():
    omega_c, alpha = 3.0, 0.25     # alpha^2 < 1e-2 omega_c^2
    assert alpha**2 <= 1e-2 * omega_c**2
    system = wc.pure_dephasing(OMEGA0)
    bath = wc.BathModel.ohmic(coupling=0.05, omega_c=omega_c, temperature=0.8)
    c0 = 0.45
    rho0 = np.array([[0.5, c0], [c0, 0.5]], dtype=complex)
    t_grid = np.array([0.0, 0.5, 1.5, 3.0])
    traj = nm.tcl2_evolve(system, bath, rho0, t_grid, alpha=alpha, substeps=12)

    def exact_exponent(t):
        # 4 alpha^2 Re int_0^t ds int_0^s C(u) du; the double time integral of
        # Re C = int J coth(w/2T) cos(wu) dw closes to (1 - cos wt)/w^2
        def integrand(w):
            return (bath.J(np.atleast_1d(w))[0] / np.tanh(w / (2 * bath.temperature))
                    * (1.0 - np.cos(w * t)) / w**2)

        val, _ = scipy.integrate.quad(integrand, 0.0, bath.omega_max, limit=400)
        return 4.0 * alpha**2 * val

    for i, tt in enumerate(t_grid):
        expect = c0 * np.exp(-exact_exponent(tt))
        got = abs(traj.states[i][0, 1])
        assert abs(got - expect) <= 0.05 * expect
    assert traj.max_trace_error < 1e-8
    # CP witness reported alongside the trajectory
    assert len(traj.min_choi_eigenvalues) == len(t_grid)
    assert traj.min_choi_eigenvalues[0] > -1e-10


# ---------------------------------------------------------------------------
# generator extraction from map families
# ---------------------------------------------------------------------------

def test_tcl_from_family_recovers_constant_generator():
    L = damped_qubit_L()
    errs = []
    for dt in (0.05, 0.025):
        times = np.arange(0.0, 1.0 + dt / 2, dt)
        samples = [(t, expm(t * L)) for t in times]
        ext = nm.tcl_from_family(samples)
        mid = len(times) // 2
        errs.append(np.abs(ext.generators[mid] - L).max())
    assert errs[0] / errs[1] > 3.0          # second-order grid convergence
    assert errs[1] < 1e-3 * np.abs(L).max()


def test_tcl_from_family_cos_rate_dephasing():
    D = dissipator_superop(sigma_z.astype(complex))
    q = lambda t: np.exp(-2.0 * np.sin(t))
    dt = 0.01
    times = np.arange(0.0, 3.0, dt)
    samples = [(t, np.diag([1.0, q(t), q(t), 1.0]).astype(complex)) for t in times]
    ext = nm.tcl_from_family(samples)
    for i in (50, 150, 250):
        expect = np.cos(times[i]) * D
        assert np.abs(ext.generators[i] - expect).max() < 1e-3


def test_tcl_from_family_singular_marker():
    # amplitude decay reaching a replacement (singular) map at t* = 1
    def ad_map(p):
        k1 = np.diag([np.sqrt(1.0 - p), 1.0]).astype(complex)
        k2 = np.zeros((2, 2), dtype=complex)
        k2[1, 0] = np.sqrt(p)
        from openqdyn.maps import map_from_kraus

        return map_from_kraus([k1, k2])

    times = np.linspace(0.0, 1.2, 7)
    samples = [(t, ad_map(min(1.0, t / 1.0))) for t in times]
    ext = nm.tcl_from_family(samples)
    assert any(g is None for g in ext.generators)
    for t, g in zip(ext.times, ext.generators):
        if t >= 1.0:
            assert g is None


@pytest.mark.parametrize("times", [[0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 0.5, 1.5],
                                   [0.0, float("nan"), 1.0], [0.0, 1.0, float("inf")]],
                         ids=["duplicate", "descending", "nan", "inf"])
def test_tcl_from_family_rejects_bad_times(times):
    """Duplicate times used to divide by zero, descending ones to flip the sign
    of the difference quotient."""
    L = damped_qubit_L()
    samples = [(t, expm((t if np.isfinite(t) else 1.0) * L)) for t in times]
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        nm.tcl_from_family(samples)


def test_tcl_from_family_rejects_mixed_sides():
    from openqdyn.errors import DimensionError

    with pytest.raises(DimensionError):
        nm.tcl_from_family([(0.0, np.eye(4)), (1.0, np.eye(9))])


def test_tcl_from_family_forward_smoothing():
    L = damped_qubit_L()
    times = np.linspace(0.0, 1.0, 21)
    samples = [(t, expm(t * L)) for t in times]
    ext = nm.tcl_from_family(samples, smoothing="none")
    assert np.abs(ext.generators[5] - L).max() < 0.1 * np.abs(L).max()
    with pytest.raises(ValueError):
        nm.tcl_from_family(samples, smoothing="hann")


# ---------------------------------------------------------------------------
# dynamical coarse graining
# ---------------------------------------------------------------------------

def test_coarse_grain_psd_kossakowski_along_tau():
    system = wc.damped_qubit(OMEGA0)
    bath = wc.BathModel.ohmic(coupling=0.05, omega_c=3.0, temperature=1.0)
    for tau in np.geomspace(0.05, 20.0, 20):
        L = nm.coarse_grain_generator(system, bath, tau, picture="interaction")
        kf = kossakowski_of_superop(L)
        w = np.linalg.eigvalsh(kf.a)
        assert w.min() > -1e-10 * max(abs(w).max(), 1e-300), f"tau={tau}"
        gen = canonical_form(kf)
        assert isinstance(gen, GKSLGenerator)


def test_coarse_grain_alpha_square_prefactor():
    system = wc.damped_qubit(OMEGA0)
    bath = wc.BathModel.ohmic(coupling=0.05, omega_c=3.0, temperature=1.0)
    L1 = nm.coarse_grain_generator(system, bath, 2.0, alpha=1.0, picture="interaction")
    L2 = nm.coarse_grain_generator(system, bath, 2.0, alpha=2.0, picture="interaction")
    assert np.abs(L2 - 4.0 * L1).max() < 1e-10 * np.abs(L2).max()


def test_coarse_grain_large_tau_matches_davies():
    system = wc.damped_qubit(OMEGA0)
    bath = wc.BathModel.ohmic(coupling=0.05, omega_c=10.0, temperature=0.0,
                              omega_max=200.0)
    gen = wc.davies_generator(system, bath)
    L_dav_int = gen.superoperator() - hamiltonian_superop(system.H)
    resonant = np.abs(L_dav_int) > 1e-12 * np.abs(L_dav_int).max()
    L = nm.coarse_grain_generator(system, bath, 800.0, picture="interaction")
    scale = np.abs(L_dav_int).max()
    assert np.abs((L - L_dav_int)[resonant]).max() <= 1e-3 * scale
    assert np.abs(L[~resonant]).max() <= 1e-3 * scale


def test_coarse_grain_off_resonant_suppressed_at_moderate_tau():
    system = wc.damped_qubit(OMEGA0)
    bath = wc.BathModel.ohmic(coupling=0.05, omega_c=3.0, temperature=1.0)
    gen = wc.davies_generator(system, bath)
    L_dav_int = gen.superoperator() - hamiltonian_superop(system.H)
    resonant = np.abs(L_dav_int) > 1e-12 * np.abs(L_dav_int).max()
    L = nm.coarse_grain_generator(system, bath, 50.0 / 3.0, picture="interaction")
    assert np.abs(L[~resonant]).max() <= 1e-3 * np.abs(L[resonant]).max()


def test_coarse_grain_evolve_t0_and_alpha_scaling():
    system = wc.damped_qubit(OMEGA0)
    bath = wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=1.0)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    t = 2.0
    traj0 = nm.coarse_grain_evolve(system, bath, 0.1, rho0, np.array([0.0]))
    assert np.abs(traj0.states[0] - rho0).max() == 0.0

    def deviation(alpha):
        # interaction picture: || e^{L^t} rho0 - (1 + L^t) rho0 ||_1
        L_int = nm.coarse_grain_generator(system, bath, t, alpha=alpha,
                                          picture="interaction") * t
        full = apply_superop(expm(L_int), rho0)
        lin = rho0 + apply_superop(L_int, rho0)
        return trace_norm(full - lin)

    d1, d2 = deviation(0.1), deviation(0.05)
    assert d1 / d2 >= 8.0          # at least cubic in alpha (observed ~16x)


def test_coarse_grain_trajectory_valid_and_steady_limit():
    system = wc.damped_qubit(OMEGA0)
    bath = wc.BathModel.ohmic(coupling=0.05, omega_c=3.0, temperature=0.3)
    from openqdyn.spectra import steady_states

    gen = wc.davies_generator(system, bath)
    steady = steady_states(gen.superoperator()).states[0]
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    t_grid = np.array([0.0, 1.0, 90.0])
    traj = nm.coarse_grain_evolve(system, bath, 1.0, rho0, t_grid)
    assert traj.max_trace_error < 1e-8
    assert traj.min_eigenvalue > -1e-6
    assert trace_norm(traj.states[-1] - steady) / 2.0 < 1e-3


def _evolve_on(name, grid):
    system = wc.damped_qubit(OMEGA0)
    bath = wc.BathModel.ohmic(coupling=0.05, omega_c=3.0, temperature=1.0)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    L = damped_qubit_L()
    tabulated = nm.TabulatedKernel(np.linspace(0.0, 5.0, 51), np.exp(-np.linspace(0.0, 5.0, 51)))
    run = {"memory_kernel": lambda: nm.memory_kernel_evolve(L, nm.MemoryKernel(4.0), rho0, grid),
           "memory_kernel_tabulated": lambda: nm.memory_kernel_evolve(L, tabulated, rho0, grid),
           "post_markovian": lambda: nm.post_markovian_evolve(L, nm.MemoryKernel(4.0), rho0, grid),
           "tcl2": lambda: nm.tcl2_evolve(system, bath, rho0, grid),
           "coarse_grain": lambda: nm.coarse_grain_evolve(system, bath, 1.0, rho0, grid),
           "coarse_grain_generator": lambda: nm.coarse_grain_generator(system, bath, grid[-1]),
           "coarse_grain_generator_stack": lambda: nm.coarse_grain_generator(system, bath, grid[1:])}
    return run[name]()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["memory_kernel", "memory_kernel_tabulated", "post_markovian",
                                  "tcl2", "coarse_grain", "coarse_grain_generator",
                                  "coarse_grain_generator_stack"])
def test_non_finite_times_are_rejected(name, bad):
    """A NaN or infinite output time or horizon is a ValueError naming the
    cause, not a state at that time or an unrelated error."""
    with pytest.raises(ValueError, match="finite"):
        _evolve_on(name, np.array([0.0, 0.5, bad]))
    _evolve_on(name, np.array([0.0, 0.5, 1.0]))       # the same call on a finite grid runs


@pytest.mark.parametrize("scheme", ["memory_kernel", "post_markovian"])
def test_tabulated_kernel_matches_exponential_route(scheme):
    # a tabulated exponential kernel must reproduce the exact augmented embedding
    evolve = getattr(nm, f"{scheme}_evolve")
    g = 4.0
    ts = np.linspace(0.0, 12.0, 4001)
    tab = nm.TabulatedKernel(ts, g * np.exp(-g * ts))
    L = damped_qubit_L(0.5, 0.2)
    rho0 = np.array([[0.8, 0.2], [0.2, 0.2]], dtype=complex)
    grid = np.linspace(0.0, 3.0, 7)
    exact = evolve(L, nm.MemoryKernel(g=g), rho0, grid)
    hist = evolve(L, tab, rho0, grid, steps=3000)
    worst = max(np.abs(a - b).max() for a, b in zip(exact.states, hist.states))
    assert worst < 2e-3
    with pytest.raises(ValueError):
        nm.TabulatedKernel(np.array([0.5, 1.0]), np.array([1.0, 0.5]))


class _HistoryExponentialKernel:
    """g e^{-g t} routed through the history quadrature instead of the exact
    augmented embedding."""

    kind = "history"

    def __init__(self, g):
        self.g = g

    def __call__(self, t):
        return self.g * np.exp(-self.g * np.asarray(t, dtype=float))


@pytest.mark.parametrize("scheme", ["memory_kernel", "post_markovian"])
def test_history_quadrature_is_second_order(scheme):
    # halving the history step cuts the error against the exact exponential
    # route by about four
    g = 4.0
    L = damped_qubit_L(0.5, 0.2)
    rho0 = np.array([[0.8, 0.2], [0.2, 0.2]], dtype=complex)
    t = np.array([0.0, 1.0, 2.0])
    evolve = getattr(nm, f"{scheme}_evolve")
    exact = evolve(L, nm.MemoryKernel(g=g), rho0, t)
    run = lambda steps: evolve(L, _HistoryExponentialKernel(g), rho0, t, steps=steps)
    errors = [max(np.abs(a - b).max() for a, b in zip(exact.states, run(steps).states))
              for steps in (100, 200, 400)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 < coarse / fine < 4.5


@pytest.mark.parametrize("kernel", [nm.MemoryKernel(g=4.0), _HistoryExponentialKernel(4.0)],
                         ids=["exponential", "history"])
def test_memory_kernel_trace_drift_raises(kernel):
    from openqdyn.errors import StepSizeError

    # a generator that does not annihilate the trace drifts it on either route
    L = damped_qubit_L() - 0.1 * np.eye(4)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(StepSizeError):
        nm.memory_kernel_evolve(L, kernel, rho0, np.array([0.0, 1.0]), steps=100)


def test_coarse_grain_brute_force_double_integral_oracle():
    """Pin the frequency/pattern bookkeeping against a direct 2-D trapezoid
    evaluation of the defining double-time integrals (non-commuting model)."""
    import scipy.integrate

    system = wc.damped_qubit(OMEGA0)
    bath = wc.BathModel.ohmic(coupling=0.08, omega_c=2.0, temperature=0.6)
    tau, alpha = 1.5, 1.0

    # independent one-sided correlation pieces via adaptive quadrature
    def j_nbar(w):
        w = max(w, 1e-12)     # J nbar -> alpha T smoothly; avoid 0/0 at the edge
        return bath.J(np.atleast_1d(w))[0] / np.expm1(w / bath.temperature)

    def j_nbar_p1(w):
        return j_nbar(w) + bath.J(np.atleast_1d(w))[0]

    def c_plus(u):
        au = abs(u)
        re, _ = scipy.integrate.quad(j_nbar_p1, 0, bath.omega_max,
                                     weight="cos", wvar=au, limit=400)
        im, _ = scipy.integrate.quad(j_nbar_p1, 0, bath.omega_max,
                                     weight="sin", wvar=au, limit=400)
        val = complex(re, -im)
        return val if u >= 0 else np.conj(val)

    def c_minus(u):
        au = abs(u)
        re, _ = scipy.integrate.quad(j_nbar, 0, bath.omega_max,
                                     weight="cos", wvar=au, limit=400)
        im, _ = scipy.integrate.quad(j_nbar, 0, bath.omega_max,
                                     weight="sin", wvar=au, limit=400)
        val = complex(re, im)
        return val if u >= 0 else np.conj(val)

    M = np.array([[1.0, 1.0j], [-1.0j, 1.0]])
    n = 160
    ts = np.linspace(0.0, tau, n + 1)
    h = tau / n
    # correlation matrix on the (2n+1) distinct grid differences
    diff_vals = {}
    for k in range(-n, n + 1):
        u = k * h
        diff_vals[k] = 0.25 * (c_plus(u) * M + c_minus(u) * np.conj(M))

    A = system.couplings
    U = [expm(1j * system.H * t) for t in ts]
    At = [[U[i] @ A[k] @ U[i].conj().T for i in range(n + 1)] for k in range(2)]

    w2 = np.ones(n + 1)
    w2[0] = w2[-1] = 0.5         # trapezoid weights
    dim = system.dim
    H_raw = np.zeros((dim, dim), dtype=complex)
    Q = np.zeros((dim, dim), dtype=complex)
    sandwich = np.zeros((dim * dim, dim * dim), dtype=complex)
    from openqdyn.liouville import conjugation_superop

    for i in range(n + 1):
        for j in range(n + 1):
            wt = w2[i] * w2[j] * h * h
            C = diff_vals[i - j]          # C_kl(t_i - t_j)
            Cn = diff_vals[j - i]         # C_kl(t_j - t_i)
            for k in range(2):
                for l in range(2):
                    Q += wt * C[k, l] * (At[k][i] @ At[l][j])
                    sandwich += wt * Cn[l, k] * conjugation_superop(At[k][i], At[l][j])
                    if i > j:
                        H_raw += wt * (C[k, l] * At[k][i] @ At[l][j]
                                       - Cn[l, k] * At[l][j] @ At[k][i])
    H_cg = (alpha**2 / 2.0j) * H_raw
    H_cg = (H_cg + H_cg.conj().T) / 2.0
    Q = (Q + Q.conj().T) / 2.0
    from openqdyn.liouville import left_multiply_superop, right_multiply_superop

    D = alpha**2 * (sandwich - 0.5 * left_multiply_superop(Q)
                    - 0.5 * right_multiply_superop(Q))
    L_brute = (oq.gksl.hamiltonian_superop(H_cg) + D) / tau

    L_fast = nm.coarse_grain_generator(system, bath, tau, alpha=alpha,
                                       picture="interaction")
    scale = np.abs(L_fast).max()
    assert np.abs(L_fast - L_brute).max() < 5e-3 * scale


# ---------------------------------------------------------------------------
# oracles: the term-by-term loop assemblies the operator sums replaced
# ---------------------------------------------------------------------------

def _bohr_blocks(system):
    """The Bohr decomposition of each coupling on its own, and the sorted
    union of their frequencies."""
    decs = [wc.bohr_decompose(system.H, A) for A in system.couplings]
    return decs, sorted({w for d in decs for w in d.frequencies})


def _loop_tcl2_generator(system, bath, t, alpha):
    """TCL2 generator summed term by term over (w, w', k, l)."""
    from openqdyn.liouville import (
        conjugation_superop, left_multiply_superop, right_multiply_superop)

    alpha2 = float(alpha) ** 2
    decs, freqs = _bohr_blocks(system)
    L = hamiltonian_superop(system.H).astype(complex)
    K = len(system.couplings)
    gam = {w: wc.finite_time_gamma(bath, w, t, system.coupling_pattern, n_couplings=K)
           for w in freqs}
    for w in freqs:
        G = gam[w]
        for wp in freqs:
            for k, dk in enumerate(decs):
                if wp not in dk.blocks:
                    continue
                Akd = dk.blocks[wp].conj().T
                for l, dl in enumerate(decs):
                    if w not in dl.blocks or G[k, l] == 0.0:
                        continue
                    Al = dl.blocks[w]
                    L += alpha2 * G[k, l] * (conjugation_superop(Al, Akd)
                                             - left_multiply_superop(Akd @ Al))
            for k, dk in enumerate(decs):
                if w not in dk.blocks:
                    continue
                Akd = dk.blocks[w].conj().T
                for l, dl in enumerate(decs):
                    if wp not in dl.blocks or G[l, k] == 0.0:
                        continue
                    Al = dl.blocks[wp]
                    L += alpha2 * np.conj(G[l, k]) * (conjugation_superop(Al, Akd)
                                                      - right_multiply_superop(Akd @ Al))
    return L


def _loop_coarse_grain_parts(system, bath, tau, alpha):
    """Coarse-grained (H_cg, D) summed term by term over (w, w', k, l), on the
    triangle integrals of ``nm._cg_pair_integrals`` at the generator's node
    count."""
    from openqdyn.liouville import (
        conjugation_superop, left_multiply_superop, right_multiply_superop)

    decs, freqs = _bohr_blocks(system)
    n = wc._node_counts(bath, max((abs(w) for w in freqs), default=0.0), tau)
    tri_all = nm._cg_pair_integrals(bath, int(n), [tau], freqs)[0]
    tri = {(w, wp): tri_all[:, i, j]
           for i, w in enumerate(freqs) for j, wp in enumerate(freqs)}
    Wp, Wm = wc._pattern_weights(system.coupling_pattern, len(system.couplings))
    dim = system.dim
    H_raw = np.zeros((dim, dim), dtype=complex)
    Q = np.zeros((dim, dim), dtype=complex)
    sandwich = np.zeros((dim * dim, dim * dim), dtype=complex)
    for w in freqs:
        for wp in freqs:
            p, m, pn, mn = tri[(w, wp)]
            rp, rm, rpn, rmn = tri[(wp, w)]
            for k, dk in enumerate(decs):
                if w not in dk.blocks:
                    continue
                Ak = dk.blocks[w]
                for l, dl in enumerate(decs):
                    if wp not in dl.blocks:
                        continue
                    Al = dl.blocks[wp]
                    H_raw += (Ak @ Al * (Wp[k, l] * p + Wm[k, l] * m)
                              - Al @ Ak * (Wp[l, k] * pn + Wm[l, k] * mn))
                    Q += Ak @ Al * (Wp[k, l] * (p + rpn) + Wm[k, l] * (m + rmn))
                    sandwich += ((Wp[l, k] * (pn + rp) + Wm[l, k] * (mn + rm))
                                 * conjugation_superop(Ak, Al))
    alpha2 = float(alpha) ** 2
    H_cg = (alpha2 / 2.0j) * H_raw
    H_cg = (H_cg + H_cg.conj().T) / 2.0
    Q = (Q + Q.conj().T) / 2.0
    D = alpha2 * (sandwich - 0.5 * left_multiply_superop(Q)
                  - 0.5 * right_multiply_superop(Q))
    return H_cg, D


def _oracle_model(name):
    if name == "qubit":
        return wc.damped_qubit(OMEGA0)
    if name == "osc6":
        return wc.damped_oscillator(6, OMEGA0)
    if name == "dephasing":
        return wc.pure_dephasing(OMEGA0)
    rng = np.random.default_rng(11)
    return wc.SystemModel(oq.operators.rand_hermitian(4, rng),
                          [oq.operators.rand_hermitian(4, rng) for _ in range(2)], "single")


def _assert_rel_close(got, ref, rtol=1e-13):
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


ORACLE_MODELS = ("qubit", "osc6", "dephasing", "random4")


@pytest.mark.parametrize("t", [0.0, 0.3, 2.0, np.array([0.0, 0.3, 2.0])],
                         ids=lambda t: "stack" if np.ndim(t) else str(t))
@pytest.mark.parametrize("temperature", [0.0, 1.0])
@pytest.mark.parametrize("model", ORACLE_MODELS)
def test_tcl2_generator_matches_term_loop(model, temperature, t):
    """A 1-D array of horizons gives the stack of the generators."""
    system = _oracle_model(model)
    bath = wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=temperature)
    got = nm.tcl2_generator(system, bath, t, alpha=0.7)
    assert got.shape == np.shape(t) + (system.dim ** 2,) * 2
    for ti, L in zip(np.atleast_1d(t), got.reshape((-1,) + got.shape[-2:])):
        _assert_rel_close(L, _loop_tcl2_generator(system, bath, ti, alpha=0.7))


@pytest.mark.parametrize("t", [420.0, 800.0])
def test_tcl2_generator_past_one_row_block_of_nodes(t):
    """Horizons whose rule has more nodes than _GAMMA_BLOCK entries: the
    generator is the term loop's, as at short horizons."""
    system = _oracle_model("qubit")
    bath = wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=1.0)
    assert wc._node_counts(bath, OMEGA0, t) > wc._GAMMA_BLOCK
    _assert_rel_close(nm.tcl2_generator(system, bath, t, alpha=0.7),
                      _loop_tcl2_generator(system, bath, t, alpha=0.7))


@pytest.mark.parametrize("model", ORACLE_MODELS)
def test_tcl2_generator_stack_is_assembled_from_finite_time_gamma(model):
    """The one Gamma table of every Bohr frequency against one
    finite_time_gamma call per frequency, through the same operator sum, on
    horizons of two node counts."""
    from openqdyn.liouville import _lindblad_superop

    system = _oracle_model(model)
    bath = wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=1.0)
    ts = np.array([0.0, 0.05, 0.3, 2.0, 40.0])
    K = len(system.couplings)
    freqs, A, _ = wc._bohr_stack(system.H, system.couplings)
    fi, ki = np.nonzero(A.any(axis=(2, 3)))
    B = A[fi, ki]
    gam = np.stack([wc.finite_time_gamma(bath, w, ts, system.coupling_pattern, n_couplings=K)
                    for w in freqs], axis=1)
    c = gam[:, fi[:, None], ki[None, :], ki[:, None]]
    Q = np.einsum("tab,bji,ajk->tik", c, B.conj(), B)
    ref = _lindblad_superop(system.H, Q, B, c + c.conj().transpose(0, 2, 1))
    for got, L in zip(nm.tcl2_generator(system, bath, ts), ref):
        _assert_rel_close(got, L, rtol=1e-14)


@pytest.mark.parametrize("tau", [0.3, 2.0, np.array([0.3, 2.0])],
                         ids=lambda t: "stack" if np.ndim(t) else str(t))
@pytest.mark.parametrize("temperature", [0.0, 1.0])
@pytest.mark.parametrize("model", ORACLE_MODELS)
def test_coarse_grain_parts_match_term_loop(model, temperature, tau):
    """tau = 0 has no coarse-grained generator (it is rejected), so the
    horizons are 0.3 and 2; a 1-D array of horizons gives the stack."""
    system = _oracle_model(model)
    bath = wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=temperature)
    got = nm.coarse_grain_generator(system, bath, tau, alpha=0.7, picture="interaction")
    assert got.shape == np.shape(tau) + (system.dim ** 2,) * 2
    for ti, L in zip(np.atleast_1d(tau), got.reshape((-1,) + got.shape[-2:])):
        H_ref, D_ref = _loop_coarse_grain_parts(system, bath, ti, alpha=0.7)
        _assert_rel_close(L, (hamiltonian_superop(H_ref) + D_ref) / ti)


def test_coarse_grain_generator_stack_is_single_calls():
    """Horizons on two node counts (40 needs more than the 4096-node floor)
    give exactly the generators of the single-horizon calls."""
    system = _oracle_model("random4")
    bath = wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=1.0)
    taus = np.array([0.3, 40.0, 2.0])
    assert len(set(wc._node_counts(bath, 0.0, taus))) == 2
    stack = nm.coarse_grain_generator(system, bath, taus)
    for tau, L in zip(taus, stack):
        assert np.array_equal(L, nm.coarse_grain_generator(system, bath, tau))


def test_tcl2_generator_stack_is_single_calls():
    """Horizons on three node counts, 0 and 1e-9 among them, give exactly
    the generators of the single-horizon calls: the phase sums take each
    horizon on its own, and the near-node rule is that of its band."""
    system = _oracle_model("random4")
    bath = wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=1.0)
    ts = np.array([0.3, 40.0, 0.0, 2.0, 1e-9, 7.7, 55.0])
    assert len(set(wc._node_counts(bath, 0.0, ts))) == 3
    stack = nm.tcl2_generator(system, bath, ts)
    for t, L in zip(ts, stack):
        assert np.array_equal(L, nm.tcl2_generator(system, bath, t))


def _loop_coarse_grain_evolve(system, bath, alpha, rho0, t_grid):
    """The coarse-grained states with one expm call per output time."""
    states = [rho0] if t_grid[0] == 0.0 else []
    live = t_grid[t_grid > 0.0]
    stack = nm.coarse_grain_generator(system, bath, live, alpha, picture="interaction")
    for tt, L_int in zip(live, stack):
        U = expm(-1j * system.H * tt)
        states.append(U @ apply_superop(expm(tt * L_int), rho0) @ U.conj().T)
    return states


@pytest.mark.parametrize("model", ["osc6", "random4"])
def test_coarse_grain_evolve_is_bitwise_the_per_time_loop(model):
    """One blocked exponential call per chunk gives the states of one expm
    call per output time, on a blocked generator (osc6) and on a non-diagonal
    H (random4)."""
    system = _oracle_model(model)
    bath = wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=1.0)
    rho0 = rand_density_matrix(system.dim, np.random.default_rng(6))
    t_grid = np.linspace(0.0, 1.0, 21)
    traj = nm.coarse_grain_evolve(system, bath, 0.8, rho0, t_grid)
    ref = _loop_coarse_grain_evolve(system, bath, 0.8, rho0, t_grid)
    assert len(traj.states) == len(ref)
    for got, want in zip(traj.states, ref):
        assert np.array_equal(got, want)


#: Bohr frequencies with a zero, a degenerate pair sum w + w' = 0 and
#: unrelated sums
TRI_FREQS = [-2.3, -1.0, 0.0, 1.0, 1.7]


def _cg_pair_integrals_per_pair(table, taus, freqs):
    """The triangle integrals with both kernels of every pair (w, w')
    evaluated on their own."""
    nu, g_plus, g_minus = table
    tr = np.asarray(taus, dtype=float)[:, None]
    tri = np.empty((len(tr), 4, len(freqs), len(freqs)), dtype=complex)
    for i, w in enumerate(freqs):
        for j, wp in enumerate(freqs):
            up = wc._triangle_kernel(w + nu, w + wp, tr)
            down = wc._triangle_kernel(w - nu, w + wp, tr)
            for f, (g, I) in enumerate([(g_plus, up), (g_minus, down),
                                        (g_plus, down), (g_minus, up)]):
                tri[:, f, i, j] = np.sum(g * I, axis=-1)
    return tri


@pytest.mark.parametrize("model", ["osc10", "random4", "partial"])
def test_cg_pair_integrals_mirror_matches_per_pair_kernels(model):
    """A pair and its mirror (-w, -w') share one evaluation of the two
    kernels; the result equals that of every pair on its own (bitwise where
    sin is odd to the bit).  The Bohr sets of osc10 and of the random 4-level
    model are symmetric; in TRI_FREQS only -1, 0 and 1 have a mirror.  The
    16 horizons of the smaller sets take two row blocks."""
    if model == "partial":
        freqs = TRI_FREQS
    else:
        system = wc.damped_oscillator(10, OMEGA0) if model == "osc10" else _oracle_model(model)
        freqs = _bohr_blocks(system)[1]
    assert len(freqs) == {"osc10": 2, "random4": 13, "partial": 5}[model]
    bath = wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=1.0)
    table = bath.correlation_table(4096)
    taus = np.array([0.3, 2.0, 20.0]) if model == "random4" else np.linspace(0.2, 20.0, 16)
    assert len(wc._row_blocks(np.arange(len(taus)), table[0].size)) == (model != "random4") + 1
    got = nm._cg_pair_integrals(bath, 4096, taus, freqs)
    ref = _cg_pair_integrals_per_pair(table, taus, freqs)
    assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


def _sinc_in_long_double(x):
    """sin(x)/x in long double, by its series below |x| = 1e-3."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(x) < 1e-3, 1 - x * x / 6 + x ** 4 / 120, np.sin(x) / x)


def _triangle_in_long_double(a, s, t):
    """I(a, s, t) = t^2 f[0, -iat, -ist] for z -> e^z in extended precision,
    from the sorted nodes -i th_0, -i th_1, -i th_2 (th = 0, at, st).  Where
    th_2 - th_0 < 1: the series e^{-ic} sum_k h_k(y)/(k+2)! around the mean
    c of the nodes, y = -i(th - c), in the complete homogeneous polynomials
    h_k (40 terms); elsewhere the quotient of the first divided differences
    f[p, q] = e^{-i(th_p + th_q)/2} sinc((th_p - th_q)/2) over the largest
    distance, (f[1, 2] - f[0, 1])/(-i(th_2 - th_0))."""
    a, s, t = np.broadcast_arrays(*(np.asarray(v, dtype=np.longdouble) for v in (a, s, t)))
    th = np.sort(np.stack([np.zeros_like(a), a * t, s * t]), axis=0)
    c = th.mean(axis=0)
    y = -1j * (th - c).astype(np.clongdouble)
    h2, h3, series = np.ones_like(y[0]), np.ones_like(y[0]), 0.5 * np.ones_like(y[0])
    for k in range(1, 40):
        h2 = y[1] * h2 + y[0] ** k                     # h_k(y_0, y_1)
        h3 = y[2] * h3 + h2                            # h_k(y_0, y_1, y_2)
        series = series + h3 / math.factorial(k + 2)
    series = series * np.exp(-1j * c.astype(np.clongdouble))

    def first(p, q):
        return np.exp(-0.5j * (p + q).astype(np.clongdouble)) * _sinc_in_long_double(0.5 * (p - q))

    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = (first(th[1], th[2]) - first(th[0], th[1])) / (-1j * (th[2] - th[0]))
    return t * t * np.where(th[2] - th[0] < 1, series, quotient)


def test_triangle_reference_matches_quadrature():
    """The extended-precision oracle below against Gauss-Legendre quadrature
    of the double integral, on the cases of the kernel's own test."""
    x, w = np.polynomial.legendre.leggauss(200)
    for t in (0.3, 2.0, 20.0):
        for st_ in (0.0, 1e-12, 1e-4, 2.0, 50.0):
            for at in (0.0, 1e-12, 1e-3, 0.5, 3.0, -7.0, st_, st_ * (1 + 1e-9), 40.0):
                ref = complex(_triangle_in_long_double(at / t, st_ / t, t))
                u, wu = 0.5 * t * (x + 1.0), 0.5 * t * w
                v, wv = 0.5 * (t - u)[:, None] * (x + 1.0), 0.5 * (t - u)[:, None] * w
                quad = np.sum(wu * np.exp(-1j * at / t * u)
                              * np.sum(wv * np.exp(-1j * st_ / t * v), axis=1))
                assert abs(quad - ref) <= 1e-12 * abs(ref), (at, st_, t)


@pytest.mark.parametrize("temperature", [0.0, 1.0])
def test_cg_pair_integrals_match_a_long_double_reference(temperature):
    """The pair sums against the rule's sums of the extended-precision
    triangle kernel: within 32 eps sum |g I| (1 + (|w| + |w'| + nu) tau).
    The factor (|w| + |w'| + nu) tau is the rounding of the phases; the 32
    covers the cancellation of the half-line sums at +-w in a pair with
    |s| tau down to _NEAR_PAIR.  The cases: s = 0 ((1, -1), (w, -w) and
    (0, 0)), a and s - a within 5e-7 of 0 (w 5e-7 off a node), s tau =
    1e-3 at tau = 2 ((1, -0.9995)), and the horizon 1e-9."""
    if np.finfo(np.longdouble).eps >= 1e-18:
        pytest.skip("long double is not extended precision on this platform")
    bath = wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=temperature)
    nu, g_plus, g_minus = bath.correlation_table(512)
    near = nu[np.argmin(np.abs(nu - 1.3))] + 5e-7
    freqs = np.array([-near, -1.0, -0.9995, 0.0, 1.0, near])
    taus = np.array([1e-9, 0.3, 2.0, 20.0])
    got = nm._cg_pair_integrals(bath, 512, taus, freqs)
    w, wp = freqs[:, None, None, None], freqs[None, :, None, None]
    for f, (g, sign) in enumerate([(g_plus, 1.0), (g_minus, -1.0), (g_plus, -1.0), (g_minus, 1.0)]):
        terms = g * _triangle_in_long_double(w + sign * nu, w + wp, taus[:, None])
        ref = np.sum(terms, axis=-1).astype(complex).transpose(2, 0, 1)
        scale = np.sum(np.abs(terms).astype(float) * (1 + (np.abs(w) + np.abs(wp) + nu)
                                                      * taus[:, None]), axis=-1).transpose(2, 0, 1)
        assert np.all(np.abs(got[:, f] - ref) <= 32 * np.finfo(float).eps * scale)


def _custom8():
    """A seeded 8-level model with a generic spectrum: 57 Bohr frequencies."""
    rng = np.random.default_rng(8)
    return wc.SystemModel(oq.operators.rand_hermitian(8, rng),
                          [oq.operators.rand_hermitian(8, rng) for _ in range(2)], "single")


def test_finite_horizon_rules_are_shared_across_frequencies(monkeypatch):
    """Call counts, no timing: one tcl2_generator call builds the frequency
    rule once per distinct node count, not once per Bohr frequency, and one
    coarse-graining horizon (one row block) evaluates the triangle kernels
    once per pair and its mirror."""
    system = _custom8()
    bath = wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=1.0)
    freqs = np.array(_bohr_blocks(system)[1])
    F = len(freqs)
    assert F == 57
    ts = np.array([0.0, 0.5, 30.0, 31.0])
    counts = set(wc._node_counts(bath, freqs[:, None], ts[ts > 0]).ravel())
    assert len(counts) > 2
    built, kernels = [], []
    table, kernel = bath.correlation_table, nm._triangle_kernel
    monkeypatch.setattr(bath, "correlation_table", lambda n: built.append(n) or table(n))
    monkeypatch.setattr(nm, "_triangle_kernel", lambda *a: kernels.append(1) or kernel(*a))
    nm.tcl2_generator(system, bath, ts)
    assert sorted(built) == sorted(counts)
    nm.coarse_grain_generator(system, bath, 2.0)
    assert len(kernels) <= -(-F * F // 2) + F


def test_cg_pair_integrals_memory_is_bounded_on_a_generic_spectrum():
    """A seeded 5-level model with 21 Bohr frequencies, two of its levels
    0.0088 apart, at tau = 0.7: 67 of the 441 pairs have s = 0 or
    |s| tau < 0.1 and take their own weight columns, 268 columns x 4416
    nodes or 19 MB of complex numbers if formed at once (a weight column
    for every pair would be 4 F^2 = 1764 columns, 125 MB).  The columns,
    the horizons and the near-node terms go in blocks of _GAMMA_BLOCK
    entries, so the peak stays below 16 MB (5 MB measured)."""
    import tracemalloc

    rng = np.random.default_rng(5)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    freqs = wc._bohr_stack(np.diag(np.sort(rng.uniform(0.0, 3.0, 5))),
                           [(g + g.conj().T) / 2.0])[0]
    assert len(freqs) == 21
    bath = wc.BathModel.ohmic(coupling=0.05, omega_c=3.0, temperature=1.0)
    assert bath.correlation_table(4096)[0].size == 4416
    tracemalloc.start()
    try:
        nm._cg_pair_integrals(bath, 4096, [0.7], freqs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("tau", [0.3, 2.0, 20.0])
@pytest.mark.parametrize("temperature", [0.0, 1.0])
def test_cg_pair_integrals_converge_in_nu(temperature, tau):
    """Doubling the frequency rule of the generator's node count moves the
    triangle integrals by rounding only."""
    bath = wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=temperature)
    n = int(wc._node_counts(bath, max(map(abs, TRI_FREQS)), tau))
    tri, tri2 = (nm._cg_pair_integrals(bath, m, [tau], TRI_FREQS)
                 for m in (n, 2 * n))
    assert np.abs(tri2 - tri).max() <= 1e-12 * np.abs(tri).max()


@pytest.mark.parametrize("tau", [0.3, 2.0, 20.0])
@pytest.mark.parametrize("temperature", [0.0, 1.0])
def test_cg_pair_integrals_match_time_domain_route(temperature, tau):
    """The closed form per frequency against the route it replaced: a
    2^14-node quadrature in the lag u of
    int_0^tau du e^{-i w u} f(u) E_{tau-u}(-(w + w')), with the correlation
    pieces f = c_plus(+-u), c_minus(+-u) summed directly on the same rule.
    Both routes integrate the same discrete bath, so a coarse 512-node rule
    serves."""
    bath = wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=temperature)
    table = bath.correlation_table(512)
    nu, g_plus, g_minus = table
    u, wu = wc._panel_nodes(0.0, tau, [], 2 ** 14)
    c_plus, c_minus = np.empty((2, u.size), dtype=complex)
    for k in range(0, u.size, 256):             # 256 u-nodes at a time
        phase = np.exp(-1j * np.outer(u[k:k + 256], nu))
        c_plus[k:k + 256], c_minus[k:k + 256] = phase @ g_plus, np.conj(phase @ g_minus)
    F = wu * np.array([c_plus, c_minus, np.conj(c_plus), np.conj(c_minus)])
    ref = np.array([[F @ (np.exp(-1j * w * u) * wc._halfline_kernel(-(w + wp), tau - u))
                     for wp in TRI_FREQS] for w in TRI_FREQS]).transpose(2, 0, 1)
    tri = nm._cg_pair_integrals(bath, 512, [tau], TRI_FREQS)[0]
    assert np.abs(tri - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("couplings", [[], [np.zeros((2, 2))]], ids=["none", "zero"])
def test_generators_without_bohr_blocks_are_free(couplings):
    system = wc.SystemModel(0.5 * OMEGA0 * sigma_z, couplings, "single")
    bath = wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=1.0)
    free = hamiltonian_superop(system.H)
    assert np.array_equal(nm.tcl2_generator(system, bath, 0.5), free)
    assert np.array_equal(nm.tcl2_generator(system, bath, np.array([0.0, 0.5])),
                          np.array([free, free]))
    assert np.array_equal(nm.coarse_grain_generator(system, bath, 0.5), free)


# ---------------------------------------------------------------------------
# the factored coupling pattern: channel blocks instead of W-weighted pairs
# ---------------------------------------------------------------------------

def _weighted_tcl2_generator(system, bath, ts, alpha):
    """The TCL2 stack with every pair of Bohr blocks weighted by Gamma^t_kl(w)
    and summed, as assembled before the pattern was factored."""
    from openqdyn.liouville import _lindblad_superop

    freqs, A, _ = wc._bohr_stack(system.H, system.couplings)
    fi, ki = np.nonzero(A.any(axis=(2, 3)))
    B = A[fi, ki]
    gam = wc._gamma_stack(bath, freqs, ts, system.coupling_pattern, len(system.couplings))
    c = gam[:, fi[:, None], ki[None, :], ki[:, None]]
    Q = np.einsum("tab,bji,ajk->tik", c, B.conj(), B)
    return _lindblad_superop(system.H, alpha ** 2 * Q, B,
                             alpha ** 2 * (c + c.conj().transpose(0, 2, 1)))


def _weighted_coarse_grain_generator(system, bath, taus, alpha):
    """The interaction-picture coarse-grained stack with every pair of Bohr
    blocks weighted by the pattern weights of its couplings and summed, as
    assembled before the pattern was factored."""
    from openqdyn.liouville import _lindblad_superop

    freqs, A, _ = wc._bohr_stack(system.H, system.couplings)
    fi, ki = np.nonzero(A.any(axis=(2, 3)))
    B = A[fi, ki]
    tri = np.empty((len(taus), 4, len(freqs), len(freqs)), dtype=complex)
    for k, tau in enumerate(taus):
        n = wc._node_counts(bath, max((abs(w) for w in freqs), default=0.0), tau)
        tri[k] = nm._cg_pair_integrals(bath, int(n), [tau], freqs)[0]
    square = tri + tri[:, [2, 3, 0, 1]].transpose(0, 1, 3, 2)
    Wp, Wm = (W[np.ix_(ki, ki)] for W in
              wc._pattern_weights(system.coupling_pattern, len(system.couplings)))
    pair = (slice(None), fi[:, None], fi[None, :])
    c_tri = Wp * tri[:, 0][pair] + Wm * tri[:, 1][pair]
    c_trin = Wp.T * tri[:, 2][pair] + Wm.T * tri[:, 3][pair]
    c_sq = Wp * square[:, 0][pair] + Wm * square[:, 1][pair]
    c_sqn = Wp.T * square[:, 2][pair] + Wm.T * square[:, 3][pair]
    H_raw = (np.einsum("tab,aij,bjk->tik", c_tri, B, B)
             - np.einsum("tab,bij,ajk->tik", c_trin, B, B))
    Q = np.einsum("tab,aij,bjk->tik", c_sq, B, B)
    H_cg = (alpha ** 2 / 2.0j) * H_raw
    H_cg = (H_cg + H_cg.conj().transpose(0, 2, 1)) / 2.0
    Q = alpha ** 2 / 4.0 * (Q + Q.conj().transpose(0, 2, 1))
    per_tau = 1.0 / np.asarray(taus)[:, None, None]
    return _lindblad_superop(np.zeros_like(system.H), (Q + 1j * H_cg) * per_tau, B,
                             alpha ** 2 * c_sqn * per_tau, B.conj().transpose(0, 2, 1))


@settings(derandomize=True, deadline=None, max_examples=12, database=None)
@given(dim=st.integers(min_value=2, max_value=3), seed=st.integers(0, 2 ** 32 - 1),
       pattern=st.sampled_from(["position_xy", "single"]), temperature=st.sampled_from([0.0, 1.0]))
def test_factored_pattern_matches_the_weighted_assembly(dim, seed, pattern, temperature):
    """Random Hermitian H and couplings (two for the quadrature pair, one or
    two independent baths for ``single``): both generators agree with the
    W-weighted pair sums to 1e-13 of their largest entry."""
    rng = np.random.default_rng(seed)
    n_couplings = 2 if pattern == "position_xy" else int(rng.integers(1, 3))
    system = wc.SystemModel(oq.operators.rand_hermitian(dim, rng),
                            [oq.operators.rand_hermitian(dim, rng) for _ in range(n_couplings)],
                            pattern)
    bath = wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=temperature)
    ts = np.array([0.0, 0.4, 3.0])
    _assert_rel_close(nm.tcl2_generator(system, bath, ts, alpha=0.8),
                      _weighted_tcl2_generator(system, bath, ts, 0.8))
    _assert_rel_close(nm.coarse_grain_generator(system, bath, ts[1:], alpha=0.8,
                                                picture="interaction"),
                      _weighted_coarse_grain_generator(system, bath, ts[1:], 0.8))


def _sector_blocks(n):
    """The blocks of the Bohr sectors of an n-level ladder on the Liouville
    space: the vectorized rho[i, j] at row j n + i lies in sector i - j, and
    the 1 x 1 sectors are gathered into one block, as _blocks does."""
    from openqdyn.liouville import _blocks

    r = np.arange(n * n)
    sector = r % n - r // n
    return _blocks(sector[:, None] == sector[None, :])


@pytest.mark.parametrize("temperature", [0.0, 1.0])
@pytest.mark.parametrize("model", ["osc10", "qubit"])
def test_finite_horizon_stacks_keep_the_bohr_sectors(model, temperature):
    """The exact nonzero pattern of a TCL2 and a coarse-grained stack splits
    into the Bohr sectors at every temperature: 19 sectors for osc10 (the
    two 1 x 1 sectors +-9 gathered into one block), 3 for the qubit.  The
    quadrature pair folds into the channels a and a^dag, so the counter-
    rotating terms that cancel at T > 0 are never formed."""
    from openqdyn.liouville import _blocks

    system = wc.damped_oscillator(10, OMEGA0) if model == "osc10" else wc.damped_qubit(OMEGA0)
    bath = wc.BathModel.ohmic(coupling=0.05, omega_c=3.0, temperature=temperature)
    sectors = _sector_blocks(system.dim)
    assert len(sectors) == {"osc10": 18, "qubit": 2}[model]
    for stack in (nm.tcl2_generator(system, bath, np.linspace(0.0, 10.0, 41)),
                  nm.coarse_grain_generator(system, bath, np.linspace(0.2, 10.0, 8))):
        got = _blocks((stack != 0).any(axis=0))
        assert len(got) == len(sectors)
        assert all(np.array_equal(a, b) for a, b in zip(got, sectors))


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, 1e200, "2", True, False, 1j, None],
                         ids=repr)
def test_builders_reject_a_bad_coupling_strength(alpha):
    """A NaN or infinite alpha gave a non-finite generator without a word,
    1e200 an OverflowError, and a string or bool passed as a number."""
    system = wc.damped_qubit(OMEGA0)
    bath = wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=1.0)
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    for build in (lambda: wc.davies_generator(system, bath, alpha=alpha),
                  lambda: nm.tcl2_generator(system, bath, 0.5, alpha=alpha),
                  lambda: nm.coarse_grain_generator(system, bath, 0.5, alpha=alpha),
                  lambda: nm.tcl2_evolve(system, bath, rho0, [0.0, 0.5], alpha=alpha),
                  lambda: nm.coarse_grain_evolve(system, bath, alpha, rho0, [0.0, 0.5]),
                  lambda: nm.tcl2_evolve(system, bath, rho0, [0.0], alpha=alpha),
                  lambda: nm.coarse_grain_evolve(system, bath, alpha, rho0, [0.0])):
        with pytest.raises(ValueError, match="coupling strength alpha"):
            build()


def test_builders_accept_any_real_coupling_strength():
    """numpy scalars count as their value, and alpha enters as alpha^2."""
    system = wc.damped_qubit(OMEGA0)
    bath = wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=1.0)
    for build in (lambda a: wc.davies_generator(system, bath, alpha=a).superoperator(),
                  lambda a: nm.tcl2_generator(system, bath, 0.5, alpha=a),
                  lambda a: nm.coarse_grain_generator(system, bath, 0.5, alpha=a)):
        ref = build(0.5)
        for alpha in (np.float64(0.5), -0.5, np.float32(0.5)):
            assert np.array_equal(build(alpha), ref)
        assert np.array_equal(build(np.int64(1)), build(1.0))
        assert np.array_equal(build(0), build(0.0))



# ---------------------------------------------------------------------------
# TCL2 trajectories from generator stacks
# ---------------------------------------------------------------------------

def _loop_tcl2_evolve(system, bath, rho0, t_grid, alpha, substeps):
    """States and Choi witnesses of the TCL2 trajectory, one
    propagate_time_dependent call and one generator per substep per interval."""
    from openqdyn.liouville import propagate_time_dependent
    from openqdyn.maps import is_cp

    gen = lambda s: nm.tcl2_generator(system, bath, s, alpha=alpha)
    P = np.eye(system.dim ** 2, dtype=complex)
    states, witnesses, t_prev = [], [], 0.0
    for tt in t_grid:
        if tt > t_prev:
            P = propagate_time_dependent(gen, t_prev, tt, substeps) @ P
        states.append(apply_superop(P, rho0))
        witnesses.append(is_cp(P).min_choi_eigenvalue)
        t_prev = tt
    return states, witnesses


TCL2_GRIDS = {"uniform": np.linspace(0.0, 2.0, 5), "nonuniform": [0.0, 0.1, 0.35, 1.0, 1.2],
              "late_start": [0.4, 0.9, 1.5], "single_zero": [0.0],
              "chunked": np.linspace(0.0, 1.4, 8)}


@pytest.mark.parametrize("grid", sorted(TCL2_GRIDS))
@pytest.mark.parametrize("temperature", [0.0, 1.0])
@pytest.mark.parametrize("model", ["qubit", "osc4"])
def test_tcl2_evolve_matches_per_interval_loop(model, temperature, grid, monkeypatch):
    """States within 1e-12 of their largest entry; witnesses within 1e-12 of
    N, the trace of the Choi matrix of a trace-preserving map.  The chunked
    grid's 7 intervals run in stacks of two intervals, so in 4 chunks."""
    system = wc.damped_qubit(OMEGA0) if model == "qubit" else wc.damped_oscillator(4, OMEGA0)
    bath = wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=temperature)
    rho0 = np.zeros((system.dim, system.dim), dtype=complex)
    rho0[np.ix_([0, -1], [0, -1])] = [[0.4, 0.3], [0.3, 0.6]]
    substeps, t_grid = 4, TCL2_GRIDS[grid]
    calls = []
    if grid == "chunked":
        monkeypatch.setattr(nm, "_STACK_BYTES", 2 * substeps * 16 * system.dim ** 4)
        gen = nm.tcl2_generator
        monkeypatch.setattr(nm, "tcl2_generator", lambda *a, **k: calls.append(a) or gen(*a, **k))
    traj = nm.tcl2_evolve(system, bath, rho0, t_grid, alpha=0.7, substeps=substeps)
    if grid == "chunked":
        assert len(calls) == 4
    monkeypatch.undo()
    states, witnesses = _loop_tcl2_evolve(system, bath, rho0, t_grid, 0.7, substeps)
    assert len(traj.states) == len(states) == len(t_grid)
    for got, ref in zip(traj.states, states):
        _assert_rel_close(got, ref, rtol=1e-12)
    assert np.abs(np.array(traj.min_choi_eigenvalues) - witnesses).max() <= 1e-12 * system.dim


def test_tcl2_evolve_substeps_must_be_a_positive_integer():
    """A float substep count is rejected, not truncated; numpy integers count."""
    system = wc.damped_qubit(OMEGA0)
    bath = wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=1.0)
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    t_grid = [0.0, 0.5, 1.0]
    for substeps in (2.0, 2.5, 0, -2, True):
        with pytest.raises(ValueError, match="substeps must be a positive integer"):
            nm.tcl2_evolve(system, bath, rho0, t_grid, substeps=substeps)
    got = nm.tcl2_evolve(system, bath, rho0, t_grid, substeps=np.int64(2))
    ref = nm.tcl2_evolve(system, bath, rho0, t_grid, substeps=2)
    assert all(np.array_equal(a, b) for a, b in zip(got.states, ref.states))


@pytest.mark.parametrize("evolve", [nm.memory_kernel_evolve, nm.post_markovian_evolve])
def test_kernel_schemes_steps_must_be_a_positive_integer(evolve):
    """The tabulated-kernel quadrature would divide by zero at steps = 0 and
    fail inside numpy at a float; both raise ValueError, numpy integers count."""
    L = damped_qubit_L()
    kernel = nm.TabulatedKernel(np.linspace(0.0, 2.0, 21), np.exp(-np.linspace(0.0, 2.0, 21)))
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    t_grid = np.array([0.0, 0.5])
    for steps in (0, 2.5, 100.0, True):
        with pytest.raises(ValueError, match="steps must be a positive integer"):
            evolve(L, kernel, rho0, t_grid, steps=steps)
    got = evolve(L, kernel, rho0, t_grid, steps=np.int64(100))
    ref = evolve(L, kernel, rho0, t_grid, steps=100)
    assert all(np.array_equal(a, b) for a, b in zip(got.states, ref.states))


def _osc10_tcl2(n_times):
    system = wc.damped_oscillator(10, OMEGA0)
    bath = wc.BathModel.ohmic(coupling=0.05, omega_c=3.0, temperature=1.0)
    rho0 = np.diag(np.linspace(1.0, 0.0, 10)).astype(complex) / 5.0
    return nm.tcl2_evolve(system, bath, rho0, np.linspace(0.0, 0.1 * (n_times - 1), n_times),
                          substeps=8)


def test_tcl2_evolve_memory_does_not_grow_with_the_grid():
    """One stack of all 808 substep generators of the 101-time grid would take
    130 MB; in chunks the peak is that of the 11-time grid."""
    import tracemalloc

    _osc10_tcl2(11)                      # quadrature rules and imports cached
    peaks = []
    tracemalloc.start()
    try:
        for n_times in (11, 101):
            tracemalloc.reset_peak()
            _osc10_tcl2(n_times)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_tcl2_evolve_builds_generators_once_per_chunk(monkeypatch):
    """One tcl2_generator call per chunk: as many whole intervals of 8
    substeps as fit under the stack cap, each call with one Bohr
    decomposition of all couplings."""
    horizons, bohr = [], []
    gen, decompose = nm.tcl2_generator, nm._bohr_stack
    monkeypatch.setattr(nm, "tcl2_generator",
                        lambda system, bath, t, **k: horizons.append(len(t)) or
                        gen(system, bath, t, **k))
    monkeypatch.setattr(nm, "_bohr_stack", lambda *a, **k: bohr.append(1) or decompose(*a, **k))
    _osc10_tcl2(21)
    per = nm._STACK_BYTES // (8 * 100 ** 2 * 16)          # intervals per chunk
    assert horizons == [8 * per] * (20 // per) + [8 * (20 % per)] * (20 % per > 0)
    assert len(horizons) >= 2
    assert len(bohr) == len(horizons) < 20 * 8
