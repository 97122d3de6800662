import numpy as np
import pytest
import scipy.integrate

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
    traj = nm.memory_kernel_evolve(L, nm.MemoryKernel(g=g), rho0, t, dt_max=2e-4)
    disc = np.sqrt(g * g + 4.0 * g * lam)
    s_plus, s_minus = (-g + disc) / 2.0, (-g - disc) / 2.0
    A = -c0 * s_minus / (s_plus - s_minus)
    B = c0 * s_plus / (s_plus - s_minus)
    for i, tt in enumerate(t):
        expect = A * np.exp(s_plus * tt) + B * np.exp(s_minus * tt)
        assert abs(traj.states[i][0, 1] - expect) < 1e-8


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


def test_post_markovian_history_fallback_matches_spectral():
    # force the quadrature fallback and compare against the spectral route
    L = damped_qubit_L(0.5, 0.0)
    rho0 = np.array([[0.8, 0.1], [0.1, 0.2]], dtype=complex)
    t = np.linspace(0.0, 2.0, 5)
    kernel = nm.MemoryKernel(g=4.0)
    spectral = nm.post_markovian_evolve(L, kernel, rho0, t)
    fallback = nm.post_markovian_evolve(L, kernel, rho0, t, cond_threshold=0.0,
                                        steps=4000)
    worst = max(np.abs(a - b).max() for a, b in zip(spectral.states, fallback.states))
    assert worst < 1e-3


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
    table = bath.correlation_table(20.0)
    for tau in np.geomspace(0.05, 20.0, 20):
        L = nm.coarse_grain_generator(system, bath, tau, picture="interaction",
                                      table=table)
        kf = kossakowski_of_superop(L)
        w = np.linalg.eigvalsh(kf.a)
        assert w.min() > -1e-10 * max(abs(w).max(), 1e-300), f"tau={tau}"
        gen = canonical_form(kf)
        assert isinstance(gen, GKSLGenerator)


def test_coarse_grain_alpha_square_prefactor():
    system = wc.damped_qubit(OMEGA0)
    bath = wc.BathModel.ohmic(coupling=0.05, omega_c=3.0, temperature=1.0)
    table = bath.correlation_table(2.0)
    L1 = nm.coarse_grain_generator(system, bath, 2.0, alpha=1.0,
                                   picture="interaction", table=table)
    L2 = nm.coarse_grain_generator(system, bath, 2.0, alpha=2.0,
                                   picture="interaction", table=table)
    assert np.abs(L2 - 4.0 * L1).max() < 1e-10 * np.abs(L2).max()


def test_coarse_grain_large_tau_matches_davies():
    system = wc.damped_qubit(OMEGA0)
    bath = wc.BathModel.ohmic(coupling=0.05, omega_c=10.0, temperature=0.0,
                              omega_max=200.0)
    gen = wc.davies_generator(system, bath)
    L_dav_int = gen.superoperator() - hamiltonian_superop(system.H)
    resonant = np.abs(L_dav_int) > 1e-12 * np.abs(L_dav_int).max()
    table = bath.correlation_table(800.0)
    L = nm.coarse_grain_generator(system, bath, 800.0, picture="interaction",
                                  table=table)
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
    table = bath.correlation_table(t)
    traj0 = nm.coarse_grain_evolve(system, bath, 0.1, rho0, np.array([0.0]))
    assert np.abs(traj0.states[0] - rho0).max() == 0.0

    def deviation(alpha):
        # interaction picture: || e^{L^t} rho0 - (1 + L^t) rho0 ||_1
        L_int = nm.coarse_grain_generator(system, bath, t, alpha=alpha,
                                          picture="interaction", table=table) * t
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


def test_tabulated_kernel_matches_exponential_route():
    # a tabulated exponential kernel must reproduce the exact local embedding
    g = 4.0
    ts = np.linspace(0.0, 12.0, 4001)
    tab = nm.TabulatedKernel(ts, g * np.exp(-g * ts))
    L = damped_qubit_L(0.5, 0.2)
    rho0 = np.array([[0.8, 0.2], [0.2, 0.2]], dtype=complex)
    grid = np.linspace(0.0, 3.0, 7)
    exact = nm.memory_kernel_evolve(L, nm.MemoryKernel(g=g), rho0, grid)
    hist = nm.memory_kernel_evolve(L, tab, rho0, grid, steps=3000)
    worst = max(np.abs(a - b).max() for a, b in zip(exact.states, hist.states))
    assert worst < 2e-3
    with pytest.raises(ValueError):
        nm.TabulatedKernel(np.array([0.5, 1.0]), np.array([1.0, 0.5]))


class _HistoryExponentialKernel:
    """g e^{-g t} routed through the history quadrature instead of the exact
    local embedding."""

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
    if scheme == "memory_kernel":
        exact = nm.memory_kernel_evolve(L, nm.MemoryKernel(g=g), rho0, t, dt_max=1e-3)
        run = lambda steps: nm.memory_kernel_evolve(L, _HistoryExponentialKernel(g), rho0, t,
                                                    steps=steps)
    else:
        exact = nm.post_markovian_evolve(L, nm.MemoryKernel(g=g), rho0, t)
        run = lambda steps: nm.post_markovian_evolve(L, nm.MemoryKernel(g=g), rho0, t,
                                                     cond_threshold=0.0, steps=steps)
    errors = [max(np.abs(a - b).max() for a, b in zip(exact.states, run(steps).states))
              for steps in (100, 200, 400)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 < coarse / fine < 4.5


def test_memory_kernel_unstable_step_raises():
    from openqdyn.errors import StepSizeError

    L = damped_qubit_L()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    # force a step far beyond the stability limit of the one-step update
    with pytest.raises(StepSizeError):
        nm.memory_kernel_evolve(L, nm.MemoryKernel(g=50.0), rho0,
                                np.array([0.0, 50.0]), dt_max=1.0)


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
