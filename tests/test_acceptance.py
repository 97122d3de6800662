"""Acceptance suite: one criterion per test, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole suite is sized for a laptop (Hilbert dimensions <= 16).
"""
import time

import numpy as np
import scipy.integrate

import openqdyn as oq
from openqdyn.gksl import (
    GKSLGenerator,
    check_kossakowski_conditions,
    hamiltonian_superop,
    kossakowski_of_superop,
    superop_of_generator,
)
from openqdyn.liouville import apply_superop, expm, trace_norm
from openqdyn.maps import divisibility_witness, is_cp, is_trace_preserving
from openqdyn.nonmarkov import (
    MemoryKernel,
    coarse_grain_generator,
    memory_kernel_evolve,
    tcl2_evolve,
)
from openqdyn.operators import (
    rand_density_matrix,
    rand_hermitian,
    sigma_minus,
    sigma_plus,
    sigma_z,
)
from openqdyn.spectra import ergodic_average, is_relaxing, spohn_check
from openqdyn.weakcoupling import (
    BathModel,
    bath_rates,
    bose_occupation,
    damped_oscillator,
    damped_qubit,
    davies_generator,
    kms_check,
    lamb_shift,
    stationarity_check,
)

OMEGA0 = 1.0


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} - {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number}: {label} ({detail})"


def ohmic(coupling=0.1, omega_c=3.0, T=1.0, **kw):
    return BathModel.ohmic(coupling=coupling, omega_c=omega_c, temperature=T, **kw)


def test_criterion_01_damped_qubit_reproduction():
    t0 = time.time()
    system = damped_qubit(OMEGA0)
    bath = ohmic(T=1.0)
    gen = davies_generator(system, bath)
    G = 2 * np.pi * float(bath.J(np.array([OMEGA0]))[0])
    nb = bose_occupation(OMEGA0, bath.temperature)
    rates = sorted(g for g, _ in gen.base.jumps)
    rates_ok = np.allclose(rates, sorted([G * (nb + 1), G * nb]), rtol=1e-10)

    L = gen.superoperator()
    p_inf = nb / (2 * nb + 1)
    p0 = 1.0
    rho0 = np.diag([p0, 0.0]).astype(complex)
    worst = 0.0
    for t in np.linspace(0.0, 10.0 / G, 21):
        pe = apply_superop(expm(t * L), rho0)[0, 0].real
        analytic = p_inf + (p0 - p_inf) * np.exp(-G * (2 * nb + 1) * t)
        worst = max(worst, abs(pe - analytic))
    elapsed = time.time() - t0
    report(1, "damped-qubit rates and population relaxation",
           rates_ok and worst <= 1e-8 and elapsed < 1.0,
           f"max |p_e - analytic| = {worst:.2e}, runtime {elapsed:.2f}s")


def test_criterion_02_thermal_stationarity():
    worst = 0.0
    for T in (0.1, 1.0, 10.0):
        bath = ohmic(T=T)
        rq = stationarity_check(davies_generator(damped_qubit(OMEGA0), bath))
        ro = stationarity_check(davies_generator(damped_oscillator(10, OMEGA0), bath))
        worst = max(worst, rq, ro)
    report(2, "Gibbs state stationary for qubit and 10-level oscillator",
           worst <= 1e-9, f"max residual {worst:.2e}")


def test_criterion_03_kms_certificate():
    worst = 0.0
    for T in (0.2, 0.5, 1.0, 2.0, 5.0):
        bath = ohmic(T=T)
        for system in (damped_qubit(OMEGA0), damped_oscillator(10, OMEGA0)):
            rep = kms_check(davies_generator(system, bath))
            worst = max(worst, rep.max_relative_violation)
    report(3, "detailed balance gamma(w) = e^{w/T} gamma(-w)^T",
           worst <= 1e-8, f"max relative violation {worst:.2e}")


def test_criterion_04_cp_sufficiency():
    rng = np.random.default_rng(101)
    worst_eig = 0.0
    ok = True
    for i in range(100):
        dim = int(rng.choice([2, 3, 4]))
        jumps = [(float(rng.uniform(0.1, 1.0)),
                  rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
                 for _ in range(int(rng.integers(1, 3)))]
        gen = GKSLGenerator(H=rand_hermitian(dim, rng), jumps=jumps)
        L = superop_of_generator(gen)
        for tau in (0.01, 0.1, 1.0, 10.0):
            E = expm(tau * L)
            rep = is_cp(E, tol=1e-10)
            ok = ok and rep.verdict and is_trace_preserving(E, tol=1e-10)
            worst_eig = min(worst_eig, rep.min_choi_eigenvalue)
    report(4, "100 random GKSL generators give CPTP propagators",
           ok, f"most negative Choi eigenvalue {worst_eig:.2e}")


def test_criterion_05_divisibility_witness():
    rng = np.random.default_rng(102)
    gen = GKSLGenerator(H=rand_hermitian(2, rng),
                        jumps=[(0.4, sigma_minus), (0.1, sigma_plus)])
    L = superop_of_generator(gen)
    family = [(t, expm(t * L)) for t in np.linspace(0.0, 4.0, 9)]
    semigroup_ok = divisibility_witness(family).markovian is True

    times = np.linspace(0.0, 2 * np.pi, 17)
    fam = []
    for t in times:
        integral, _ = scipy.integrate.quad(np.cos, 0.0, t)
        q = np.exp(-2.0 * integral)
        fam.append((t, np.diag([1.0, q, q, 1.0]).astype(complex)))
    rep = divisibility_witness(fam, tol=1e-10)
    match = True
    found_negative = False
    for iv in rep.intervals:
        decreasing = np.sin(iv.t_end) < np.sin(iv.t_start) - 1e-12
        match = match and (iv.cp == (not decreasing))
        if decreasing:
            found_negative = found_negative or iv.min_choi_eigenvalue < -1e-6
    report(5, "semigroup Markovian; cos-rate family flagged where the rate "
              "integral decreases", semigroup_ok and match and found_negative)


def test_criterion_06_relaxing_criterion_consistency():
    rng = np.random.default_rng(103)
    disagreements = 0
    for i in range(50):
        dim = int(rng.choice([2, 3]))
        kind = i % 5
        if kind == 3:       # dephasing-type: degenerate kernel
            proj = np.diag(rng.uniform(0.5, 1.5, dim)).astype(complex)
            gen = GKSLGenerator(H=rand_hermitian(dim, rng) * 0.0 + np.diag(
                np.arange(dim, dtype=float)), jumps=[(0.5, proj)])
        elif kind == 4:     # Hamiltonian-only
            gen = GKSLGenerator(H=np.diag(np.sort(rng.uniform(0, 2, dim))), jumps=[])
        else:
            while True:
                jumps = [(float(rng.uniform(0.2, 1.0)),
                          rng.standard_normal((dim, dim))
                          + 1j * rng.standard_normal((dim, dim)))
                         for _ in range(2)]
                gen = GKSLGenerator(H=rand_hermitian(dim, rng), jumps=jumps)
                gap = is_relaxing(superop_of_generator(gen)).report.spectral_gap
                if gap > 1e-3:
                    break
        L = superop_of_generator(gen)
        rep = is_relaxing(L)
        T = 20.0 / rep.report.spectral_gap if np.isfinite(rep.report.spectral_gap) \
            and rep.report.spectral_gap > 1e-3 else 200.0
        rho_refs = [rand_density_matrix(dim, rng) for _ in range(10)]
        target = ergodic_average(L, rho_refs[0])
        E = expm(T * L)
        converged = all(
            trace_norm(apply_superop(E, r) - target) <= 1e-6 for r in rho_refs)
        if converged != rep.verdict:
            disagreements += 1
    report(6, "is_relaxing matches empirical convergence on 50 generators",
           disagreements == 0, f"{disagreements} disagreements")


def test_criterion_07_spohn_theorem():
    rep = spohn_check([sigma_minus, sigma_plus])
    gen = GKSLGenerator(H=0.5 * sigma_z, jumps=[(1.0, sigma_minus), (1.0, sigma_plus)])
    spectral = is_relaxing(superop_of_generator(gen))
    first = rep.relaxing_guaranteed and spectral.verdict

    rep2 = spohn_check([sigma_z.astype(complex)])
    gen2 = GKSLGenerator(H=0.5 * sigma_z, jumps=[(1.0, sigma_z)])
    spectral2 = is_relaxing(superop_of_generator(gen2))
    second = (not rep2.relaxing_guaranteed and not spectral2.verdict
              and spectral2.reason == "degenerate-zero")
    report(7, "Spohn criterion confirmed spectrally on {s-,s+} and {sz}",
           first and second)


def test_criterion_08_kossakowski_conditions():
    system = damped_qubit(OMEGA0)
    bath = ohmic(T=1.0)
    gen = davies_generator(system, bath)
    L = gen.superoperator()
    G = 2 * np.pi * float(bath.J(np.array([OMEGA0]))[0])
    nb = bose_occupation(OMEGA0, bath.temperature)
    P_e = np.diag([1.0, 0.0]).astype(complex)
    P_g = np.diag([0.0, 1.0]).astype(complex)
    rep = check_kossakowski_conditions(L, [[P_e, P_g]])
    A = rep.matrices[0]
    expect = np.array([[-G * (nb + 1), G * nb], [G * (nb + 1), -G * nb]])
    matrix_ok = np.abs(A - expect).max() < 1e-10 * G
    flipped = check_kossakowski_conditions(-L, [[P_e, P_g]])
    report(8, "damped-qubit projector rate matrix and sign-flip violation",
           rep.passed and matrix_ok and not flipped.passed,
           f"max |A - expected| = {np.abs(A - expect).max():.2e}")


def test_criterion_09_trotter_and_time_splitting():
    rng = np.random.default_rng(104)
    orders = []
    for _ in range(4):
        A = rand_hermitian(4, rng)
        B = rand_hermitian(4, rng)
        A /= np.linalg.norm(A, 2)
        B /= np.linalg.norm(B, 2)
        ref = expm(A + B)
        ns = np.array([32, 64, 128, 256])
        errs = np.array([np.abs(oq.trotter_product(A, B, n) - ref).max() for n in ns])
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        orders.append(-slope)
    trotter_ok = all(o >= 0.9 for o in orders)

    L0 = 1j * rand_hermitian(3, rng)
    L1 = 1j * rand_hermitian(3, rng)
    gen = lambda t: L0 + np.sin(1.7 * t) * L1
    ref = oq.propagate_time_dependent(gen, 0.0, 2.0, 64 * 16)
    e1 = np.abs(oq.propagate_time_dependent(gen, 0.0, 2.0, 64) - ref).max()
    e2 = np.abs(oq.propagate_time_dependent(gen, 0.0, 2.0, 128) - ref).max()
    split_ok = 1.6 <= e1 / e2 <= 2.4
    report(9, "first-order product-formula convergence",
           trotter_ok and split_ok,
           f"orders {[f'{o:.2f}' for o in orders]}, halving ratio {e1/e2:.2f}")


def test_criterion_10_lamb_shift_quadrature():
    j0, wmax, w0 = 0.5, 3.0, 1.0
    S = lamb_shift(BathModel.flat(j0, wmax, 0.0), w0, "position_xy")
    expect = (j0 / 4.0) * np.log(w0 / (wmax - w0))
    flat_ok = abs(S[0, 0].real - expect) <= 1e-6 * abs(expect)

    def tent(w):
        w = np.asarray(w, dtype=float)
        return 0.3 * np.maximum(0.0, 1.0 - np.abs(w - w0) / 0.4)

    S2 = lamb_shift(BathModel(tent, 0.0, 3.0, 1.0), w0, "position_xy")
    sym_ok = abs(S2[0, 0]) <= 1e-10
    report(10, "flat-density closed form and odd-symmetry vacuum shift",
           flat_ok and sym_ok,
           f"flat rel err {abs(S[0,0].real-expect)/abs(expect):.1e}, |S_sym| = {abs(S2[0,0]):.1e}")


def test_criterion_11_pure_dephasing_cross_validation():
    omega_c, alpha = 3.0, 0.25
    assert alpha**2 <= 1e-2 * omega_c**2
    system = oq.weakcoupling.pure_dephasing(OMEGA0)
    bath = ohmic(coupling=0.05, omega_c=omega_c, T=0.8)
    c0 = 0.45
    rho0 = np.array([[0.5, c0], [c0, 0.5]], dtype=complex)
    t_grid = np.array([0.0, 0.5, 1.5, 3.0])
    traj = tcl2_evolve(system, bath, rho0, t_grid, alpha=alpha, substeps=12)

    def exact_exponent(t):
        def integrand(w):
            return (bath.J(np.atleast_1d(w))[0] / np.tanh(w / (2 * bath.temperature))
                    * (1.0 - np.cos(w * t)) / w**2)
        val, _ = scipy.integrate.quad(integrand, 0.0, bath.omega_max, limit=400)
        return 4.0 * alpha**2 * val

    worst = 0.0
    for i, t in enumerate(t_grid):
        expect = c0 * np.exp(-exact_exponent(t))
        worst = max(worst, abs(abs(traj.states[i][0, 1]) - expect) / expect)
    tcl_ok = worst <= 0.05

    alpha_j, T = 0.02, 0.7
    bathd = BathModel.ohmic(coupling=alpha_j, omega_c=3.0, temperature=T)
    g0 = bath_rates(bathd, 0.0, "single")[0, 0].real
    rate_ok = abs(g0 - 2 * np.pi * alpha_j * T) <= 1e-6 * (2 * np.pi * alpha_j * T)
    report(11, "TCL2 matches exact dephasing; ohmic zero-frequency rate 2 pi a T",
           tcl_ok and rate_ok, f"TCL2 worst rel {worst:.3f}, rate rel err "
           f"{abs(g0 - 2*np.pi*alpha_j*T)/(2*np.pi*alpha_j*T):.1e}")


def test_criterion_12_dynamical_coarse_graining():
    system = damped_qubit(OMEGA0)
    bath = ohmic(coupling=0.05, T=1.0)
    table = bath.correlation_table(20.0)
    psd_ok = True
    for tau in np.geomspace(0.05, 20.0, 20):
        L = coarse_grain_generator(system, bath, tau, picture="interaction",
                                   table=table)
        kf = kossakowski_of_superop(L)
        w = np.linalg.eigvalsh(kf.a)
        psd_ok = psd_ok and w.min() > -1e-10 * max(abs(w).max(), 1e-300)

    bath_v = BathModel.ohmic(coupling=0.05, omega_c=10.0, temperature=0.0,
                             omega_max=200.0)
    gen = davies_generator(system, bath_v)
    L_dav_int = gen.superoperator() - hamiltonian_superop(system.H)
    resonant = np.abs(L_dav_int) > 1e-12 * np.abs(L_dav_int).max()
    Lcg = coarse_grain_generator(system, bath_v, 800.0, picture="interaction",
                                 table=bath_v.correlation_table(800.0))
    dev = np.abs((Lcg - L_dav_int)[resonant]).max() / np.abs(L_dav_int).max()
    davies_ok = dev <= 1e-3

    rho0 = np.diag([1.0, 0.0]).astype(complex)
    t = 2.0

    def deviation(a):
        L_int = coarse_grain_generator(system, bath, t, alpha=a,
                                       picture="interaction", table=table) * t
        return trace_norm(apply_superop(expm(L_int), rho0)
                          - (rho0 + apply_superop(L_int, rho0)))

    ratio = deviation(0.1) / deviation(0.05)
    scaling_ok = ratio >= 8.0
    report(12, "coarse graining: PSD rates, Davies limit, cubic alpha scaling",
           psd_ok and davies_ok and scaling_ok,
           f"Davies dev {dev:.1e}, alpha-halving ratio {ratio:.1f}")


def test_criterion_13_memory_kernel_limits():
    rng = np.random.default_rng(105)
    gen = GKSLGenerator(H=0.5 * OMEGA0 * sigma_z,
                        jumps=[(0.4, sigma_minus), (0.15, sigma_plus)])
    L = superop_of_generator(gen)
    g = 1e3 * np.linalg.norm(L, 2)
    rho0 = rand_density_matrix(2, rng)
    t_grid = np.linspace(0.0, 5.0, 11)
    traj = memory_kernel_evolve(L, MemoryKernel(g=g), rho0, t_grid)
    markov_dev = max(trace_norm(traj.states[i] - apply_superop(expm(t * L), rho0)) / 2
                     for i, t in enumerate(t_grid))

    gamma, g2, c0 = 0.5, 5.0, 0.4
    lam = -2.0 * gamma
    Ld = superop_of_generator(GKSLGenerator(H=np.zeros((2, 2)),
                                            jumps=[(gamma, sigma_z)]))
    rho0d = np.array([[0.5, c0], [c0, 0.5]], dtype=complex)
    t2 = np.linspace(0.0, 4.0, 9)
    traj2 = memory_kernel_evolve(Ld, MemoryKernel(g=g2), rho0d, t2)
    disc = np.sqrt(g2 * g2 + 4 * g2 * lam)
    s_p, s_m = (-g2 + disc) / 2, (-g2 - disc) / 2
    A = -c0 * s_m / (s_p - s_m)
    B = c0 * s_p / (s_p - s_m)
    scalar_dev = max(abs(traj2.states[i][0, 1] - (A * np.exp(s_p * t) + B * np.exp(s_m * t)))
                     for i, t in enumerate(t2))
    report(13, "memory kernel: Markovian limit and scalar closed form",
           markov_dev <= 1e-3 and scalar_dev <= 1e-8,
           f"Markov dev {markov_dev:.1e}, scalar dev {scalar_dev:.1e}")
