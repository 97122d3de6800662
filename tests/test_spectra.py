import numpy as np
import pytest

from openqdyn import spectra
from openqdyn.errors import DegenerateSpectrumError
from openqdyn.gksl import GKSLGenerator, hamiltonian_superop, superop_of_generator
from openqdyn.liouville import apply_superop, expm, trace_norm
from openqdyn.operators import (
    identity,
    rand_density_matrix,
    rand_hermitian,
    sigma_minus,
    sigma_plus,
    sigma_z,
)


def damped_qubit_L(gamma=0.5, nbar=0.0, omega0=1.0):
    gen = GKSLGenerator(H=0.5 * omega0 * sigma_z,
                        jumps=[(gamma * (nbar + 1), sigma_minus), (gamma * nbar, sigma_plus)])
    return superop_of_generator(gen)


def dephasing_L(gamma=0.3, omega0=1.0):
    gen = GKSLGenerator(H=0.5 * omega0 * sigma_z, jumps=[(gamma, sigma_z)])
    return superop_of_generator(gen)


def test_spectrum_damped_qubit_analytic():
    gamma, omega0 = 0.5, 1.3
    rep = spectra.liouvillian_spectrum(damped_qubit_L(gamma, 0.0, omega0))
    # analytic 4x4: {0, -G, -G/2 +- i w0} at nbar = 0
    expect = np.array(sorted([0.0, -gamma, -gamma / 2 + 1j * omega0,
                              -gamma / 2 - 1j * omega0],
                             key=lambda z: (z.real, z.imag)), dtype=complex)
    assert np.abs(rep.eigenvalues - expect).max() < 1e-12
    assert rep.zero_multiplicity == 1
    assert abs(rep.spectral_gap - gamma / 2) < 1e-12
    assert rep.diagonalizable


def test_spectrum_pure_dephasing_degenerate_zero():
    gamma, omega0 = 0.3, 1.0
    rep = spectra.liouvillian_spectrum(dephasing_L(gamma, omega0))
    # direct 4x4 computation: populations fixed (two zeros), coherences decay
    # at 2*gamma with +-i w0 precession
    assert rep.zero_multiplicity == 2
    nonzero = rep.eigenvalues[np.abs(rep.eigenvalues) > 1e-9]
    expect = sorted([-2 * gamma + 1j * omega0, -2 * gamma - 1j * omega0],
                    key=lambda z: (z.real, z.imag))
    assert np.abs(nonzero - np.array(expect)).max() < 1e-12


def test_spectrum_hamiltonian_only_imaginary():
    rng = np.random.default_rng(50)
    H = rand_hermitian(3, rng)
    rep = spectra.liouvillian_spectrum(hamiltonian_superop(H))
    assert np.abs(rep.eigenvalues.real).max() < 1e-12
    eps = np.linalg.eigvalsh(H)
    diffs = np.sort((eps[:, None] - eps[None, :]).ravel())
    assert np.abs(np.sort(rep.eigenvalues.imag) - diffs).max() < 1e-10


def test_is_relaxing_cases():
    assert spectra.is_relaxing(damped_qubit_L(0.5, 0.2)).verdict
    rep = spectra.is_relaxing(dephasing_L())
    assert not rep.verdict and rep.reason == "degenerate-zero"
    rng = np.random.default_rng(51)
    H = np.diag([0.0, 1.0, 2.7])
    rep2 = spectra.is_relaxing(hamiltonian_superop(H))
    assert not rep2.verdict and rep2.reason in ("degenerate-zero", "imaginary-eigenvalues")


def test_is_relaxing_hamiltonian_reason_imaginary():
    # nondegenerate spectrum: kernel is all diagonals (dim 3) -> degenerate
    # zero; to see the imaginary-eigenvalue branch use a qubit with gap but
    # undamped coherences: dephasing has degenerate zero, so construct a
    # generator with unique steady state but oscillating eigenvalue is
    # impossible for GKSL; check the branch on a hand-built matrix instead
    L = np.diag([0.0, 1j, -1j, -1.0])
    rep = spectra.is_relaxing(L)
    assert not rep.verdict and rep.reason == "imaginary-eigenvalues"


def test_steady_state_damped_qubit_gibbs():
    gamma, nbar = 0.4, 0.7
    L = damped_qubit_L(gamma, nbar)
    result = spectra.steady_states(L)
    assert result.kernel_dimension == 1
    assert len(result.states) == 1
    expect = np.diag([nbar, nbar + 1.0]) / (2 * nbar + 1.0)
    assert np.abs(result.states[0] - expect).max() < 1e-10


def test_steady_states_dephasing_projectors():
    result = spectra.steady_states(dephasing_L())
    assert result.kernel_dimension == 2
    P0 = np.diag([1.0, 0.0])
    P1 = np.diag([0.0, 1.0])
    found = {0: False, 1: False}
    for rho in result.states:
        if trace_norm(rho - P0) < 1e-8:
            found[0] = True
        if trace_norm(rho - P1) < 1e-8:
            found[1] = True
    assert found[0] and found[1]


def test_steady_states_unitary_kernel_dimension():
    H = np.diag([0.0, 1.0, 2.5])
    result = spectra.steady_states(hamiltonian_superop(H))
    assert result.kernel_dimension == 3
    for rho in result.states:
        assert np.abs(rho - np.diag(np.diag(rho))).max() < 1e-8


def test_ergodic_average_relaxing_reaches_unique_steady():
    rng = np.random.default_rng(52)
    L = damped_qubit_L(0.5, 0.3)
    target = spectra.steady_states(L).states[0]
    for _ in range(5):
        rho0 = rand_density_matrix(2, rng)
        avg = spectra.ergodic_average(L, rho0)
        assert trace_norm(avg - target) < 1e-10


def test_ergodic_average_hamiltonian_dephasing_of_coherences():
    omega0 = 1.0
    H = 0.5 * omega0 * sigma_z
    L = hamiltonian_superop(H)
    rho0 = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]], dtype=complex)
    avg = spectra.ergodic_average(L, rho0)
    # oracle: long-time numerical average at T = 1e3/omega0
    T, n = 1e3 / omega0, 4000
    ts = np.linspace(0.0, T, n)
    acc = np.zeros((2, 2), dtype=complex)
    for t in ts:
        acc += apply_superop(expm(L * t), rho0)
    acc /= n
    assert trace_norm(avg - acc) < 5e-3
    assert np.abs(avg - np.diag(np.diag(rho0))).max() < 1e-12


def test_ergodic_average_fixed_point():
    L = damped_qubit_L(0.5, 0.3)
    rho_ss = spectra.steady_states(L).states[0]
    assert trace_norm(spectra.ergodic_average(L, rho_ss) - rho_ss) < 1e-10


def test_ergodic_average_is_steady_and_valid():
    rng = np.random.default_rng(53)
    for L in (damped_qubit_L(0.5, 0.3), dephasing_L(), hamiltonian_superop(np.diag([0.0, 1.0]))):
        rho0 = rand_density_matrix(2, rng)
        avg = spectra.ergodic_average(L, rho0)
        assert trace_norm(apply_superop(L, avg)) <= 1e-8
        assert abs(np.trace(avg) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(avg).min() > -1e-10


def test_spohn_check_examples():
    rep = spectra.spohn_check([sigma_minus, sigma_plus])
    assert rep.self_adjoint_set and rep.commutant_dim == 1 and rep.relaxing_guaranteed
    rep2 = spectra.spohn_check([sigma_z.astype(complex)])
    assert rep2.self_adjoint_set and rep2.commutant_dim == 2 and not rep2.relaxing_guaranteed
    rep3 = spectra.spohn_check([identity(2)])
    assert rep3.commutant_dim == 4 and not rep3.relaxing_guaranteed


def test_spohn_self_adjoint_flag_matches_pairwise_comparison():
    """The stacked adjoint pairing gives the flag of comparing every jump with
    every other, at the per-jump scale tol * max(|V|.max(), 1)."""
    def pairwise(jumps, tol=1e-12):
        return all(any(np.abs(W - V.conj().T).max() <= tol * max(np.abs(V).max(), 1.0)
                       for W in jumps) for V in jumps)

    assert not spectra.spohn_check([sigma_minus]).self_adjoint_set
    rng = np.random.default_rng(57)
    flags = []
    for _ in range(40):
        dim = int(rng.integers(2, 4))
        jumps = []
        for _ in range(int(rng.integers(1, 4))):
            V = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) \
                * 10.0 ** rng.integers(-2, 3)
            jumps.append(V)
            # the adjoint: missing, exact, or off by about the tolerance
            kind = rng.integers(3)
            if kind:
                off = 1e-12 * max(np.abs(V).max(), 1.0) * (0.5 if kind == 1 else 2.0)
                jumps.append(V.conj().T + off * (rng.random() < 0.5))
        rng.shuffle(jumps)
        flags.append(pairwise(jumps))
        assert spectra.spohn_check(jumps).self_adjoint_set == flags[-1]
    assert any(flags) and not all(flags)


def test_spohn_soundness_on_random_self_adjoint_sets():
    rng = np.random.default_rng(54)
    count = 0
    for _ in range(20):
        dim = int(rng.integers(2, 4))
        V = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        jumps = [V, V.conj().T]
        rep = spectra.spohn_check(jumps)
        assert rep.self_adjoint_set
        if not rep.relaxing_guaranteed:
            continue
        count += 1
        gen = GKSLGenerator(H=rand_hermitian(dim, rng),
                            jumps=[(1.0, W) for W in jumps])
        assert spectra.is_relaxing(superop_of_generator(gen)).verdict
    assert count >= 10  # generic sets have trivial commutant


def test_relaxing_consistency_with_evolution():
    rng = np.random.default_rng(55)
    L = damped_qubit_L(0.5, 0.2)
    rep = spectra.is_relaxing(L)
    assert rep.verdict
    T = 20.0 / rep.report.spectral_gap
    steady = spectra.steady_states(L).states[0]
    E = expm(T * L)
    for _ in range(10):
        rho0 = rand_density_matrix(2, rng)
        assert trace_norm(apply_superop(E, rho0) - steady) <= 1e-6


def test_unique_pure_steady_state_relaxes():
    # amplitude damping to the ground state: unique pure fixed point
    L = damped_qubit_L(0.6, 0.0, omega0=0.9)
    rep = spectra.is_relaxing(L)
    assert rep.verdict
    ground = np.diag([0.0, 1.0]).astype(complex)
    rng = np.random.default_rng(56)
    E = expm(40.0 / rep.report.spectral_gap * L)
    for _ in range(10):
        rho0 = rand_density_matrix(2, rng)
        assert trace_norm(apply_superop(E, rho0) - ground) < 1e-8


def test_zero_projector_degenerate_error():
    # defective zero eigenspace: Jordan block at zero
    L = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DegenerateSpectrumError):
        spectra.zero_eigenprojector(L)


def test_spectrum_includes_lamb_shifted_precession():
    # with the level-shift Hamiltonian present, coherences precess at the
    # shifted splitting (difference of the dressed eigenvalues)
    import openqdyn.weakcoupling as wc

    system = wc.damped_qubit(1.0)
    bath = wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=1.0)
    gen = wc.davies_generator(system, bath)
    eps = np.linalg.eigvalsh(gen.base.H)
    shifted_splitting = eps[1] - eps[0]
    assert abs(shifted_splitting - 1.0) > 1e-4      # the shift is visible
    rep = spectra.liouvillian_spectrum(gen.superoperator())
    imags = np.sort(rep.eigenvalues.imag)
    assert abs(imags[0] + shifted_splitting) < 1e-10
    assert abs(imags[-1] - shifted_splitting) < 1e-10


def test_spectrum_orders_each_real_part_by_imaginary_part():
    """Rows sort by the real part on the zero-tolerance grid, then by the
    imaginary part, so rounding noise in the real parts of a conjugate pair
    does not decide their order; tol = 0 sorts by the exact (real, imag)."""
    import openqdyn.weakcoupling as wc

    gen = wc.davies_generator(wc.damped_oscillator(n_levels=6, omega0=1.0),
                              wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=1.0))
    L = gen.superoperator()
    rep = spectra.liouvillian_spectrum(L)
    snapped = np.round(rep.eigenvalues.real / rep.zero_tolerance)
    assert np.all(np.diff(snapped) >= 0)
    tied = np.diff(snapped) == 0
    assert np.count_nonzero(tied & (np.abs(rep.eigenvalues.imag[1:]) > 0.1)) >= 4
    assert np.all(np.diff(rep.eigenvalues.imag)[tied] >= 0)
    exact = spectra.liouvillian_spectrum(L, tol=0.0)
    keys = [(z.real, z.imag) for z in exact.eigenvalues]
    assert keys == sorted(keys)
    assert exact.zero_tolerance == 0.0


BAD_TOLS = pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])


@BAD_TOLS
def test_liouvillian_spectrum_rejects_bad_tolerance(tol):
    """A negative or NaN tolerance used to report zero multiplicity 0."""
    with pytest.raises(ValueError, match="tol"):
        spectra.liouvillian_spectrum(damped_qubit_L(), tol=tol)


@BAD_TOLS
def test_is_relaxing_rejects_bad_tolerance(tol):
    """A negative or NaN tolerance used to answer ``degenerate-zero``."""
    assert spectra.is_relaxing(damped_qubit_L()).verdict
    with pytest.raises(ValueError, match="tol"):
        spectra.is_relaxing(damped_qubit_L(), tol=tol)


@BAD_TOLS
def test_steady_states_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tol"):
        spectra.steady_states(damped_qubit_L(), tol=tol)


@BAD_TOLS
def test_zero_eigenprojector_rejects_bad_tolerance(tol):
    """An infinite tolerance used to return the projector onto every
    eigenvector (the identity); a negative or NaN one raised "no zero
    eigenvalue found"."""
    with pytest.raises(ValueError, match="tol must be"):
        spectra.zero_eigenprojector(damped_qubit_L(), tol=tol)


@BAD_TOLS
def test_ergodic_average_rejects_bad_tolerance(tol):
    """An infinite tolerance used to return rho0 itself."""
    rho0 = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    with pytest.raises(ValueError, match="tol must be"):
        spectra.ergodic_average(damped_qubit_L(), rho0, tol=tol)


@BAD_TOLS
def test_spohn_check_rejects_bad_tolerance(tol):
    """A negative or NaN tolerance used to report a self-adjoint set as not
    self-adjoint."""
    assert spectra.spohn_check([sigma_minus, sigma_plus]).self_adjoint_set
    with pytest.raises(ValueError, match="tol must be"):
        spectra.spohn_check([sigma_minus, sigma_plus], tol=tol)
