import numpy as np
import pytest

from openqdyn import gksl
from openqdyn.liouville import apply_superop, conjugation_superop, expm, hs_basis
from openqdyn.maps import is_cp, is_trace_preserving
from openqdyn.operators import (
    rand_hermitian,
    rand_density_matrix,
    sigma_minus,
    sigma_plus,
    sigma_z,
)


def damped_qubit_generator(gamma=0.5, nbar=0.3, omega0=1.0):
    return gksl.GKSLGenerator(
        H=0.5 * omega0 * sigma_z,
        jumps=[(gamma * (nbar + 1.0), sigma_minus), (gamma * nbar, sigma_plus)],
    )


def random_valid_generator(dim, rng, n_jumps=2):
    jumps = [(float(rng.uniform(0.05, 1.0)),
              rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
             for _ in range(n_jumps)]
    return gksl.GKSLGenerator(H=rand_hermitian(dim, rng), jumps=jumps)


def test_precession_spectrum():
    gen = gksl.GKSLGenerator(H=0.5 * 2.0 * sigma_z, jumps=[])
    w = np.linalg.eigvals(gksl.superop_of_generator(gen))
    w = w[np.argsort(w.imag)]
    assert np.allclose(sorted(w.real, key=abs), [0, 0, 0, 0], atol=1e-12)
    assert np.allclose(np.sort(w.imag), [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_damped_qubit_superoperator_structure():
    gamma, nbar = 0.4, 0.6
    gen = damped_qubit_generator(gamma, nbar)
    L = gksl.superop_of_generator(gen)
    # population sector: d p_e/dt = -G(n+1) p_e + G n p_g (basis |0>=excited)
    rho = np.diag([1.0, 0.0]).astype(complex)
    out = apply_superop(L, rho)
    assert abs(out[0, 0] + gamma * (nbar + 1)) < 1e-12
    assert abs(out[1, 1] - gamma * (nbar + 1)) < 1e-12
    rho_g = np.diag([0.0, 1.0]).astype(complex)
    out_g = apply_superop(L, rho_g)
    assert abs(out_g[0, 0] - gamma * nbar) < 1e-12


def test_generator_annihilates_trace():
    rng = np.random.default_rng(40)
    gen = random_valid_generator(3, rng)
    L = gksl.superop_of_generator(gen)
    for _ in range(100):
        rho = rand_density_matrix(3, rng)
        assert abs(np.trace(apply_superop(L, rho))) < 1e-12


def test_validate_rejects_bad_input():
    with pytest.raises(ValueError):
        gksl.GKSLGenerator(H=np.array([[0.0, 1.0], [0.0, 0.0]]), jumps=[]).validate()
    with pytest.raises(ValueError):
        gksl.GKSLGenerator(H=sigma_z.astype(complex),
                           jumps=[(-0.1, sigma_minus)]).validate()


def test_kossakowski_single_basis_jump():
    basis = hs_basis(2)
    gen = gksl.GKSLGenerator(H=np.zeros((2, 2)), jumps=[(0.7, basis[0])])
    kf = gksl.kossakowski_matrix(gen)
    expect = np.zeros((3, 3))
    expect[0, 0] = 0.7
    assert np.abs(kf.a - expect).max() < 1e-12


def test_kossakowski_damped_qubit_eigenvalues():
    # oracle: expand sigma_pm = (F1 -+(-) i F2)/sqrt(2) over the orthonormal
    # Pauli basis and diagonalize the resulting 2x2 rank structure:
    # eigenvalues {G(n+1), G n, 0}
    gamma, nbar = 0.4, 0.6
    gen = damped_qubit_generator(gamma, nbar)
    kf = gksl.kossakowski_matrix(gen)
    w = np.sort(np.linalg.eigvalsh(kf.a))[::-1]
    expect = np.sort([gamma * (nbar + 1), gamma * nbar, 0.0])[::-1]
    assert np.abs(w - expect).max() < 1e-12


def test_kossakowski_psd_for_valid_generators():
    rng = np.random.default_rng(41)
    for _ in range(10):
        gen = random_valid_generator(3, rng)
        kf = gksl.kossakowski_matrix(gen)
        assert np.linalg.eigvalsh(kf.a).min() > -1e-10


def test_canonical_form_diagonal_passthrough():
    basis = hs_basis(2)
    a = np.diag([0.5, 0.2, 0.0]).astype(complex)
    kf = gksl.KossakowskiForm(H=np.zeros((2, 2), dtype=complex), a=a, basis=basis)
    gen = gksl.canonical_form(kf)
    assert isinstance(gen, gksl.GKSLGenerator)
    rates = sorted(g for g, _ in gen.jumps)
    assert np.allclose(rates, [0.2, 0.5])
    for g, V in gen.jumps:
        # jumps stay basis elements up to phase
        overlaps = [abs(np.trace(F.conj().T @ V)) for F in basis[:-1]]
        assert max(overlaps) > 1.0 - 1e-10


def test_canonical_kossakowski_roundtrip():
    rng = np.random.default_rng(42)
    for dim in (2, 3):
        gen = random_valid_generator(dim, rng)
        kf = gksl.kossakowski_matrix(gen)
        gen2 = gksl.canonical_form(kf)
        # eigenvalue sets agree
        w1 = np.sort(np.linalg.eigvalsh(kf.a))
        w2 = np.sort(np.linalg.eigvalsh(gksl.kossakowski_matrix(gen2).a))
        assert np.abs(w1 - w2).max() < 1e-10
        # gauge-invariant comparison: the induced superoperators coincide
        L1 = gksl.superop_of_generator(gen)
        L2 = gksl.superop_of_generator(gen2)
        assert np.abs(L1 - L2).max() < 1e-10 * max(np.abs(L1).max(), 1.0)


def test_canonical_form_negative_eigenvalue_diagnosis():
    basis = hs_basis(2)
    a = np.diag([0.5, -0.2, 0.0]).astype(complex)
    kf = gksl.KossakowskiForm(H=np.zeros((2, 2), dtype=complex), a=a, basis=basis)
    diag = gksl.canonical_form(kf)
    assert isinstance(diag, gksl.NonGKSLDiagnosis)
    assert abs(diag.min_eigenvalue + 0.2) < 1e-12


def test_kossakowski_conditions_damped_qubit():
    gamma, nbar = 0.4, 0.6
    gen = damped_qubit_generator(gamma, nbar)
    L = gksl.superop_of_generator(gen)
    P_e = np.diag([1.0, 0.0]).astype(complex)
    P_g = np.diag([0.0, 1.0]).astype(complex)
    rep = gksl.check_kossakowski_conditions(L, [[P_e, P_g]])
    assert rep.passed
    A = rep.matrices[0]
    expect = np.array([[-gamma * (nbar + 1), gamma * nbar],
                       [gamma * (nbar + 1), -gamma * nbar]])
    assert np.abs(A - expect).max() < 1e-12
    assert np.abs(A.sum(axis=0)).max() < 1e-12


def test_kossakowski_conditions_flag_sign_flip():
    gen = damped_qubit_generator(0.4, 0.6)
    L = -gksl.superop_of_generator(gen)
    P_e = np.diag([1.0, 0.0]).astype(complex)
    P_g = np.diag([0.0, 1.0]).astype(complex)
    rep = gksl.check_kossakowski_conditions(L, [[P_e, P_g]])
    assert not rep.passed
    assert rep.first_violation.kind == "diagonal"
    assert rep.first_violation.value > 0


def test_kossakowski_conditions_hamiltonian_only():
    rng = np.random.default_rng(43)
    H = rand_hermitian(3, rng)
    L = gksl.hamiltonian_superop(H)
    parts = [gksl.eigenbasis_partition(H)]
    rep = gksl.check_kossakowski_conditions(L, parts)
    assert rep.passed
    assert np.abs(rep.matrices[0]).max() < 1e-12


def test_kossakowski_conditions_sampled_random_generators():
    rng = np.random.default_rng(44)
    for _ in range(50):
        dim = int(rng.integers(2, 4))
        gen = random_valid_generator(dim, rng)
        L = gksl.superop_of_generator(gen)
        parts = gksl.random_partitions(dim, 20, rng)
        rep = gksl.check_kossakowski_conditions(L, parts, tol=1e-9)
        assert rep.passed, rep.first_violation
        for A in rep.matrices:
            assert np.abs(A.sum(axis=0)).max() < 1e-10 * max(np.abs(L).max(), 1.0)


def _population_generator(Q):
    """Superoperator with L[vec|i><i|, vec|j><j|] = Q_ij and zeros elsewhere,
    so the computational-basis partition gives A = Q."""
    n = Q.shape[0]
    L = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            L[i * n + i, j * n + j] = Q[i, j]
    return L


def _computational_partition(n):
    return [np.diag(row).astype(complex) for row in np.eye(n)]


def test_kossakowski_conditions_off_diagonal_violation():
    # two negative off-diagonal entries; the row-major first one is reported,
    # and no diagonal entry is positive
    Q = np.array([[-1.0, 0.5, 0.5],
                  [0.5, -1.0, -0.3],
                  [-0.2, 0.5, -1.0]])
    rep = gksl.check_kossakowski_conditions(_population_generator(Q),
                                            [_computational_partition(3)])
    assert not rep.passed
    v = rep.first_violation
    assert (v.partition_index, v.kind, v.indices) == (0, "off-diagonal", (1, 2))
    assert v.value == pytest.approx(-0.3, abs=1e-14)
    assert np.abs(rep.matrices[0] - Q).max() < 1e-14


def test_kossakowski_conditions_column_sum_violation():
    # signs are right but columns 1 and 2 do not sum to zero
    Q = np.array([[-1.0, 0.2, 0.5],
                  [0.4, -1.0, 0.5],
                  [0.6, 0.3, -0.5]])
    rep = gksl.check_kossakowski_conditions(_population_generator(Q),
                                            [_computational_partition(3)])
    v = rep.first_violation
    assert (v.partition_index, v.kind, v.indices) == (0, "column-sum", (1, 1))
    assert v.value == pytest.approx(-0.5, abs=1e-14)


def test_kossakowski_conditions_kind_precedence_and_partition_index():
    # Q breaks all three conditions on the computational partition; its
    # entries sum to zero, so the Hadamard partition (A = sum(Q)/4) passes.
    # The diagonal violation wins and carries the second partition's index.
    Q = np.array([[-1.0, -0.2],
                  [0.5, 0.7]])
    hadamard = [np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
                np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)]
    rep = gksl.check_kossakowski_conditions(_population_generator(Q),
                                            [hadamard, _computational_partition(2)])
    assert np.abs(rep.matrices[0]).max() < 1e-14
    assert np.abs(rep.matrices[1] - Q).max() < 1e-14
    v = rep.first_violation
    assert (v.partition_index, v.kind, v.indices) == (1, "diagonal", (1, 1))
    assert v.value == pytest.approx(0.7, abs=1e-14)


def test_kossakowski_conditions_rejects_bad_partition():
    L = gksl.hamiltonian_superop(sigma_z.astype(complex))
    with pytest.raises(ValueError):
        gksl.check_kossakowski_conditions(L, [[np.diag([1.0, 0.0]).astype(complex)]])


def test_classical_generator_check_examples():
    assert gksl.classical_generator_check(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    assert not gksl.classical_generator_check(np.array([[-1.0, -1.0], [2.0, 1.0]]))


def test_classical_generator_stochastic_exponential():
    rng = np.random.default_rng(45)
    for _ in range(5):
        Q = rng.uniform(0.0, 1.0, (4, 4))
        np.fill_diagonal(Q, 0.0)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        assert gksl.classical_generator_check(Q)
        for tau in (0.1, 1.0, 10.0):
            P = expm(tau * Q).real
            assert P.min() > -1e-10
            assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-10


def test_expm_of_generator_cptp_at_several_times():
    rng = np.random.default_rng(46)
    gen = random_valid_generator(3, rng)
    L = gksl.superop_of_generator(gen)
    for tau in (1e-2, 1e-1, 1.0, 10.0):
        E = expm(tau * L)
        assert is_cp(E).verdict
        assert is_trace_preserving(E)


def test_hermiticity_preservation():
    rng = np.random.default_rng(47)
    gen = random_valid_generator(3, rng)
    L = gksl.superop_of_generator(gen)
    for _ in range(10):
        sigma = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = apply_superop(L, sigma.conj().T)
        rhs = apply_superop(L, sigma).conj().T
        assert np.abs(lhs - rhs).max() < 1e-12 * max(np.abs(lhs).max(), 1.0)


def test_nontraceless_jumps_folded_into_hamiltonian():
    # jump with an identity component must reproduce the same superoperator
    # after the Kossakowski round trip
    rng = np.random.default_rng(48)
    V = sigma_minus + 0.5 * np.eye(2)
    gen = gksl.GKSLGenerator(H=0.3 * sigma_z, jumps=[(0.8, V)])
    L1 = gksl.superop_of_generator(gen)
    gen2 = gksl.canonical_form(gksl.kossakowski_matrix(gen))
    L2 = gksl.superop_of_generator(gen2)
    assert np.abs(L1 - L2).max() < 1e-12
    # and the canonical jumps are traceless
    for _, W in gen2.jumps:
        assert abs(np.trace(W)) < 1e-10


def test_time_dependent_superop_closure():
    from openqdyn.liouville import propagate_time_dependent
    from openqdyn.gksl import time_dependent_superop

    H = 0.5 * sigma_z
    gen = time_dependent_superop(lambda t: H, lambda t: [(np.cos(t), sigma_z)])
    # commuting family: exact solution is exp of the integrated generator
    L_H = gksl.hamiltonian_superop(H)
    D = gksl.dissipator_superop(sigma_z.astype(complex))
    import scipy.integrate

    integral, _ = scipy.integrate.quad(np.cos, 0.0, 1.2)
    exact = expm(1.2 * L_H + integral * D)
    P = propagate_time_dependent(gen, 0.0, 1.2, 800)
    assert np.abs(P - exact).max() < 5e-3


def _hermiticity_preserving_superop(dim, rng):
    """Random Hermiticity-preserving superoperator: a real combination of
    conjugations A . A^dag plus a Hamiltonian part; not trace-annihilating."""
    L = gksl.hamiltonian_superop(rand_hermitian(dim, rng))
    for c in rng.standard_normal(3):
        A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        L = L + c * conjugation_superop(A, A.conj().T)
    return L


def _rotated_basis(dim, rng):
    """Traceless Hermitian orthonormal basis rotated by a random orthogonal
    matrix, with the normalized identity kept last."""
    basis = hs_basis(dim)
    O, _ = np.linalg.qr(rng.standard_normal((dim * dim - 1, dim * dim - 1)))
    rotated = [sum(O[i, j] * basis[j] for j in range(dim * dim - 1))
               for i in range(dim * dim - 1)]
    return rotated + [basis[-1]]


@pytest.mark.parametrize("rotate", [False, True], ids=["hs_basis", "rotated"])
@pytest.mark.parametrize("dim", [2, 3])
def test_kossakowski_of_superop_matches_definition(dim, rotate):
    # oracle: chi_jk = Tr[kron(F_k*, F_j)^dag L], the expansion of L over the
    # sandwich superoperators rho -> F_j rho F_k^dag
    rng = np.random.default_rng(100 + dim)
    basis = _rotated_basis(dim, rng) if rotate else hs_basis(dim)
    for _ in range(3):
        L = _hermiticity_preserving_superop(dim, rng)
        m = dim * dim
        chi = np.array([[np.trace(np.kron(basis[k].conj(), basis[j]).conj().T @ L)
                         for k in range(m)] for j in range(m)])
        F = sum(chi[j, m - 1] * basis[j] for j in range(m - 1)) / np.sqrt(dim)
        kf = gksl.kossakowski_of_superop(L, basis=basis if rotate else None)
        scale = np.abs(chi).max()
        assert np.abs(kf.a - chi[:-1, :-1]).max() < 1e-13 * scale
        assert np.abs(kf.H - 0.5j * (F - F.conj().T)).max() < 1e-13 * scale
        assert len(kf.basis) == m


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_kossakowski_conditions_reject_bad_tolerance(tol):
    L = gksl.superop_of_generator(damped_qubit_generator())
    parts = [[np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]]
    with pytest.raises(ValueError, match="tol"):
        gksl.check_kossakowski_conditions(L, parts, tol=tol)


def _dense_kossakowski(L, partitions, tol):
    """Reference for the blocked sums: A = P^dag L P with dense products, one
    partition at a time, and the first violation in partition order."""
    from openqdyn.liouville import _vec_columns

    scale = max(np.abs(L).max(), 1.0)
    matrices = [(_vec_columns(P).conj().T @ L @ _vec_columns(P)).real for P in partitions]
    violations = (gksl._first_violation(p, A, tol * scale) for p, A in enumerate(matrices))
    return matrices, next((v for v in violations if v is not None), None)


def _davies_oscillator(n_levels=6):
    from openqdyn.weakcoupling import BathModel, damped_oscillator, davies_generator

    bath = BathModel.ohmic(coupling=0.05, omega_c=3.0, temperature=1.0)
    return davies_generator(damped_oscillator(n_levels), bath).superoperator()


def _coarse_partition(dim, rng):
    """A random rank-2 projector and its complement, then rank-1 projectors."""
    _, V = np.linalg.eigh(rand_hermitian(dim, rng))
    head = V[:, :2] @ V[:, :2].conj().T
    return [head] + [np.outer(V[:, k], V[:, k].conj()) for k in range(2, dim)]


@pytest.mark.parametrize("case", ["random_one_block", "davies_many_blocks", "mixed_sizes"])
def test_kossakowski_blocked_sums_match_dense_products(case):
    from openqdyn.liouville import _blocks

    rng = np.random.default_rng(46)
    if case == "random_one_block":
        L = gksl.superop_of_generator(random_valid_generator(4, rng, n_jumps=3))
        parts = gksl.random_partitions(4, 6, rng)
        assert len(_blocks(L)) == 1
    else:
        L = _davies_oscillator()
        parts = gksl.random_partitions(6, 6, rng)
        assert len(_blocks(L)) > 5
        if case == "mixed_sizes":
            parts = [_coarse_partition(6, rng), parts[1], _coarse_partition(6, rng), parts[0]]
    rep = gksl.check_kossakowski_conditions(L, parts, tol=1e-9)
    dense, violation = _dense_kossakowski(L, parts, 1e-9)
    assert rep.passed and violation is None
    assert [A.shape for A in rep.matrices] == [A.shape for A in dense]
    scale = np.abs(L).max()
    for A, R in zip(rep.matrices, dense):
        assert np.abs(A - R).max() <= 1e-13 * scale


def test_kossakowski_blocked_sums_report_the_planted_violation():
    # a negative rate from population 1 to 3 breaks the off-diagonal condition
    # on the computational partition only, which comes third
    rng = np.random.default_rng(47)
    n = 6
    L = _davies_oscillator(n).copy()
    L[3 * n + 3, 1 * n + 1] -= 0.02
    L[1 * n + 1, 1 * n + 1] += 0.02
    comp = [np.diag(row).astype(complex) for row in np.eye(n)]
    parts = gksl.random_partitions(n, 3, rng, include_computational=False) + [comp]
    rep = gksl.check_kossakowski_conditions(L, parts, tol=1e-9)
    _, violation = _dense_kossakowski(L, parts, 1e-9)
    assert not rep.passed
    assert (violation.partition_index, violation.kind, violation.indices) == \
        (3, "off-diagonal", (3, 1))
    assert rep.first_violation == violation


def _check_partitions_one_by_one(partitions, dim, tol):
    """Reference for the batched partition validation: each partition in turn,
    identity resolution first, then its elements in order."""
    for P_list in partitions:
        if np.abs(sum(P_list) - np.eye(dim)).max() > tol:
            raise ValueError("projectors do not resolve the identity")
        for i, P in enumerate(P_list):
            if np.abs(P @ P - P).max() > 1e-8 or not gksl.is_hermitian(P, 1e-8):
                raise ValueError(f"element {i} is not an orthogonal projector")


PE, PG = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
HALF = np.diag([0.5, 0.0]).astype(complex)               # Hermitian, not idempotent
SKEW = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)  # idempotent, not Hermitian


@pytest.mark.parametrize("partitions", [
    [[PE]],
    [[PE, PG], [PE, PG, PG]],
    [[PE, PG], [PG, HALF, np.eye(2) - HALF - PG]],
    [[PE, PG], [SKEW, np.eye(2) - SKEW], [PE]],
    [[PE, PG], [PE, PG], [HALF, np.eye(2) - HALF], [PE]],
    [[np.eye(2)], []],
], ids=["short", "extra_element", "not_idempotent", "not_hermitian", "first_bad_wins",
        "empty_partition"])
def test_kossakowski_rejects_a_bad_partition_with_the_same_message(partitions):
    L = gksl.hamiltonian_superop(sigma_z.astype(complex))
    with pytest.raises(ValueError) as expected:
        _check_partitions_one_by_one(partitions, 2, 1e-8)
    with pytest.raises(ValueError) as got:
        gksl.check_kossakowski_conditions(L, partitions)
    assert str(got.value) == str(expected.value)
