import numpy as np
import pytest

from openqdyn import maps
from openqdyn.errors import DimensionError, NotCompletelyPositiveError, SingularMapError
from openqdyn.gksl import GKSLGenerator, dissipator_superop, superop_of_generator
from openqdyn.liouville import apply_superop, conjugation_superop, expm
from openqdyn.operators import (
    identity,
    rand_hermitian,
    rand_pure_state,
    rand_unitary,
    sigma_z,
)


def random_gksl(dim, rng, n_jumps=2):
    H = rand_hermitian(dim, rng)
    jumps = [(float(rng.uniform(0.1, 1.0)),
              rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
             for _ in range(n_jumps)]
    return GKSLGenerator(H=H, jumps=jumps)


def random_cptp(dim, rng, kraus_rank=None):
    """Random CPTP map from a Stinespring isometry."""
    k = kraus_rank or dim
    g = rng.standard_normal((dim * k, dim)) + 1j * rng.standard_normal((dim * k, dim))
    # QR gives an isometry V: dim -> dim*k, columns orthonormal
    V, _ = np.linalg.qr(g)
    kraus = [V[i * dim:(i + 1) * dim, :] for i in range(k)]
    return maps.map_from_kraus(kraus)


def transpose_superop(dim):
    S = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            S[i * dim + j, j * dim + i] = 1.0
    return S


def test_choi_identity_map_is_bell_projector():
    S = np.eye(4)
    C = maps.choi_of(S)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2)
    assert np.abs(C - 2.0 * np.outer(bell, bell.conj())).max() < 1e-14


def test_choi_transpose_map_is_swap():
    C = maps.choi_of(transpose_superop(2))
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float)
    assert np.abs(C - swap).max() < 1e-14
    assert np.allclose(np.sort(np.linalg.eigvalsh(C)), [-1, 1, 1, 1])


def test_choi_replacement_map():
    rng = np.random.default_rng(21)
    phi = rand_pure_state(3, rng)
    P = np.outer(phi, phi.conj())
    # rho -> Tr(rho) |phi><phi| as a superoperator: vec(P) outer vec-row of identity
    S = np.outer(P.reshape(-1, order="F"), np.eye(3).reshape(-1, order="F").conj())
    C = maps.choi_of(S)
    # oracle: direct evaluation on the matrix-unit basis
    expect = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            E = np.zeros((3, 3), dtype=complex)
            E[i, j] = 1.0
            out = np.trace(E) * P
            expect += np.kron(E, out)
    assert np.abs(C - expect).max() < 1e-13
    assert np.abs(C - np.kron(np.eye(3), P)).max() < 1e-13


def test_choi_superop_roundtrip_and_linearity():
    rng = np.random.default_rng(22)
    S1 = random_cptp(3, rng)
    S2 = random_cptp(3, rng)
    assert np.abs(maps.superop_from_choi(maps.choi_of(S1)) - S1).max() < 1e-13
    lhs = maps.choi_of(0.3 * S1 + 0.7j * S2)
    rhs = 0.3 * maps.choi_of(S1) + 0.7j * maps.choi_of(S2)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_is_cp_transpose_fails():
    rep = maps.is_cp(transpose_superop(2))
    assert not rep.verdict
    assert rep.min_choi_eigenvalue < -0.5


def test_is_cp_unitary_conjugation_passes():
    rng = np.random.default_rng(23)
    U = rand_unitary(3, rng)
    rep = maps.is_cp(conjugation_superop(U, U.conj().T))
    assert rep.verdict and rep.hermiticity_preserving


def test_is_cp_gksl_exponentials():
    rng = np.random.default_rng(24)
    for tau in (0.1, 1.0, 10.0):
        gen = random_gksl(3, rng)
        rep = maps.is_cp(expm(tau * superop_of_generator(gen)))
        assert rep.verdict, f"tau={tau}: witness {rep.min_choi_eigenvalue}"


def test_is_trace_preserving():
    assert maps.is_trace_preserving(np.eye(9))
    assert not maps.is_trace_preserving(0.5 * np.eye(4))
    rng = np.random.default_rng(25)
    gen = random_gksl(2, rng)
    assert maps.is_trace_preserving(expm(superop_of_generator(gen)))


def _basis_drift(S):
    """The trace drift Tr E(F_j) - Tr F_j in the Hilbert-Schmidt basis, as the
    product with the basis matrix."""
    from openqdyn.liouville import _vec_columns, hs_basis, vectorize

    n = int(round(np.sqrt(len(S))))
    tr = vectorize(np.eye(n))
    return (tr @ S - tr) @ _vec_columns(hs_basis(n))


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_hs_coordinates_are_the_basis_products(dim):
    from openqdyn.liouville import _hs_coordinates, _vec_columns, hs_basis

    v = np.random.default_rng(dim).standard_normal((dim * dim, 2)) @ np.array([1.0, 1j])
    if dim == 1:               # hs_basis needs dim >= 2: the identity alone
        assert np.allclose(_hs_coordinates(v), v, rtol=0, atol=1e-15)
        return
    ref = v @ _vec_columns(hs_basis(dim))
    assert np.abs(_hs_coordinates(v) - ref).max() <= 1e-15 * np.abs(v).sum()


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_trace_preserving_verdict_matches_the_basis_products(dim):
    """Random CPTP maps, TP to rounding, and the same maps with a trace drift
    of 0.5, 0.99, 1.01 and 2 times the tolerance: Tr E(|j><k|) moved by
    sqrt 2 that, which moves the pair coordinates of j < k by the factor
    times the tolerance, or Tr E(|k><k|) moved, which spreads over the
    diagonal ladder.  The verdict is that of the basis-product drift."""
    rng = np.random.default_rng(30 + dim)
    tol = 1e-10
    for _ in range(4):
        S = random_cptp(dim, rng)
        assert maps.is_trace_preserving(S, tol)
        scale = max(np.abs(S).max(), 1.0)
        j, k = rng.choice(dim, 2, replace=False)
        for factor in (0.5, 0.99, 1.01, 2.0):
            for col, size in ((k * dim + j, np.sqrt(2)), (k * dim + k, 1.0)):
                D = S.copy()
                D[j * dim + j, col] += factor * tol * scale * size
                ref = bool(np.abs(_basis_drift(D)).max() <= tol * max(np.abs(D).max(), 1.0))
                assert maps.is_trace_preserving(D, tol) == ref
                if col != k * dim + k:
                    assert ref == (factor < 1)


def test_contraction_check_cptp_and_amplified():
    rng = np.random.default_rng(26)
    gen = random_gksl(2, rng)
    rep = maps.contraction_check(expm(superop_of_generator(gen)), samples=100, rng=rng)
    assert rep.verdict and rep.max_ratio <= 1.0 + 1e-10
    rep2 = maps.contraction_check(2.0 * np.eye(4), samples=50, rng=rng)
    assert not rep2.verdict
    assert abs(rep2.max_ratio - 2.0) < 1e-10


def test_contraction_check_catches_nondivisible_intermediate():
    # dephasing with temporarily negative rate: intermediate map inflates
    # coherences and cannot be a trace-norm contraction
    D = dissipator_superop(sigma_z.astype(complex))
    q = lambda t: np.exp(-2.0 * np.sin(t))          # coherence factor, gamma(t)=cos t
    t1, t2 = 2.0, 2.6                               # window where integral decreases
    E1 = np.diag([1.0, q(t1), q(t1), 1.0]).astype(complex)
    E2 = np.diag([1.0, q(t2), q(t2), 1.0]).astype(complex)
    intermediate = E2 @ np.linalg.inv(E1)
    rep = maps.contraction_check(intermediate, samples=200, rng=np.random.default_rng(0))
    assert rep.max_ratio > 1.0


def test_kraus_identity_channel():
    ks = maps.kraus_of(np.eye(4))
    assert len(ks) == 1
    assert np.abs(np.abs(ks[0]) - np.eye(2)).max() < 1e-12


def test_kraus_replacement_channel_structure():
    rng = np.random.default_rng(27)
    phi = rand_pure_state(3, rng)
    P = np.outer(phi, phi.conj())
    S = np.outer(P.reshape(-1, order="F"), np.eye(3).reshape(-1, order="F").conj())
    ks = maps.kraus_of(S)
    assert len(ks) == 3
    # each Kraus operator is |phi><chi_a| with {chi_a} an orthonormal set
    chis = []
    for K in ks:
        u, s, vh = np.linalg.svd(K)
        assert s[1:].max() < 1e-10          # rank one
        assert abs(abs(np.vdot(u[:, 0], phi)) - 1.0) < 1e-10
        chis.append(vh[0].conj() * s[0])
    G = np.array([[np.vdot(a, b) for b in chis] for a in chis])
    assert np.abs(G - np.eye(3)).max() < 1e-10


def test_kraus_roundtrip_random_cptp():
    rng = np.random.default_rng(28)
    for dim in (2, 3):
        S = random_cptp(dim, rng)
        ks = maps.kraus_of(S)
        assert len(ks) <= dim * dim
        # completeness
        total = sum(K.conj().T @ K for K in ks)
        assert np.abs(total - np.eye(dim)).max() < 1e-10
        assert np.abs(maps.map_from_kraus(ks) - S).max() < 1e-10


def test_kraus_from_choi_rejects_negative():
    with pytest.raises(NotCompletelyPositiveError) as exc:
        maps.kraus_from_choi(maps.choi_of(transpose_superop(2)))
    assert exc.value.min_eigenvalue < -0.5


def test_map_from_kraus_dephasing_factor():
    p = 0.8
    ks = [np.sqrt(p) * identity(2), np.sqrt(1 - p) * sigma_z.astype(complex)]
    S = maps.map_from_kraus(ks)
    rho = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
    out = apply_superop(S, rho)
    assert abs(out[0, 1] - (2 * p - 1) * rho[0, 1]) < 1e-14
    assert abs(out[0, 0] - rho[0, 0]) < 1e-14


def test_kraus_choi_map_composition_identity():
    rng = np.random.default_rng(29)
    S = random_cptp(3, rng)
    ks = maps.kraus_from_choi(maps.choi_of(S))
    assert np.abs(maps.map_from_kraus(ks) - S).max() < 1e-10


def test_invert_map_unitary():
    rng = np.random.default_rng(30)
    U = rand_unitary(2, rng)
    S = conjugation_superop(U, U.conj().T)
    inv = maps.invert_map(S)
    assert inv.forward_unitary
    expect = conjugation_superop(U.conj().T, U)
    assert np.abs(inv.sop - expect).max() < 1e-12
    assert maps.is_cp(inv.sop).verdict


def test_invert_map_depolarizing_inverse_not_cp():
    p = 0.5
    S = (1 - p) * np.eye(4) + p * np.outer(
        (np.eye(2) / 2).reshape(-1, order="F"),
        np.eye(2).reshape(-1, order="F").conj())
    inv = maps.invert_map(S)
    assert not inv.forward_unitary
    assert not maps.is_cp(inv.sop).verdict


def test_invert_map_singular_raises():
    rng = np.random.default_rng(31)
    phi = rand_pure_state(2, rng)
    P = np.outer(phi, phi.conj())
    S = np.outer(P.reshape(-1, order="F"), np.eye(2).reshape(-1, order="F").conj())
    with pytest.raises(SingularMapError):
        maps.invert_map(S)


def _dephasing_family(times, rate=lambda t: np.cos(t)):
    import scipy.integrate

    family = []
    for t in times:
        integral, _ = scipy.integrate.quad(rate, 0.0, t)
        q = np.exp(-2.0 * integral)
        family.append((t, np.diag([1.0, q, q, 1.0]).astype(complex)))
    return family


def test_divisibility_semigroup_markovian():
    rng = np.random.default_rng(32)
    gen = random_gksl(2, rng)
    L = superop_of_generator(gen)
    family = [(t, expm(t * L)) for t in np.linspace(0.0, 3.0, 7)]
    report = maps.divisibility_witness(family)
    assert report.markovian is True
    assert all(iv.cp for iv in report.intervals)


def test_divisibility_cos_rate_dephasing():
    times = np.linspace(0.0, 2 * np.pi, 17)
    report = maps.divisibility_witness(_dephasing_family(times), tol=1e-10)
    assert report.markovian is False
    # oracle: interval is non-CP exactly when the rate integral decreases,
    # i.e. when sin(t2) < sin(t1)
    for iv in report.intervals:
        decreasing = np.sin(iv.t_end) < np.sin(iv.t_start) - 1e-12
        assert iv.cp == (not decreasing)
        if decreasing:
            assert iv.min_choi_eigenvalue < -1e-6


def test_divisibility_unitary_family():
    rng = np.random.default_rng(33)
    H = rand_hermitian(2, rng)
    family = []
    for t in np.linspace(0.0, 2.0, 6):
        U = expm(-1j * H * t)
        family.append((t, conjugation_superop(U, U.conj().T)))
    report = maps.divisibility_witness(family)
    assert report.markovian is True
    for (t1, E1), (t2, E2) in zip(family, family[1:]):
        inter = E2 @ np.linalg.inv(E1)
        assert maps.is_unitary_conjugation(inter)


def test_divisibility_singular_interval_inconclusive():
    family = [(0.0, np.eye(4, dtype=complex)),
              (1.0, np.diag([1.0, 1e-14, 1e-14, 1.0]).astype(complex)),
              (2.0, np.diag([1.0, 0.5, 0.5, 1.0]).astype(complex))]
    report = maps.divisibility_witness(family)
    assert report.markovian is None
    assert report.intervals[1].singular


def test_divisibility_single_sample_inconclusive():
    # no intervals were examined, so the family is neither shown divisible nor not
    report = maps.divisibility_witness([(0.0, np.eye(4, dtype=complex))])
    assert report.intervals == []
    assert report.markovian is None


def test_divisibility_rejects_unordered_times():
    with pytest.raises(ValueError):
        maps.divisibility_witness([(0.0, np.eye(4)), (0.0, np.eye(4))])


@pytest.mark.parametrize("times", [[0.0, float("nan"), 1.0], [0.0, float("inf"), 1.0],
                                   [0.0, 1.0, 0.5]], ids=["nan", "inf", "descending"])
def test_divisibility_rejects_bad_times(times):
    """A NaN time used to pass the ordering test and give markovian=True."""
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        maps.divisibility_witness([(t, np.eye(4)) for t in times])


def test_divisibility_rejects_mixed_sides():
    family = [(0.0, np.eye(4)), (1.0, np.eye(9))]
    with pytest.raises(DimensionError):
        maps.divisibility_witness(family)
    with pytest.raises(DimensionError):
        maps.divisibility_witness([(0.0, np.ones((4, 2)))])


def test_divisibility_empty_family_is_inconclusive():
    report = maps.divisibility_witness([])
    assert report.intervals == [] and report.markovian is None


def test_divisibility_reports_condition_of_each_start_map():
    L = superop_of_generator(GKSLGenerator(H=0.5 * sigma_z, jumps=[(0.4, sigma_z)]))
    times = [0.0, 0.5, 1.0, 2.0]
    family = [(t, expm(t * L)) for t in times]
    family.append((3.0, np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)))
    family.append((4.0, np.eye(4, dtype=complex)))
    report = maps.divisibility_witness(family)
    for iv, (_, E1) in zip(report.intervals[:-1], family):
        assert iv.condition == pytest.approx(np.linalg.cond(E1), rel=1e-10)
    assert report.intervals[-1].condition == np.inf and report.intervals[-1].singular


def test_cptp_implies_contraction():
    rng = np.random.default_rng(34)
    for _ in range(5):
        S = random_cptp(2, rng)
        assert maps.is_cp(S).verdict
        assert maps.is_trace_preserving(S)
        rep = maps.contraction_check(S, samples=80, rng=rng)
        assert rep.verdict


def _tensor_with_identity(S, dim_extra):
    """Superoperator of E (x) Id on the enlarged space (test-side helper)."""
    n = int(round(np.sqrt(S.shape[0])))
    m = n * dim_extra
    big = np.zeros((m * m, m * m), dtype=complex)
    S4 = S.reshape(n, n, n, n)  # [l,k],[j,i]
    for i in range(n):
        for j in range(n):
            for a in range(dim_extra):
                for b in range(dim_extra):
                    E = np.zeros((m, m), dtype=complex)
                    E[i * dim_extra + a, j * dim_extra + b] = 1.0
                    out = np.zeros((m, m), dtype=complex)
                    for k in range(n):
                        for l in range(n):
                            out[k * dim_extra + a, l * dim_extra + b] = S4[l, k, j, i]
                    big += np.outer(out.reshape(-1, order="F"),
                                    E.reshape(-1, order="F").conj())
    return big


def test_tensor_stability_of_cp():
    rng = np.random.default_rng(35)
    for dim in (2, 3):
        S = random_cptp(dim, rng)
        big = _tensor_with_identity(S, 2)
        assert maps.is_cp(big).verdict
        assert maps.is_trace_preserving(big)


BAD_TOLS = pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])


@BAD_TOLS
def test_is_cp_rejects_bad_tolerance(tol):
    """A negative or NaN tolerance used to fail a CPTP map silently."""
    E = expm(superop_of_generator(GKSLGenerator(H=0.5 * sigma_z, jumps=[(0.4, sigma_z)])))
    assert maps.is_cp(E).verdict
    with pytest.raises(ValueError, match="tol"):
        maps.is_cp(E, tol=tol)


@BAD_TOLS
def test_divisibility_witness_rejects_bad_tolerance(tol):
    L = superop_of_generator(GKSLGenerator(H=0.5 * sigma_z, jumps=[(0.4, sigma_z)]))
    family = [(t, expm(t * L)) for t in (0.5, 1.0)]
    with pytest.raises(ValueError, match="tol"):
        maps.divisibility_witness(family, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        maps.divisibility_witness(family[:1], tol=tol)     # no interval to test


def _damped_qubit_family(times):
    L = superop_of_generator(GKSLGenerator(H=0.5 * sigma_z,
                                           jumps=[(0.3, np.array([[0, 1], [0, 0]]))]))
    return [(t, expm(t * L)) for t in times]


@pytest.mark.parametrize("cond_threshold", [float("nan"), -1.0, 0.5, "1e10", None])
def test_map_inversions_reject_a_bad_cond_threshold(cond_threshold):
    """A NaN or sub-unit threshold used to mark every map singular, and a
    string to raise a numpy UFuncTypeError."""
    from openqdyn.nonmarkov import tcl_from_family

    family = _damped_qubit_family([0.5, 1.0])
    for run in (lambda fam: maps.divisibility_witness(fam, cond_threshold=cond_threshold),
                lambda fam: tcl_from_family(fam, cond_threshold=cond_threshold),
                lambda fam: maps.invert_map(fam[-1][1], cond_threshold=cond_threshold)):
        with pytest.raises(ValueError, match="cond_threshold must be a real number >= 1"):
            run(family)
    with pytest.raises(ValueError, match="cond_threshold"):          # no interval to test
        maps.divisibility_witness(family[:1], cond_threshold=cond_threshold)


@pytest.mark.parametrize("cond_threshold", [1, np.float64(10.0), float("inf")])
def test_map_inversions_take_any_cond_threshold_from_one_to_inf(cond_threshold):
    from openqdyn.nonmarkov import tcl_from_family

    family = _damped_qubit_family([0.5, 1.0])
    cond = maps.invert_map(family[-1][1]).condition
    assert 1.0 < cond < 10.0
    report = maps.divisibility_witness(family, cond_threshold=cond_threshold)
    gens = tcl_from_family(family, cond_threshold=cond_threshold).generators
    assert report.markovian is (None if cond_threshold == 1 else True)
    assert all((G is None) == (cond_threshold == 1) for G in gens)


@BAD_TOLS
@pytest.mark.parametrize("check", [maps.contraction_check, maps.is_trace_preserving,
                                   maps.is_unitary_conjugation],
                         ids=["contraction", "trace_preserving", "unitary_conjugation"])
def test_map_checks_reject_bad_tolerance(check, tol):
    """A negative or NaN tolerance used to fail the identity map silently."""
    verdict = lambda rep: rep.verdict if isinstance(rep, maps.ContractionReport) else rep
    assert verdict(check(np.eye(4)))
    assert verdict(check(np.eye(4), tol=0.0))         # the identity's ratio is exactly 1
    with pytest.raises(ValueError, match="tol"):
        check(np.eye(4), tol=tol)


@pytest.mark.parametrize("samples", [0, -5, 3.0, 2.5, "3", None, True, False])
def test_contraction_check_rejects_a_bad_sample_count(samples):
    with pytest.raises(ValueError, match="samples must be a positive integer"):
        maps.contraction_check(np.eye(4), samples=samples)


def test_contraction_check_takes_a_numpy_integer_count():
    rep = maps.contraction_check(2.0 * np.eye(4), samples=np.int64(3))
    assert not rep.verdict and abs(rep.max_ratio - 2.0) < 1e-12
