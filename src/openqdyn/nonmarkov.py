"""Non-Markovian evolution schemes.

Contents: exponential memory-kernel and post-Markovian integro-differential
models, the second-order time-convolutionless (TCL2) generator, local
generator extraction from sampled map families, and the dynamical
coarse-graining family of completely positive semigroups.

Complete positivity of finite-order TCL propagation is *not* asserted; the
solvers monitor trace and positivity of the trajectory (and the minimum Choi
eigenvalue of the accumulated map where requested) and report violations
instead of hiding them.
"""
import warnings
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import StepSizeError
from .gksl import hamiltonian_superop
from .liouville import (
    _as_square,
    apply_superop,
    conjugation_superop,
    devectorize,
    expm,
    left_multiply_superop,
    propagate_time_dependent,
    right_multiply_superop,
    vectorize,
)
from .maps import is_cp
from .weakcoupling import (
    _bohr_blocks,
    _halfline_kernel,
    _panel_nodes,
    _pattern_weights,
    _smooth_time,
    finite_time_gamma,
)


@dataclass
class MemoryKernel:
    """Normalized exponential memory kernel k(t) = g e^{-g t}.

    The exponential ansatz is the only built-in (it admits an exact local
    embedding); arbitrary kernels enter through :class:`TabulatedKernel` and
    the direct history-quadrature path.
    """

    g: float
    kind: str = "exponential"

    def __post_init__(self):
        if self.kind != "exponential":
            raise ValueError("only the exponential kernel ships built-in")
        # g e^{-g t} integrates to 1 for every finite g > 0
        if not (np.isfinite(self.g) and self.g > 0):
            raise ValueError("decay rate g must be positive")

    def __call__(self, t):
        return self.g * np.exp(-self.g * np.asarray(t, dtype=float))


@dataclass
class TabulatedKernel:
    """Memory kernel sampled on a time grid, linearly interpolated (zero
    beyond the last sample).  Solved by direct history quadrature, O(dt^2)."""

    times: np.ndarray
    values: np.ndarray
    kind: str = "tabulated"

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise ValueError("kernel table needs matching 1-D time/value arrays")
        if self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0):
            raise ValueError("kernel samples must start at t = 0 and ascend")

    def __call__(self, t):
        return np.interp(np.asarray(t, dtype=float), self.times, self.values,
                         left=0.0, right=0.0)


@dataclass
class Trajectory:
    times: np.ndarray
    states: List[np.ndarray]
    max_trace_error: float
    min_eigenvalue: float
    min_choi_eigenvalues: Optional[List[float]] = None

    def observable(self, O):
        return np.array([np.trace(O @ rho).real for rho in self.states])


def _check_grid(t_grid):
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0 or t[0] < 0:
        raise ValueError("t_grid must be a 1-D array starting at t >= 0")
    if np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be strictly ascending")
    return t


def _monitor(states, times):
    tr_err = max(abs(np.trace(r).real - 1.0) + abs(np.trace(r).imag) for r in states)
    min_eig = min(np.linalg.eigvalsh((r + r.conj().T) / 2.0).min() for r in states)
    if min_eig < -1e-6:
        warnings.warn(f"trajectory positivity violation: min eigenvalue {min_eig:.3e}",
                      stacklevel=3)
    return float(tr_err), float(min_eig)


def memory_kernel_evolve(L, kernel, rho0, t_grid, dt_max=None, steps=2000):
    """Evolve d rho/dt = int_0^t k(t-t') L[rho(t')] dt'.

    The exponential kernel admits an exact local embedding: with
    w(t) = int_0^t k(t-t') L rho(t') dt' the pair (rho, w) obeys the linear
    system rho' = w, w' = g L rho - g w, which is advanced with the classical
    fixed-step 4th-order one-step update (applied as its update matrix, the
    scheme being linear).  Trace drift beyond 1e-6 raises
    :class:`StepSizeError`.  Tabulated kernels go through direct history
    quadrature with documented O(dt^2) accuracy.
    """
    L = _as_square(L, "generator")
    t = _check_grid(t_grid)
    rho0 = _as_square(rho0, "initial state")
    if getattr(kernel, "kind", "exponential") != "exponential":
        def history(lags):               # H_s = k(s), a scalar per lag
            kv = kernel(lags)
            return lambda y: kv[:len(y), None] * y

        states = _volterra(L, history, rho0, t, steps)
        tr_err, min_eig = _monitor(states, t)
        if tr_err > 1e-6:
            raise StepSizeError(tr_err)
        return Trajectory(t, states, tr_err, min_eig)
    g = kernel.g
    n2 = L.shape[0]
    A = np.zeros((2 * n2, 2 * n2), dtype=complex)
    A[:n2, n2:] = np.eye(n2)
    A[n2:, :n2] = g * L
    A[n2:, n2:] = -g * np.eye(n2)
    scale = max(np.linalg.norm(L, 2), 1e-300)
    h_max = dt_max if dt_max is not None else min(0.05 / g, 0.05 / scale)
    y = np.concatenate([vectorize(rho0), np.zeros(n2, dtype=complex)])
    states = []
    t_prev = 0.0
    if t[0] == 0.0:
        states.append(rho0.astype(complex))
        t = t[1:]
    for t_next in t:
        span = t_next - t_prev
        k = max(1, int(np.ceil(span / h_max)))
        h = span / k
        hA = h * A
        M = (np.eye(2 * n2) + hA + hA @ hA / 2.0
             + hA @ hA @ hA / 6.0 + hA @ hA @ hA @ hA / 24.0)
        y = np.linalg.matrix_power(M, k) @ y
        rho = devectorize(y[:n2])
        drift = abs(np.trace(rho) - 1.0)
        if drift > 1e-6:
            raise StepSizeError(drift)
        states.append(rho)
        t_prev = t_next
    times = _check_grid(t_grid)
    tr_err, min_eig = _monitor(states, times)
    return Trajectory(times, states, tr_err, min_eig)


def _volterra(L, history, rho0, t_grid, steps):
    """O(dt^2) predictor-corrector for rho'(t) = L int_0^t H_s[rho(t - s)] ds.

    The history integral is the trapezoid rule on ``steps`` uniform lags up to
    ``t_grid[-1]``, and each step is a Heun update.  ``history(lags)`` sees
    the lag grid once and returns ``apply(y)``, which maps the rows
    y[i] = rho(t - lags[i]) to H_{lags[i]}[y[i]].  Output times are rounded
    to the nearest grid point.
    """
    n2 = L.shape[0]
    t_end = t_grid[-1]
    h = t_end / steps if t_end > 0 else 1.0
    apply = history(np.linspace(0.0, t_end, steps + 1))
    ys = np.empty((steps + 1, n2), dtype=complex)
    ys[0] = vectorize(rho0)

    def rhs(idx):
        if idx == 0:
            return np.zeros(n2, dtype=complex)
        vals = apply(ys[idx::-1])
        acc = vals.sum(axis=0) - 0.5 * (vals[0] + vals[-1])
        return L @ (acc * h)

    for m in range(steps):
        f0 = rhs(m)
        ys[m + 1] = ys[m] + h * f0            # predictor
        f1 = rhs(m + 1)
        ys[m + 1] = ys[m] + 0.5 * h * (f0 + f1)
    idx = [min(int(round(tt / h)) if t_end > 0 else 0, steps) for tt in t_grid]
    return [devectorize(ys[i]) for i in idx]


def post_markovian_evolve(L, kernel, rho0, t_grid, cond_threshold=1e8, steps=2000):
    """Evolve the post-Markovian equation
    d rho/dt = L int_0^t k(t') e^{L t'} rho(t-t') dt'.

    Diagonalizes L and solves each eigenmode's scalar integro-differential
    equation through the same augmented-variable embedding (per mode the
    augmented system is 2x2 and is advanced exactly).  A defective L falls
    back to direct quadrature over the history with O(dt^2) accuracy.
    """
    L = _as_square(L, "generator")
    t = _check_grid(t_grid)
    rho0 = _as_square(rho0, "initial state")
    g = kernel.g
    w, V = np.linalg.eig(L)
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > cond_threshold:
        def history(lags):               # H_s = k(s) e^{L s}
            kprops = np.array([kernel(s) * expm(L * s) for s in lags])
            return lambda y: np.einsum("mij,mj->mi", kprops[:len(y)], y)

        states = _volterra(L, history, rho0, t, steps)
    else:
        Vinv = np.linalg.inv(V)
        c0 = Vinv @ vectorize(rho0)
        states = []
        for tt in t:
            c = np.empty_like(c0)
            for i, lam in enumerate(w):
                c[i] = c0[i] * _pm_mode(lam, g, tt)
            states.append(devectorize(V @ c))
    tr_err, min_eig = _monitor(states, t)
    return Trajectory(t, states, tr_err, min_eig)


def _pm_mode(lam, g, t):
    """Scalar post-Markovian mode factor via the augmented 2x2 system
    c' = lam w, w' = g c + (lam - g) w with c(0) = 1, w(0) = 0."""
    if t == 0.0:
        return 1.0
    M = np.array([[0.0, lam], [g, lam - g]], dtype=complex)
    return expm(M * t)[0, 0]


# ---------------------------------------------------------------------------
# TCL2
# ---------------------------------------------------------------------------

def tcl2_generator(system, bath, t, alpha=1.0, bin_tol=None):
    """Second-order time-convolutionless generator at memory horizon t.

    Keeps every Bohr-frequency cross term (no secular approximation); the
    coefficients are the finite-horizon one-sided Fourier transforms
    Gamma^t_kl(w) = int_0^t du e^{iwu} C_kl(u).  Returned in the Schrodinger
    picture, where the oscillating prefactors cancel exactly and only the
    coefficients carry the time dependence.  At t = 0 the dissipative part
    vanishes.
    """
    alpha2 = float(alpha) ** 2
    decs, freqs = _bohr_blocks(system, bin_tol)
    L = hamiltonian_superop(system.H).astype(complex)
    K = len(system.couplings)
    gam = {w: finite_time_gamma(bath, w, t, system.coupling_pattern, n_couplings=K)
           for w in freqs}
    for w in freqs:
        G = gam[w]
        for wp in freqs:
            # Gamma_kl(w) [A_l(w) rho, A_k(w')^dag]
            for k, dk in enumerate(decs):
                if wp not in dk.blocks:
                    continue
                Akd = dk.blocks[wp].conj().T
                for l, dl in enumerate(decs):
                    if w not in dl.blocks or G[k, l] == 0.0:
                        continue
                    Al = dl.blocks[w]
                    L += alpha2 * G[k, l] * (
                        conjugation_superop(Al, Akd)
                        - left_multiply_superop(Akd @ Al))
            # Gamma_lk(w)^* [A_l(w'), rho A_k(w)^dag]
            for k, dk in enumerate(decs):
                if w not in dk.blocks:
                    continue
                Akd = dk.blocks[w].conj().T
                for l, dl in enumerate(decs):
                    if wp not in dl.blocks or G[l, k] == 0.0:
                        continue
                    Al = dl.blocks[wp]
                    L += alpha2 * np.conj(G[l, k]) * (
                        conjugation_superop(Al, Akd)
                        - right_multiply_superop(Akd @ Al))
    return L


def tcl2_evolve(system, bath, rho0, t_grid, alpha=1.0, substeps=8, bin_tol=None):
    """Propagate under the TCL2 generator with the time-splitting product.

    The accumulated map's minimum Choi eigenvalue is recorded at every output
    time: finite-order TCL propagation can break complete positivity, and the
    witness is reported rather than suppressed.
    """
    t = _check_grid(t_grid)
    rho0 = _as_square(rho0, "initial state")
    gen = lambda s: tcl2_generator(system, bath, s, alpha=alpha, bin_tol=bin_tol)
    n = system.dim
    P = np.eye(n * n, dtype=complex)
    states, witnesses = [], []
    t_prev = 0.0
    for tt in t:
        if tt > t_prev:
            P = propagate_time_dependent(gen, t_prev, tt, substeps) @ P
        states.append(apply_superop(P, rho0))
        witnesses.append(float(is_cp(P).min_choi_eigenvalue))
        t_prev = tt
    tr_err, min_eig = _monitor(states, t)
    return Trajectory(t, states, tr_err, min_eig, min_choi_eigenvalues=witnesses)


# ---------------------------------------------------------------------------
# generator extraction from a sampled map family
# ---------------------------------------------------------------------------

@dataclass
class ExtractedGenerator:
    times: np.ndarray
    generators: List[Optional[np.ndarray]]    # None marks a singular sample
    condition_numbers: np.ndarray


def tcl_from_family(samples, smoothing="central-difference", cond_threshold=1e10):
    """Local (time-convolutionless) generators from a sampled map family.

    Forms dE/dt by finite differences (central at interior samples, one-sided
    at the ends; ``smoothing="none"`` uses forward differences throughout)
    and composes with the sampled map's inverse.  Samples whose map is
    singular beyond the condition threshold are marked None: the local
    generator may still exist, but this grid cannot resolve it.
    """
    if smoothing not in ("none", "central-difference"):
        raise ValueError("smoothing must be 'none' or 'central-difference'")
    times = np.array([t for t, _ in samples], dtype=float)
    maps = [np.asarray(E, dtype=complex) for _, E in samples]
    if len(maps) < 2:
        raise ValueError("need at least two samples")
    gens, conds = [], []
    for i in range(len(maps)):
        if smoothing == "none" or i == 0:
            j0, j1 = i, min(i + 1, len(maps) - 1)
        elif i == len(maps) - 1:
            j0, j1 = i - 1, i
        else:
            j0, j1 = i - 1, i + 1
        if j0 == j1:
            j0 = i - 1
        dE = (maps[j1] - maps[j0]) / (times[j1] - times[j0])
        cond = float(np.linalg.cond(maps[i]))
        conds.append(cond)
        if not np.isfinite(cond) or cond > cond_threshold:
            gens.append(None)
            continue
        gens.append(dE @ np.linalg.inv(maps[i]))
    return ExtractedGenerator(times, gens, np.array(conds))


# ---------------------------------------------------------------------------
# dynamical coarse graining
# ---------------------------------------------------------------------------

@dataclass
class _CGIntegrals:
    """The four triangle primitives per ordered frequency pair."""

    tri_p: complex      # f = c_plus(u)
    tri_m: complex      # f = c_minus(u)
    tri_pn: complex     # f = c_plus(-u)
    tri_mn: complex     # f = c_minus(-u)


def _cg_pair_integrals(table, tau, freqs, n, smooth):
    """Triangle integrals of e^{-i w t1 - i w' t2} f(t1 - t2) over
    {0 <= t2 <= t1 <= tau} for the four correlation building blocks.

    In difference coordinates (u = t1 - t2) the inner t2 integral is the
    analytic half-line kernel, leaving one-dimensional quadratures in u where
    the correlation is actually supported:
    TRI = int_0^tau du e^{-i w u} f(u) E_{tau-u}(-(w + w')).
    """
    breaks = sorted({smooth, 10.0 * smooth} & set(
        b for b in (smooth, 10.0 * smooth) if b < tau))
    u, wu = _panel_nodes(0.0, tau, breaks, n)
    F = {
        "p": wu * table.c_plus(u),
        "m": wu * table.c_minus(u),
        "pn": wu * np.conj(table.c_plus(u)),
        "mn": wu * np.conj(table.c_minus(u)),
    }
    vals = {}
    for w in freqs:
        ph = np.exp(-1j * w * u)
        for wp in freqs:
            inner = _halfline_kernel(-(w + wp), tau - u)
            weight = ph * inner
            vals[(w, wp)] = _CGIntegrals(
                complex(np.sum(weight * F["p"])),
                complex(np.sum(weight * F["m"])),
                complex(np.sum(weight * F["pn"])),
                complex(np.sum(weight * F["mn"])),
            )
    return vals


def _coarse_grain_parts(system, bath, tau, alpha, table, n, decs, freqs):
    """Lamb-shift operator and dissipator superoperator of the horizon-tau
    coarse-grained generator (interaction picture, alpha^2 included), from
    the Bohr blocks ``decs`` and their frequencies ``freqs``."""
    n_dim = system.dim
    alpha2 = float(alpha) ** 2
    Wp, Wm = _pattern_weights(system.coupling_pattern, len(system.couplings))
    tri = _cg_pair_integrals(table, tau, freqs, n, _smooth_time(bath))

    H_raw = np.zeros((n_dim, n_dim), dtype=complex)
    Q = np.zeros((n_dim, n_dim), dtype=complex)
    sandwich = np.zeros((n_dim * n_dim, n_dim * n_dim), dtype=complex)
    for w in freqs:
        for wp in freqs:
            I = tri[(w, wp)]
            sq_p = I.tri_p + tri[(wp, w)].tri_pn        # square-domain, f = c_plus
            sq_m = I.tri_m + tri[(wp, w)].tri_mn
            sq_pn = I.tri_pn + tri[(wp, w)].tri_p       # square-domain, f = c_plus(-u)
            sq_mn = I.tri_mn + tri[(wp, w)].tri_m
            for k, dk in enumerate(decs):
                if w not in dk.blocks:
                    continue
                Ak = dk.blocks[w]
                for l, dl in enumerate(decs):
                    if wp not in dl.blocks:
                        continue
                    Al = dl.blocks[wp]
                    c_kl_tri = Wp[k, l] * I.tri_p + Wm[k, l] * I.tri_m
                    c_lk_trin = Wp[l, k] * I.tri_pn + Wm[l, k] * I.tri_mn
                    H_raw += Ak @ Al * c_kl_tri - Al @ Ak * c_lk_trin
                    c_kl_sq = Wp[k, l] * sq_p + Wm[k, l] * sq_m
                    c_lk_sqn = Wp[l, k] * sq_pn + Wm[l, k] * sq_mn
                    Q += Ak @ Al * c_kl_sq
                    sandwich += c_lk_sqn * conjugation_superop(Ak, Al)
    H_cg = (alpha2 / 2.0j) * H_raw
    H_cg = (H_cg + H_cg.conj().T) / 2.0
    Q = (Q + Q.conj().T) / 2.0
    D = alpha2 * (sandwich - 0.5 * left_multiply_superop(Q)
                  - 0.5 * right_multiply_superop(Q))
    return H_cg, D


def coarse_grain_generator(system, bath, tau, alpha=1.0, picture="schrodinger",
                           table=None, tol=1e-8, bin_tol=None):
    """Coarse-grained generator L-bar^tau = L^tau / tau.

    L^tau collects the exact second-order double-time integrals of the
    interaction over the horizon [0, tau]: a Hermitian level-shift part (the
    time-ordered commutator contraction) plus a dissipator built from the
    horizon-integrated coupling, completely positive by construction for
    every tau.  The triangular time-ordering split is integrated in
    difference coordinates, where the inner integral is the analytic
    half-line kernel; the remaining one-dimensional node counts are doubled
    until the result is stable to ``tol``.

    ``picture="schrodinger"`` (default) adds the free part -i[H_A, .];
    ``picture="interaction"`` returns L^tau/tau alone.
    """
    if tau <= 0:
        raise ValueError("coarse-graining time tau must be positive")
    if picture not in ("schrodinger", "interaction"):
        raise ValueError("picture must be 'schrodinger' or 'interaction'")
    if table is None:
        table = bath.correlation_table(tau)
    decs, freqs = _bohr_blocks(system, bin_tol)
    wmax_sys = max((abs(w) for w in freqs), default=0.0)   # sets the node count
    n = int(max(256, 1.5 * 2.0 * wmax_sys * tau))
    H_prev = D_prev = None
    while True:
        H_cg, D = _coarse_grain_parts(system, bath, tau, alpha, table, n, decs, freqs)
        if H_prev is not None:
            scale = max(np.abs(D).max(), np.abs(H_cg).max(), 1e-300)
            err = max(np.abs(D - D_prev).max(), np.abs(H_cg - H_prev).max())
            if err <= tol * scale or n >= 2 ** 16:
                break
        H_prev, D_prev = H_cg, D
        n *= 2
    L = (hamiltonian_superop(H_cg) + D) / tau
    if picture == "schrodinger":
        L = L + hamiltonian_superop(system.H)
    return L


def coarse_grain_evolve(system, bath, alpha, rho0, t_grid, bin_tol=None):
    """Coarse-grained trajectory: at each output time t the horizon is tied to
    the clock, rho(t) = U_t exp(L^{tau=t}) rho0 U_t^dag.

    Each output time is independent of the others.  Every state is validated
    as a density matrix through the shared trajectory monitor.
    """
    t = _check_grid(t_grid)
    rho0 = _as_square(rho0, "initial state")
    table = bath.correlation_table(max(t[-1], 1e-9))
    states = []
    for tt in t:
        if tt == 0.0:
            states.append(rho0.astype(complex))
            continue
        L_int = coarse_grain_generator(system, bath, tt, alpha,
                                       picture="interaction", table=table,
                                       bin_tol=bin_tol)
        rho_int = apply_superop(expm(tt * L_int), rho0)
        U = expm(-1j * system.H * tt)
        states.append(U @ rho_int @ U.conj().T)
    tr_err, min_eig = _monitor(states, t)
    return Trajectory(t, states, tr_err, min_eig)
