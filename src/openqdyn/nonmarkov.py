"""Non-Markovian evolution schemes.

Contents: memory-kernel and post-Markovian integro-differential models, the
second-order time-convolutionless (TCL2) generator, local generator
extraction from sampled map families, and the dynamical coarse-graining
family of completely positive semigroups.

Both integro-differential schemes take an exponential kernel exactly, as the
semigroup of an augmented linear system in (rho, w) on twice the Liouville
space, and any other kernel by O(dt^2) history quadrature.

Complete positivity of finite-order TCL propagation is *not* asserted; the
solvers monitor trace and positivity of the trajectory (and the minimum Choi
eigenvalue of the accumulated map where requested) and report violations
instead of hiding them.
"""
import warnings
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import SingularMapError, StepSizeError
from .gksl import hamiltonian_superop
from .liouville import (
    _STACK_BYTES,
    _as_square,
    _lindblad_superop,
    _time_split,
    apply_superop,
    devectorize,
    expm,
    propagate_semigroup,
    vectorize,
)
from .maps import _guarded_inverse, is_cp
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

    The exponential ansatz is the only built-in (it admits an exact augmented
    embedding); arbitrary kernels enter through :class:`TabulatedKernel` and
    the history quadrature.
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


def _monitor(states, times, stacklevel=3):
    """Trace error and minimum eigenvalue of a trajectory; a positivity
    violation warns at the caller ``stacklevel`` frames up (the solver's)."""
    tr_err = max(abs(np.trace(r).real - 1.0) + abs(np.trace(r).imag) for r in states)
    min_eig = min(np.linalg.eigvalsh((r + r.conj().T) / 2.0).min() for r in states)
    if min_eig < -1e-6:
        warnings.warn(f"trajectory positivity violation: min eigenvalue {min_eig:.3e}",
                      stacklevel=stacklevel)
    return float(tr_err), float(min_eig)


def _kernel_evolve(L, kernel, rho0, t_grid, steps, augmented, history):
    """Shared solver of the two kernel schemes.

    An exponential kernel k(t) = g e^{-g t} makes the scheme a linear ODE in
    the pair (rho, w): ``augmented(L, I, g)`` gives the 2 x 2 block matrix of
    its generator, whose semigroup applied to (vec rho0, 0) is exact for
    every L, defective ones included.  Any other kernel takes the history
    quadrature of :func:`_volterra` with ``history(L, lags)``.
    """
    L = _as_square(L, "generator")
    t = _check_grid(t_grid)
    rho0 = _as_square(rho0, "initial state")
    n2 = L.shape[0]
    if getattr(kernel, "kind", "exponential") == "exponential":
        A = np.block(augmented(L, np.eye(n2), kernel.g))
        y0 = np.concatenate([vectorize(rho0), np.zeros(n2, dtype=complex)])
        states = [devectorize(y[:n2]) for y in propagate_semigroup(A, t, y0)]
    else:
        states = _volterra(L, history, rho0, t, steps)
    return Trajectory(t, states, *_monitor(states, t, stacklevel=4))


def _volterra(L, history, rho0, t_grid, steps):
    """O(dt^2) predictor-corrector for rho'(t) = L int_0^t H_s[rho(t - s)] ds.

    The history integral is the trapezoid rule on ``steps`` uniform lags up to
    ``t_grid[-1]``, and each step is a Heun update.  ``history(L, lags)`` sees
    the lag grid once and returns ``apply(y)``, which maps the rows
    y[i] = rho(t - lags[i]) to H_{lags[i]}[y[i]].  Output times are rounded
    to the nearest grid point.
    """
    n2 = L.shape[0]
    t_end = t_grid[-1]
    if t_end == 0.0:                     # the grid is the single time 0
        return [rho0]
    h = t_end / steps
    apply = history(L, np.linspace(0.0, t_end, steps + 1))
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
    idx = [min(int(round(tt / h)), steps) for tt in t_grid]
    return [devectorize(ys[i]) for i in idx]


def memory_kernel_evolve(L, kernel, rho0, t_grid, steps=2000):
    """Evolve d rho/dt = int_0^t k(t-t') L[rho(t')] dt'.

    With w(t) = int_0^t k(t-t') L rho(t') dt', an exponential kernel gives the
    linear system rho' = w, w' = g L rho - g w, propagated exactly.  Any other
    kernel (:class:`TabulatedKernel`) takes the history quadrature on
    ``steps`` lags, O(dt^2).  A trace error beyond 1e-6 raises
    :class:`StepSizeError`.
    """
    def history(L, lags):                # H_s = k(s), a scalar per lag
        kv = kernel(lags)
        return lambda y: kv[:len(y), None] * y

    traj = _kernel_evolve(L, kernel, rho0, t_grid, steps,
                          lambda L, I, g: [[0 * I, I], [g * L, -g * I]], history)
    if traj.max_trace_error > 1e-6:
        raise StepSizeError(traj.max_trace_error)
    return traj


def post_markovian_evolve(L, kernel, rho0, t_grid, steps=2000):
    """Evolve the post-Markovian equation
    d rho/dt = L int_0^t k(t') e^{L t'} rho(t-t') dt'.

    With w(t) = int_0^t k(t') e^{L t'} rho(t-t') dt', an exponential kernel
    gives the linear system rho' = L w, w' = g rho + (L - g) w, propagated
    exactly.  Any other kernel (:class:`TabulatedKernel`) takes the history
    quadrature on ``steps`` lags, O(dt^2).
    """
    def history(L, lags):                # H_s = k(s) e^{L s}
        kprops = np.array(propagate_semigroup(L, lags, np.eye(L.shape[0], dtype=complex)))
        kprops *= kernel(lags)[:, None, None]
        return lambda y: np.einsum("mij,mj->mi", kprops[:len(y)], y)

    return _kernel_evolve(L, kernel, rho0, t_grid, steps,
                          lambda L, I, g: [[0 * I, L], [g * I, L - g * I]], history)


# ---------------------------------------------------------------------------
# TCL2
# ---------------------------------------------------------------------------

def _bohr_stack(system, bin_tol=None):
    """The sorted Bohr frequencies, then the frequency index, the coupling
    index and the operator A_k(w) of every block that exists, as arrays over
    the blocks (frequency-major)."""
    decs, freqs = _bohr_blocks(system, bin_tol)
    pairs = [(i, k) for i, w in enumerate(freqs) for k, d in enumerate(decs) if w in d.blocks]
    fi = np.array([i for i, _ in pairs], dtype=int)
    ki = np.array([k for _, k in pairs], dtype=int)
    B = np.array([decs[k].blocks[freqs[i]] for i, k in pairs], dtype=complex)
    return freqs, fi, ki, B.reshape(len(pairs), system.dim, system.dim)


def tcl2_generator(system, bath, t, alpha=1.0, bin_tol=None):
    """Second-order time-convolutionless generator at memory horizon t.

    Keeps every Bohr-frequency cross term (no secular approximation); the
    coefficients are the finite-horizon one-sided Fourier transforms
    Gamma^t_kl(w) = int_0^t du e^{iwu} C_kl(u).  Returned in the Schrodinger
    picture, where the oscillating prefactors cancel exactly and only the
    coefficients carry the time dependence.  At t = 0 the dissipative part
    vanishes.

    ``t`` is a horizon or a 1-D array of m horizons, which gives the
    (m, N^2, N^2) stack of generators from one Bohr decomposition and one
    Gamma table over every (t, w); each slice equals the generator at that
    horizon alone up to rounding.

    Over the blocks B_(w,l) = A_l(w), with c[(w,l),(w',k)] = Gamma^t_kl(w),
    the dissipator is sum (c + c^dag)_ab B_a rho B_b^dag - Q rho - rho Q^dag
    with Q = sum c_ab B_b^dag B_a.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ValueError("horizon t must be a number or a 1-D array")
    ts = np.atleast_1d(t)
    K = len(system.couplings)
    freqs, fi, ki, B = _bohr_stack(system, bin_tol)
    gam = np.empty((len(ts), len(freqs), K, K), dtype=complex)
    for i, w in enumerate(freqs):
        gam[:, i] = finite_time_gamma(bath, w, ts, system.coupling_pattern, n_couplings=K)
    c = gam[:, fi[:, None], ki[None, :], ki[:, None]]
    Q = np.einsum("tab,bji,ajk->tik", c, B.conj(), B)
    alpha2 = float(alpha) ** 2
    L = _lindblad_superop(system.H, alpha2 * Q, B, alpha2 * (c + c.conj().transpose(0, 2, 1)))
    return L if t.ndim else L[0]


def tcl2_evolve(system, bath, rho0, t_grid, alpha=1.0, substeps=8, bin_tol=None):
    """Propagate under the TCL2 generator with the time-splitting product.

    Each output interval is split into ``substeps`` equal steps with the
    generator frozen at the left endpoint of each, as in
    :func:`propagate_time_dependent`.  The generators come from
    :func:`tcl2_generator` on chunks of whole intervals whose stack fits
    ``_STACK_BYTES`` (at least one interval), so memory is bounded however
    long the grid.

    The accumulated map's minimum Choi eigenvalue is recorded at every output
    time: finite-order TCL propagation can break complete positivity, and the
    witness is reported rather than suppressed.
    """
    t = _check_grid(t_grid)
    rho0 = _as_square(rho0, "initial state")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    n2 = system.dim ** 2
    starts = np.concatenate([[0.0], t[:-1]])
    live = np.flatnonzero(t > starts)            # the output times that end an interval
    dts = (t[live] - starts[live]) / substeps
    per = max(1, _STACK_BYTES // (16 * n2 * n2 * substeps))
    P = np.eye(n2, dtype=complex)
    states, witnesses = [], []

    def record(P):
        states.append(apply_superop(P, rho0))
        witnesses.append(float(is_cp(P).min_choi_eigenvalue))

    if len(live) < len(t):                       # t[0] = 0: the identity map
        record(P)
    for c in range(0, len(live), per):
        t0, dt = starts[live[c:c + per]], dts[c:c + per]
        times = (t0[:, None] + np.arange(substeps) * dt[:, None]).ravel()
        ends = substeps * np.arange(1, len(t0) + 1) - 1
        stack = tcl2_generator(system, bath, times, alpha=alpha, bin_tol=bin_tol)
        maps = _time_split(stack, times, np.repeat(dt, substeps), P, ends)
        del stack                                # before the next chunk's stack is built
        for P in maps:
            record(P)
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
        try:
            inv, cond = _guarded_inverse(maps[i], cond_threshold)
        except SingularMapError as exc:
            conds.append(exc.condition)
            gens.append(None)
            continue
        conds.append(cond)
        gens.append(dE @ inv)
    return ExtractedGenerator(times, gens, np.array(conds))


# ---------------------------------------------------------------------------
# dynamical coarse graining
# ---------------------------------------------------------------------------

def _cg_pair_integrals(table, tau, freqs, n, smooth):
    """Triangle integrals of e^{-i w t1 - i w' t2} f(t1 - t2) over
    {0 <= t2 <= t1 <= tau}, as an array [f, w, w'] over the four correlation
    building blocks f = c_plus(u), c_minus(u), c_plus(-u), c_minus(-u).

    In difference coordinates (u = t1 - t2) the inner t2 integral is the
    analytic half-line kernel, leaving one-dimensional quadratures in u where
    the correlation is actually supported:
    TRI = int_0^tau du e^{-i w u} f(u) E_{tau-u}(-(w + w')).
    """
    breaks = [b for b in (smooth, 10.0 * smooth) if b < tau]
    u, wu = _panel_nodes(0.0, tau, breaks, n)
    c_plus, c_minus = table.c_plus(u), table.c_minus(u)
    F = (wu * c_plus, wu * c_minus, wu * np.conj(c_plus), wu * np.conj(c_minus))
    tri = np.empty((4, len(freqs), len(freqs)), dtype=complex)
    for i, w in enumerate(freqs):
        ph = np.exp(-1j * w * u)
        for j, wp in enumerate(freqs):
            weight = ph * _halfline_kernel(-(w + wp), tau - u)
            tri[:, i, j] = [np.sum(weight * f) for f in F]
    return tri


def _coarse_grain_parts(system, bath, tau, alpha, table, n, freqs, stack):
    """Lamb-shift operator and dissipator superoperator of the horizon-tau
    coarse-grained generator (interaction picture, alpha^2 included), from
    the Bohr frequencies and the block stack of :func:`_bohr_stack`.

    Over the blocks B_a = A_k(w), B_b = A_l(w'), each part is a pair sum
    sum_ab c_ab X_a Y_b whose coefficients weight the triangle integrals of
    the pair (w, w') with the coupling weights of (k, l).
    """
    fi, ki, B = stack
    Wp, Wm = (W[np.ix_(ki, ki)] for W in
              _pattern_weights(system.coupling_pattern, len(system.couplings)))
    tri = _cg_pair_integrals(table, tau, freqs, n, _smooth_time(bath))
    square = tri + tri[[2, 3, 0, 1]].transpose(0, 2, 1)     # both time orderings
    pair = np.ix_(fi, fi)
    c_tri = Wp * tri[0][pair] + Wm * tri[1][pair]
    c_trin = Wp.T * tri[2][pair] + Wm.T * tri[3][pair]
    c_sq = Wp * square[0][pair] + Wm * square[1][pair]
    c_sqn = Wp.T * square[2][pair] + Wm.T * square[3][pair]

    H_raw = (np.einsum("ab,aij,bjk->ik", c_tri, B, B)
             - np.einsum("ab,bij,ajk->ik", c_trin, B, B))
    Q = np.einsum("ab,aij,bjk->ik", c_sq, B, B)
    alpha2 = float(alpha) ** 2
    H_cg = (alpha2 / 2.0j) * H_raw
    H_cg = (H_cg + H_cg.conj().T) / 2.0
    Q = alpha2 / 4.0 * (Q + Q.conj().T)
    D = _lindblad_superop(np.zeros_like(Q), Q, B, alpha2 * c_sqn, B.conj().transpose(0, 2, 1))
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
    freqs, *stack = _bohr_stack(system, bin_tol)
    wmax_sys = max((abs(w) for w in freqs), default=0.0)   # sets the node count
    n = int(max(256, 1.5 * 2.0 * wmax_sys * tau))
    H_prev = D_prev = None
    while True:
        H_cg, D = _coarse_grain_parts(system, bath, tau, alpha, table, n, freqs, stack)
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
