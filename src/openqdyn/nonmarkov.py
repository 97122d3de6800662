"""Non-Markovian evolution schemes.

Contents: memory-kernel and post-Markovian integro-differential models, the
second-order time-convolutionless (TCL2) generator, local generator
extraction from sampled map families, and the dynamical coarse-graining
family of completely positive semigroups.

Both integro-differential schemes take an exponential kernel exactly, as the
semigroup of an augmented linear system in (rho, w) on twice the Liouville
space, and any other kernel by O(dt^2) history quadrature.

Both finite-horizon schemes, TCL2 and dynamical coarse graining, take their
coefficients as one-sided Fourier transforms of the bath correlation: a
closed-form kernel per bath frequency (the half-line integral for TCL2, the
triangle integral for coarse graining) summed on the frequency rule of
:meth:`BathModel.correlation_table`.  Each rule is built once per node count
and shared by every Bohr frequency of a call, and both sum it through one
panel-factored kernel, :func:`weakcoupling._phase_sums`: TCL2 takes the
half-line sums of every frequency, and coarse graining the half-line sums
at +-w, which every pair (w, w') combines, plus its own columns for the
pairs with w + w' = 0 or close to it.

Both sum their operators over the channels of the factored coupling
pattern (:func:`_channels`), so the terms that the pattern weights cancel
are never formed: a damped oscillator's generators keep the exact zeros
between their Bohr sectors at every temperature.

Complete positivity of finite-order TCL propagation is *not* asserted; the
solvers monitor trace and positivity of the trajectory (and the minimum Choi
eigenvalue of the accumulated map where requested) and report violations
instead of hiding them.
"""
import warnings
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import MagnitudeError, StepSizeError
from .liouville import (
    _STACK_BYTES,
    _as_square,
    _blocks,
    _check_alpha,
    _check_cond_threshold,
    _check_count,
    _check_tol,
    _dense,
    _lindblad_superop,
    _one_blas_thread,
    _size_groups,
    _take,
    _taylor_expm,
    _time_split,
    apply_superop,
    devectorize,
    expm,
    propagate_semigroup,
    vectorize,
)
from .maps import (DEFAULT_CP_TOL, _block_family, _choi_blocks, _chunks, _cp_reports,
                   _guarded_inverse)
from .weakcoupling import (
    _NEAR_POLE,
    _bands,
    _bohr_stack,
    _gamma_sums,
    _halfline_sums,
    _horizons,
    _node_counts,
    _phase_sums,
    _pattern_factors,
    _require_integrable,
    _row_blocks,
    _triangle_kernel,
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
    if not np.all(np.isfinite(t)):
        raise ValueError("t_grid times must be finite")
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
    quadrature of :func:`_volterra` with ``history(L, lags)``.  ``steps``
    must be a positive integer (ValueError otherwise).
    """
    L = _as_square(L, "generator")
    t = _check_grid(t_grid)
    rho0 = _as_square(rho0, "initial state")
    _check_count(steps, "steps")
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

def _channels(system, bin_tol):
    """The sorted Bohr frequencies w, the weights E of :func:`_pattern_factors`
    and the (C, F, N, N) channel blocks D_j(w) = sum_k conj(R_kj) A_k(w) and
    D~_j(w) = sum_k R_kj A_k(w).  With W = R diag(e) R^dag, a sum
    sum_kl W_kl X_k^dag Y_l is sum_j e_j X_j^dag Y_j on the channel blocks;
    for the quadrature pair of a damped oscillator they are a and a^dag at
    one frequency each, and exactly 0 at the other."""
    freqs, A, _ = _bohr_stack(system.H, system.couplings, bin_tol)
    R, E = _pattern_factors(system.coupling_pattern, len(system.couplings))
    return freqs, E, np.einsum("kj,fkab->jfab", R.conj(), A), np.einsum("kj,fkab->jfab", R, A)


def _channel_diag(c):
    """Per-channel coefficients (m, C, F, F) as block-diagonal (m, CF, CF)
    matrices over the channel-major blocks: channels do not mix."""
    m, C, F, _ = c.shape
    return (c[:, :, :, None] * np.eye(C)[:, None, :, None]).reshape(m, C * F, C * F)


def _pair_sums(c, P):
    """sum_x c[t, x] P[x] over a stack P of N x N products, one product call
    per horizon t, so that a slice of a stack equals its horizon alone."""
    n = P.shape[-1]
    return np.matmul(c.reshape(len(c), 1, -1), P.reshape(-1, n * n)).reshape(-1, n, n)


def tcl2_generator(system, bath, t, alpha=1.0, bin_tol=None):
    """Second-order time-convolutionless generator at memory horizon t.

    Keeps every Bohr-frequency cross term (no secular approximation); the
    coefficients are the finite-horizon one-sided Fourier transforms
    Gamma^t_kl(w) = int_0^t du e^{iwu} C_kl(u).  Returned in the Schrodinger
    picture, where the oscillating prefactors cancel exactly and only the
    coefficients carry the time dependence.  At t = 0 the dissipative part
    vanishes.  ``alpha`` must be a real number with a finite square
    (ValueError otherwise).

    ``t`` is a horizon or a 1-D array of m horizons, which gives the
    (m, N^2, N^2) stack of generators from one Bohr decomposition and one
    Gamma table over every (t, w); each slice equals the generator at that
    horizon alone.

    With Gamma^t(w) = sum_j s_j(w) R_j R_j^dag over the channel blocks D_j(w)
    of :func:`_channels`, the dissipator is
    sum_j sum_ww' (s_j(w) + conj s_j(w')) D_j(w) rho D_j(w')^dag - Q rho
    - rho Q^dag with Q = sum_j sum_w s_j(w) D_j^dag D_j(w), D_j = sum_w D_j(w).
    """
    t = _horizons(t)
    ts = np.atleast_1d(t)
    alpha2 = _check_alpha(alpha)
    freqs, E, D, _ = _channels(system, bin_tol)
    s = np.einsum("pj,ptf->tjf", E, _gamma_sums(bath, freqs, ts))
    Q = _pair_sums(s, D.sum(axis=1, keepdims=True).conj().swapaxes(-1, -2) @ D)
    c = _channel_diag(s[..., :, None] + s[..., None, :].conj())
    L = _lindblad_superop(system.H, alpha2 * Q, D.reshape(-1, *system.H.shape), alpha2 * c)
    return L if t.ndim else L[0]


def tcl2_evolve(system, bath, rho0, t_grid, alpha=1.0, substeps=8, bin_tol=None):
    """Propagate under the TCL2 generator with the time-splitting product.

    Each output interval is split into ``substeps`` equal steps with the
    generator frozen at the left endpoint of each, as in
    :func:`propagate_time_dependent`; ``substeps`` must be a positive integer
    (ValueError otherwise).  The generators come from
    :func:`tcl2_generator` on chunks of whole intervals whose stack fits
    ``_STACK_BYTES`` (at least one interval), so memory is bounded however
    long the grid.

    The accumulated map's minimum Choi eigenvalue is recorded at every output
    time: finite-order TCL propagation can break complete positivity, and the
    witness is reported rather than suppressed.
    """
    _check_alpha(alpha)                  # before a grid of t = 0 alone skips the generators
    if bin_tol is not None:
        _check_tol(bin_tol, "bin_tol")
    t = _check_grid(t_grid)
    rho0 = _as_square(rho0, "initial state")
    _check_count(substeps, "substeps")
    n2 = system.dim ** 2
    starts = np.concatenate([[0.0], t[:-1]])
    live = np.flatnonzero(t > starts)            # the output times that end an interval
    dts = (t[live] - starts[live]) / substeps
    per = max(1, _STACK_BYTES // (16 * n2 * n2 * substeps))
    P = np.eye(n2, dtype=complex)
    states, witnesses = [], []

    def record(maps):                            # a (k, n2, n2) stack of maps
        _, groups, take = _block_family(list(enumerate(maps)))
        states.extend(apply_superop(P, rho0) for P in maps)
        witnesses.extend(rep.min_choi_eigenvalue for rep in
                         _cp_reports(_choi_blocks(groups), take(np.arange(len(maps))),
                                     DEFAULT_CP_TOL))

    if len(live) < len(t):                       # t[0] = 0: the identity map
        record(P[None])
    for c in range(0, len(live), per):
        t0, dt = starts[live[c:c + per]], dts[c:c + per]
        times = (t0[:, None] + np.arange(substeps) * dt[:, None]).ravel()
        ends = substeps * np.arange(1, len(t0) + 1) - 1
        stack = tcl2_generator(system, bath, times, alpha=alpha, bin_tol=bin_tol)
        maps = _time_split(stack, times, np.repeat(dt, substeps), P, ends)
        del stack                                # before the next chunk's stack is built
        record(maps)
        P = maps[-1]
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
    and composes with the sampled map's inverse.  Times must be finite and
    strictly increasing (ValueError otherwise).  Samples whose map has a
    2-norm condition number above the threshold are marked None: the local
    generator may still exist, but this grid cannot resolve it.  As in
    :func:`divisibility_witness`, inverses and products are taken on the
    exact-zero blocks of the family, batched over samples, on one BLAS
    thread.  ``cond_threshold`` must be a real number >= 1 (ValueError
    otherwise).
    """
    _check_cond_threshold(cond_threshold)
    if smoothing not in ("none", "central-difference"):
        raise ValueError("smoothing must be 'none' or 'central-difference'")
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    times, groups, take = _block_family(samples)
    i = np.arange(len(times))
    j1 = np.minimum(i + 1, len(times) - 1)            # the difference quotient's samples
    j0 = j1 - 1 if smoothing == "none" else np.maximum(i - 1, 0)
    gens, conds = [], []
    with _one_blas_thread():
        for k in _chunks(len(times), groups):
            cond, ok, inv = _guarded_inverse(take(k), cond_threshold)
            j0k, j1k = j0[k[ok]], j1[k[ok]]
            dt = (times[j1k] - times[j0k])[:, None, None, None]
            dE_inv = [(S1 - S0) / dt @ Si for S1, S0, Si in zip(take(j1k), take(j0k), inv)]
            gens += [_dense(groups, dE_inv, j) if good else None
                     for good, j in zip(ok, np.cumsum(ok) - 1)]
            conds.extend(cond)
    return ExtractedGenerator(times, gens, np.array(conds))


# ---------------------------------------------------------------------------
# dynamical coarse graining
# ---------------------------------------------------------------------------

#: |s| tau below which, at the lower edge of a band of horizons, a pair
#: (w, w') with s = w + w' != 0 takes _triangle_kernel on every node
_NEAR_PAIR = 0.1


def _cg_pair_integrals(bath, n_nodes, taus, freqs):
    """Triangle integrals of e^{-i w t1 - i w' t2} f(t1 - t2) over
    {0 <= t2 <= t1 <= tau}, as an array [tau, f, w, w'] over the horizons and
    the four correlation building blocks f = c_plus(u), c_minus(u),
    c_plus(-u), c_minus(-u), on the rule of
    ``bath.correlation_table(n_nodes)``.

    On that rule (nodes nu, weights g_plus and g_minus), c_plus(u) =
    sum g_plus e^{-i nu u} and c_minus(u) = sum g_minus e^{+i nu u}, so in
    difference coordinates (u = t1 - t2, v = t2) every block is a nu-sum of
    the kernel I(a, s, tau) of :func:`_triangle_kernel` at s = w + w' and
    a = w + nu (f = 0, 3) or a = w - nu (f = 1, 2).  With the half-line
    kernel E_t(x) = (e^{ixt} - 1)/(ix),
    I(a, s, t) = [E_t(-a) - e^{-ist} E_t(s - a)]/(is),
    and E_t(-a) depends on w alone, E_t(s - a) = E_t(w' -+ nu) on w' alone:
    every pair is the difference of two half-line sums of
    :func:`_halfline_sums` at +-w, taken once for all pairs.  That difference
    cancels where |s| tau is small, so a pair with 0 < |s| < _NEAR_PAIR over
    the lower edge of the horizon's band (:func:`_bands`) takes
    :func:`_triangle_kernel` on every node.  At s = 0,
    I(a, 0, t) = -(e^{-iat} - 1 + iat)/a^2, which is e^{-iwt} times a
    column g/a^2 of :func:`_phase_sums` plus constants; its double pole
    keeps :func:`_triangle_kernel` on the nodes that a half-line sum at w
    keeps on its closed form.
    """
    nu, g_plus, g_minus = bath.correlation_table(n_nodes)
    taus, freqs = np.asarray(taus, dtype=float), np.asarray(freqs, dtype=float)
    F = freqs.size
    s = freqs[:, None] + freqs
    P, M = _halfline_sums(bath, n_nodes, taus, np.concatenate([freqs, -freqs]))
    # [tau, f, x] over x = (w, -w): sum g_f E(x - sign_f nu), conj(E(y)) = E(-y)
    half = np.stack([P, M, np.roll(P, F, axis=1).conj(), np.roll(M, F, axis=1).conj()], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tri = (half[..., F:, None] - np.exp(-1j * s * taus[:, None, None])[:, None]
               * half[..., None, :F]) / (1j * s)
    g = np.array([g_plus, g_minus, g_plus, g_minus])
    sign = np.array([1.0, -1.0, -1.0, 1.0])                    # a = w + sign nu
    for lo, rows in _bands(taus, np.arange(len(taus))):
        tr = taus[rows, None]
        pi, pj = np.nonzero((s == 0.0) | (np.abs(s) * lo < _NEAR_PAIR))
        sp = s[pi, pj]
        for c in _row_blocks(np.arange(4 * pi.size), nu.size):
            f, k = np.divmod(c, pi.size)
            w = freqs[pi[k]]
            a = w[:, None] + sign[f, None] * nu
            near = (sp[k] != 0.0)[:, None] | (np.abs(a) < np.maximum(
                _NEAR_POLE / lo, (np.abs(w[:, None]) + nu) / 8.0))
            inv = np.divide(1.0, a, out=np.zeros_like(a), where=~near)   # 0 where s != 0
            ga = g[f] * inv
            far, near_sums = _phase_sums(                       # -g/a^2 is real: a flip
                bath, n_nodes, tr[:, 0], -ga * inv, sign[f] < 0, near,      # conjugates
                lambda e, q, tt: g[f[e], q] * _triangle_kernel(a[e, q], sp[k[e]], tt))
            tri[rows[:, None], f, pi[k], pj[k]] = (np.exp(-1j * w * tr) * far + near_sums
                                                   + (ga * inv).sum(axis=1)
                                                   - 1j * tr * ga.sum(axis=1))
    return tri


def coarse_grain_generator(system, bath, tau, alpha=1.0, picture="schrodinger",
                           bin_tol=None):
    """Coarse-grained generator L-bar^tau = L^tau / tau.

    L^tau collects the exact second-order double-time integrals of the
    interaction over the horizon [0, tau]: a Hermitian level-shift part (the
    time-ordered commutator contraction) plus a dissipator built from the
    horizon-integrated coupling, completely positive by construction for
    every tau.  The integrals over the triangular time-ordering split are
    taken in closed form per bath frequency and summed on the frequency rule
    of :meth:`BathModel.correlation_table` (:func:`_cg_pair_integrals`).

    ``tau`` is a horizon or a 1-D array of m horizons, which gives the
    (m, N^2, N^2) stack of generators from one Bohr decomposition; the
    horizons that share a node count share one frequency rule, so each slice
    equals the generator at that horizon alone.  Every horizon must be
    positive and finite (ValueError otherwise).  A bath whose J nbar is not
    integrable at 0+ (a flat density at T > 0) raises QuadratureError.

    Each part is a pair sum sum_j sum_ww' c_j(w, w') D~_j(w) D_j(w') (or
    D_j(w) rho D~_j(w')) over the channel blocks of :func:`_channels`, whose
    coefficients are the triangle integrals of the pair (w, w') in the
    channel's parts.  ``alpha`` must be a real number with a finite square
    (ValueError otherwise).
    ``picture="schrodinger"`` (default) adds the free part -i[H_A, .];
    ``picture="interaction"`` returns L^tau/tau alone.
    """
    tau = _horizons(tau)
    if not np.all(tau > 0):
        raise ValueError("coarse-graining time tau must be positive")
    if picture not in ("schrodinger", "interaction"):
        raise ValueError("picture must be 'schrodinger' or 'interaction'")
    alpha2 = _check_alpha(alpha)
    taus = np.atleast_1d(tau)
    freqs, E, D, Dt = _channels(system, bin_tol)
    if len(freqs):
        _require_integrable(bath, "coarse-grained generator")
    nodes = _node_counts(bath, max((abs(w) for w in freqs), default=0.0), taus)
    tri = np.empty((len(taus), 4, len(freqs), len(freqs)), dtype=complex)
    for n in np.unique(nodes):
        rows = np.flatnonzero(nodes == n)
        tri[rows] = _cg_pair_integrals(bath, n, taus[rows], freqs)
    square = tri + tri[:, [2, 3, 0, 1]].transpose(0, 1, 3, 2)     # both time orderings

    def channel(X):                              # [t, j, w, w'] of the parts [t, +-, w, w']
        return np.einsum("pj,tpab->tjab", E, X)

    P = Dt[:, :, None] @ D[:, None, :]           # D~_j(w) D_j(w')
    H_raw = _pair_sums(channel(tri[:, :2]) - channel(tri[:, 2:]).swapaxes(-1, -2), P)
    Q = _pair_sums(channel(square[:, :2]), P)
    H_cg = (alpha2 / 2.0j) * H_raw
    H_cg = (H_cg + H_cg.conj().transpose(0, 2, 1)) / 2.0
    Q = alpha2 / 4.0 * (Q + Q.conj().transpose(0, 2, 1))
    # -i[H_cg, .] - Q rho - rho Q^dag is -K rho - rho K^dag with K = Q + i H_cg
    per_tau = 1.0 / taus[:, None, None]
    H = system.H if picture == "schrodinger" else np.zeros_like(system.H)
    shape = (-1,) + system.H.shape
    L = _lindblad_superop(H, (Q + 1j * H_cg) * per_tau, D.reshape(shape),
                          alpha2 * _channel_diag(channel(square[:, 2:])) * per_tau,
                          Dt.reshape(shape).conj().transpose(0, 2, 1))
    return L if tau.ndim else L[0]


def coarse_grain_evolve(system, bath, alpha, rho0, t_grid, bin_tol=None):
    """Coarse-grained trajectory: at each output time t the horizon is tied to
    the clock, rho(t) = U_t exp(L^{tau=t}) rho0 U_t^dag.

    Each output time is independent of the others; the generators come from
    :func:`coarse_grain_generator` on chunks of output times whose stack fits
    ``_STACK_BYTES``, and each chunk is exponentiated on the exact-zero blocks
    of its union pattern, one Taylor call per block size.  Every state is
    validated as a density matrix through the shared trajectory monitor.
    """
    _check_alpha(alpha)                  # before a grid of t = 0 alone skips the generators
    if bin_tol is not None:
        _check_tol(bin_tol, "bin_tol")
    t = _check_grid(t_grid)
    rho0 = _as_square(rho0, "initial state")
    states = [rho0.astype(complex)] if t[0] == 0.0 else []
    live = t[t > 0.0]
    per = max(1, _STACK_BYTES // (16 * system.dim ** 4))
    for c in range(0, len(live), per):
        times = live[c:c + per]
        stack = coarse_grain_generator(system, bath, times, alpha, picture="interaction",
                                       bin_tol=bin_tol)
        stack *= times[:, None, None]                # the exponents tau L-bar^tau
        if not np.all(np.isfinite(stack)):
            raise MagnitudeError("matrix exponential of non-finite input")
        groups = _size_groups(_blocks((stack != 0).any(axis=0)))
        blocks = _take(groups, stack)
        del stack                                    # before the exponentials' temporaries
        for E in blocks:
            _taylor_expm(E, out=E)
        for k, tt in enumerate(times):
            rho_int = apply_superop(_dense(groups, blocks, k), rho0)
            U = expm(-1j * system.H * tt)
            states.append(U @ rho_int @ U.conj().T)
    tr_err, min_eig = _monitor(states, t)
    return Trajectory(t, states, tr_err, min_eig)
