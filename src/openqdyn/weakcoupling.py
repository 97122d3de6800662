"""Microscopic derivation of Markovian generators in the weak-coupling limit.

From (system Hamiltonian, Hermitian coupling operators, bath spectral density,
temperature) this module builds the eigenoperator (Bohr) decomposition, the
per-frequency decay-rate and level-shift matrices, and assembles the full
generator with its commuting Lamb-shift Hamiltonian.  Thermal consistency is
certified through the detailed-balance relation between absorption and
emission rates and through the stationarity residual of the Gibbs state.

Two bath-coupling patterns are supported:

``position_xy``
    The rotating-pair interaction split into two Hermitian quadratures, one
    position-like and one momentum-like (exactly two system couplings).  The
    rate matrix at +omega is (pi/2) J (nbar+1) [[1, i], [-i, 1]] and at
    -omega the conjugate pattern (pi/2) J nbar [[1, -i], [i, 1]]; the
    conjugation is what detailed balance gamma(w) = e^{w/T} gamma(-w)^T
    requires.

``single``
    Independent identical baths, one per coupling operator; scalar rates
    2 pi J (nbar+1) and 2 pi J nbar on the diagonal.  This is the only
    pattern for which a zero-frequency block is meaningful.
"""
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

from .errors import (
    DimensionError,
    IncompleteDecompositionError,
    QuadratureError,
    ZeroFrequencyRateError,
)
from .gksl import GKSLGenerator, superop_of_generator
from .liouville import _as_square, _check_alpha, _check_tol, apply_superop, is_hermitian, trace_norm
from .operators import destroy, number, sigma_minus, sigma_plus, sigma_x, sigma_z

_R_PLUS = np.array([1.0, -1.0j]) / 2.0         # quadrature pair: W_plus = R_plus R_plus^dag


def _pattern_factors(pattern, n_couplings=None):
    """Factors (R, E) of the coupling pattern, W_plus = R diag(E[0]) R^dag and
    W_minus = R diag(E[1]) R^dag: the channels (columns of R) R_plus = (1, -i)/2
    of emission and R_minus = conj(R_plus) of absorption for the quadrature
    pair, R = I with both parts on every channel for ``single``."""
    if pattern == "position_xy":
        return np.column_stack([_R_PLUS, _R_PLUS.conj()]), np.eye(2)
    if pattern == "single":
        K = 1 if n_couplings is None else n_couplings
        return np.eye(K, dtype=complex), np.ones((2, K))
    raise ValueError(f"unknown coupling pattern {pattern!r}")


def _pattern_weights(pattern, n_couplings=None):
    """Coupling-space weights (W_plus, W_minus) of the emission (J (nbar+1))
    and absorption (J nbar) parts of every rate and shift matrix, from
    :func:`_pattern_factors`: (1/4) [[1, +-i], [-+i, 1]] or the identity."""
    R, E = _pattern_factors(pattern, n_couplings)
    return tuple((R * e) @ R.conj().T for e in E)


def bose_occupation(omega, temperature):
    """Bose-Einstein occupation nbar = 1/(e^{omega/T} - 1); zero at T = 0."""
    if omega <= 0:
        raise ValueError(f"occupation needs omega > 0, got {omega}")
    return float(_nbar(np.float64(omega), temperature))


def _nbar(w, temperature):
    """Vectorized occupation for strictly positive frequency arrays."""
    if temperature == 0:
        return np.zeros_like(w)
    with np.errstate(over="ignore"):
        return 1.0 / np.expm1(w / temperature)


@dataclass
class BathModel:
    """Bosonic thermal bath: spectral density J >= 0 on (0, omega_max], a
    temperature (k_B = 1) and the cutoff frequency.

    ``feature_scale`` guides quadrature panel placement (the ohmic cutoff
    omega_c for the built-in family); ``kinks`` are further panel edges, the
    frequencies where J is not smooth.
    """

    spectral_density: Callable[[np.ndarray], np.ndarray]
    temperature: float
    omega_max: float
    feature_scale: float
    label: str = "custom"
    kinks: Tuple[float, ...] = ()

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.omega_max <= 0:
            raise ValueError("omega_max must be > 0")

    @classmethod
    def ohmic(cls, coupling, omega_c, temperature, s=1.0, omega_max=None):
        """Ohmic family J(w) = coupling * w^s * omega_c^{1-s} * exp(-w/omega_c)."""
        omega_max = 40.0 * omega_c if omega_max is None else omega_max

        def J(w):
            w = np.asarray(w, dtype=float)
            return coupling * w**s * omega_c ** (1.0 - s) * np.exp(-w / omega_c)

        return cls(J, temperature, omega_max, omega_c, label=f"ohmic(s={s})")

    @classmethod
    def flat(cls, j0, omega_max, temperature):
        def J(w):
            return np.full_like(np.asarray(w, dtype=float), j0)

        return cls(J, temperature, omega_max, omega_max / 10.0, label="flat")

    @classmethod
    def tabulated(cls, omegas, values, temperature, omega_max=None):
        """Linear interpolation of a sampled spectral density (zero outside),
        with kinks at the table nodes."""
        omegas = np.asarray(omegas, dtype=float)
        values = np.asarray(values, dtype=float)
        if omegas.ndim != 1 or omegas.shape != values.shape:
            raise ValueError("tabulated bath needs matching 1-D omega and J arrays")
        if omegas.size < 2:
            raise ValueError(f"tabulated bath needs at least two nodes, got {omegas.size}")
        if not (np.all(np.isfinite(omegas)) and np.all(np.isfinite(values))):
            raise ValueError("tabulated bath needs finite omega and J")
        if not np.all(np.diff(omegas) > 0):
            raise ValueError("tabulated bath needs strictly ascending omega")
        if np.any(values < 0):
            raise ValueError("spectral density must be nonnegative")
        omega_max = float(omegas[-1]) if omega_max is None else omega_max

        def J(w):
            return np.interp(np.asarray(w, dtype=float), omegas, values, left=0.0, right=0.0)

        return cls(J, temperature, omega_max, max(omega_max / 10.0, omegas[1] - omegas[0]),
                   label="tabulated", kinks=tuple(omegas.tolist()))

    def J(self, w):
        return self.spectral_density(w)

    # -- quadrature helpers -------------------------------------------------

    def _breakpoints(self):
        pts = {self.feature_scale, *self.kinks}
        if self.temperature > 0:
            pts.add(self.temperature)
            pts.add(5.0 * self.temperature)
        return sorted(p for p in pts if 0.0 < p < self.omega_max)

    def correlation(self, t, abs_tol=1e-8):
        """Bath correlation function C(t) (single-coupling normalization).

        C(t) = int_0^wmax dw J(w) [ (nbar+1) e^{-iwt} + nbar e^{+iwt} ],
        summed on the frequency rule of :meth:`correlation_table` with the
        node count of the finite-horizon rules at horizon |t|.  Raises
        :class:`QuadratureError` when the rule with twice the nodes differs by
        more than ``abs_tol``.
        """
        t = float(t)
        n = int(_node_counts(self, 0.0, abs(t)))
        values = []
        for nodes in (n, 2 * n):
            nu, g_plus, g_minus = self.correlation_table(nodes)
            phase = np.exp(-1j * nu * t)
            values.append(complex(g_plus @ phase + g_minus @ phase.conj()))
        if not abs(values[1] - values[0]) <= abs_tol:
            raise QuadratureError(f"C({t}) unresolved: {n} and {2 * n} nodes differ by "
                                  f"{abs(values[1] - values[0]):.2e} > {abs_tol:.2e}")
        return values[0]

    def correlation_table(self, n_nodes):
        """The bath correlation as a frequency rule: composite Gauss-Legendre
        nodes nu on [0, omega_max] (``n_nodes`` of them, split at the bath's
        breakpoints) and the weights g_plus = w J (nbar+1), g_minus = w J nbar.

        c_plus(u) = sum g_plus e^{-i nu u} and c_minus(u) = sum g_minus e^{+i nu u}
        are the correlation's building blocks: the single-pattern correlation is
        their sum, the quadrature-pair correlation matrix (c_plus M + c_minus
        conj(M))/4.  The finite-horizon schemes (TCL2 and coarse graining) sum
        their kernels against these weights.  Returns (nu, g_plus, g_minus).
        """
        x, w = _panel_nodes(0.0, self.omega_max, self._breakpoints(), n_nodes)
        wj, nbar = w * self.J(x), _nbar(x, self.temperature)
        return x, wj * (nbar + 1.0), wj * nbar


def bath_correlation(bath, t, abs_tol=1e-8):
    """Bath correlation function C(t) (single-coupling normalization);
    module-level form of :meth:`BathModel.correlation`."""
    return bath.correlation(t, abs_tol=abs_tol)


_LEGGAUSS_CACHE = {}


def _leggauss(n):
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on the three-term recurrence of P_n over the positive
    half of the nodes, mirrored, from Tricomi's starting values
    (1 - (n - 1) / (8 n^3)) cos(pi (k - 1/4) / (n + 1/2)); the weights are
    2 (1 - x^2) / (n P_{n-1}(x))^2.  numpy's ``leggauss`` takes an
    eigensolve of the n x n companion matrix instead, which is most of the
    cost of a first derivation at n = 1024.
    """
    if n not in _LEGGAUSS_CACHE:
        k = np.arange(1, (n + 1) // 2 + 1)
        x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(np.pi * (k - 0.25) / (n + 0.5))
        for _ in range(100):
            p_prev, p = np.ones_like(x), x             # P_{j-1}(x), P_j(x) at j = 1
            for j in range(2, n + 1):
                p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
            dx = p * (1.0 - x * x) / (n * (p_prev - x * p))     # P_n / P_n'
            x = x - dx
            if np.abs(dx).max() <= 4 * np.finfo(float).eps:
                break
        m = len(x) - n % 2
        x[m:] = 0.0                                       # the root 0 of an odd P_n
        w = 2.0 * (1.0 - x * x) / (n * p_prev) ** 2
        _LEGGAUSS_CACHE[n] = (np.concatenate([-x, x[:m][::-1]]),
                              np.concatenate([w, w[:m][::-1]]))
    return _LEGGAUSS_CACHE[n]


def _panel_nodes(lo, hi, breakpoints, n_total, max_rule=1024):
    """Composite Gauss-Legendre nodes/weights over [lo, hi] split at breakpoints.

    Nodes are distributed proportionally to panel length (minimum 48 per
    panel); long panels are chunked so no single rule exceeds ``max_rule``.
    """
    xs, ws = [], []
    for x0, w0, edges in _panels(lo, hi, breakpoints, n_total, max_rule):
        for aa, bb in zip(edges, edges[1:]):
            xs.append(0.5 * (bb - aa) * x0 + 0.5 * (aa + bb))
            ws.append(0.5 * (bb - aa) * w0)
    return np.concatenate(xs), np.concatenate(ws)


def _panels(lo, hi, breakpoints, n_total, max_rule=1024):
    """The panels of :func:`_panel_nodes`, in order: per panel its
    Gauss-Legendre rule (x0, w0) on [-1, 1] and the edges of its sub-panels,
    which share that rule and, up to rounding, one width."""
    edges = [lo] + [b for b in breakpoints if lo < b < hi] + [hi]
    span = hi - lo
    for a, b in zip(edges, edges[1:]):
        n_here = max(48, int(np.ceil(n_total * (b - a) / span)))
        n_sub = int(np.ceil(n_here / max_rule))
        n_rule = -(-n_here // n_sub)
        n_rule = 64 * (-(-n_rule // 64))     # round up; keeps the rule cache small
        yield _leggauss(n_rule) + (np.linspace(a, b, n_sub + 1),)


def _phase_table(bath, n_nodes, t):
    """e^{-i nu t} on the nodes nu of ``bath.correlation_table(n_nodes)`` for
    each horizon of the 1-D array t: the (len(t), nodes) table.  A node of a
    sub-panel of centre c and half-width h is nu = c + h xi, so the phase is
    e^{-i c t} e^{-i h xi t}: the phases are taken once per panel rule and
    width, and each sub-panel costs one complex product."""
    blocks = []
    for x0, _, edges in _panels(0.0, bath.omega_max, bath._breakpoints(), n_nodes):
        h, c = 0.5 * (edges[-1] - edges[0]) / (len(edges) - 1), 0.5 * (edges[:-1] + edges[1:])
        rule, shift = np.exp(-1j * h * x0 * t[:, None]), np.exp(-1j * c * t[:, None])
        blocks.append((shift[:, :, None] * rule[:, None, :]).reshape(len(t), -1))
    return np.concatenate(blocks, axis=1)


def pv_integral(f, lo, hi, pole, n_nodes=2048, breakpoints=()):
    """Cauchy principal value of int_lo^hi f(x)/(pole - x) dx.

    When the pole lies inside the interval, the symmetric window around it is
    folded into the odd-pair combination [f(pole-u) - f(pole+u)]/u, which is
    regular at u = 0 and cancels the pole to machine precision for smooth f;
    the asymmetric remainder is integrated directly.  A pole at (or extremely
    near) an endpoint raises :class:`QuadratureError`.
    """
    if hi <= lo:
        raise ValueError("empty integration interval")
    span = hi - lo
    inside = lo < pole < hi
    if not inside:
        if min(abs(pole - lo), abs(pole - hi)) < 1e-12 * span:
            raise QuadratureError(f"pole {pole} sits at the integration boundary")
        x, w = _panel_nodes(lo, hi, breakpoints, n_nodes)
        return float(np.sum(w * f(x) / (pole - x)))
    if min(pole - lo, hi - pole) < 1e-12 * span:
        raise QuadratureError(f"pole {pole} too close to the integration boundary")
    h = min(pole - lo, hi - pole)
    inner_break = sorted({abs(pole - b) for b in breakpoints if abs(pole - b) < h} - {0.0})
    u, wu = _panel_nodes(0.0, h, inner_break, n_nodes)
    total = float(np.sum(wu * (f(pole - u) - f(pole + u)) / u))
    if pole - h > lo:
        x, w = _panel_nodes(lo, pole - h, breakpoints, n_nodes)
        total += float(np.sum(w * f(x) / (pole - x)))
    if pole + h < hi:
        x, w = _panel_nodes(pole + h, hi, breakpoints, n_nodes)
        total += float(np.sum(w * f(x) / (pole - x)))
    return total


def _zero_frequency_probes(bath):
    """(w, 2 pi J nbar, 2 pi J (nbar+1)) at w = eps, 2 eps and 4 eps above
    zero frequency, eps = 1e-6 feature_scale, and last at feature_scale."""
    w = bath.feature_scale * np.array([1e-6, 2e-6, 4e-6, 1.0])
    j, nb = 2.0 * np.pi * bath.J(w), _nbar(w, bath.temperature)
    return w, j * nb, j * (nb + 1.0)


def _zero_frequency_rate(bath):
    """Two-sided limit of the scalar zero-frequency rate 2 pi J(|w|) nbar(|w|).

    Richardson-extrapolates both one-sided limits at eps and 2 eps; raises
    :class:`ZeroFrequencyRateError` on divergence or >1% disagreement (the
    limit only exists for ohmic-like densities with J ~ w near zero).
    """
    _, minus, plus = _zero_frequency_probes(bath)
    for g in (minus, plus):
        if abs(g[0]) > 1.25 * abs(g[2]) + 1e-300:
            raise ZeroFrequencyRateError(
                "zero-frequency rate diverges; spectral density is not ohmic-like")
    lim_minus, lim_plus = 2.0 * minus[0] - minus[1], 2.0 * plus[0] - plus[1]
    denom = max(abs(lim_minus), abs(lim_plus))
    # negligible against the bath's own rate scale counts as a vanishing limit
    if denom <= 1e-9 * max(plus[3], 1e-300):
        return 0.0
    if abs(lim_plus - lim_minus) > 0.01 * denom:
        raise ZeroFrequencyRateError(
            f"one-sided limits disagree ({lim_minus:.3e} vs {lim_plus:.3e}); "
            "the zero-frequency rate needs lim J(|w|) = 0 (ohmic-type density)")
    return lim_minus


def bath_rates(bath, omega, coupling_pattern="position_xy", n_couplings=None):
    """Decay-rate matrix gamma(omega) of the thermal bath; a 1-D array of F
    frequencies gives the (F, K, K) stack.

    Frequencies outside [-omega_max, omega_max] return the zero matrix.  At
    omega = 0 only the ``single`` pattern is defined (the quadrature pair's
    off-diagonal entries have no two-sided limit); the scalar value is the
    ohmic-limit rate 2 pi lim J(|w|) nbar(|w|).
    """
    w_plus, w_minus = _pattern_weights(coupling_pattern, n_couplings)
    omegas = np.atleast_1d(np.asarray(omega, dtype=float))
    zero = omegas == 0.0
    if zero.any() and coupling_pattern == "position_xy":
        raise ZeroFrequencyRateError(
            "zero-frequency block is ill-defined for the quadrature-pair pattern")
    a = np.abs(omegas)
    band = (a > 0.0) & (a <= bath.omega_max)
    a = np.where(band, a, bath.omega_max)
    j, nb = 2.0 * np.pi * bath.J(a), _nbar(a, bath.temperature)
    out = np.where((omegas > 0.0)[:, None, None], (j * (nb + 1.0))[:, None, None] * w_plus,
                   (j * nb)[:, None, None] * w_minus)
    out[~band] = 0.0
    if zero.any():
        out[zero] = _zero_frequency_rate(bath) * w_plus
    return out if np.ndim(omega) else out[0]


def _infrared_limit(bath):
    """lim_{w -> 0+} w J nbar from the probes of :func:`_zero_frequency_rate`:
    its value at eps, or 0 where w J nbar falls by the factor 0.8 or more from
    4 eps to eps (w^a with a > 0.16: T = 0, and ohmic-type densities, the
    sub-ohmic ones included).  A nonzero limit makes J nbar ~ limit / w,
    which no shift integral survives."""
    w, minus, _ = _zero_frequency_probes(bath)
    g = w * minus / (2.0 * np.pi)
    return float(g[0]) if g[0] > 0.0 and g[0] >= 0.8 * g[2] else 0.0


def _require_integrable(bath, what):
    """Raise :class:`QuadratureError`, naming ``what`` and the bath, when J nbar
    is not integrable at 0+ (:func:`_infrared_limit`): then the bath
    correlation, and every quantity summed from it, diverges, and a
    quadrature rule would give a finite number for it all the same."""
    if limit := _infrared_limit(bath):
        raise QuadratureError(
            f"{what} of the {bath.label} bath diverges: J nbar ~ {limit:.3g}/w "
            "is not integrable at w -> 0+")


def _shift_stack(bath, omegas, coupling_pattern, n_nodes=2048, n_couplings=None):
    """Shift matrices S(w) = I_plus W_plus + I_minus W_minus of
    :func:`lamb_shift` for every frequency of ``omegas`` (the (F, K, K)
    stack), with I_plus = PV int J (nbar+1)/(w - nu) and
    I_minus = PV int J nbar/(w + nu) over (0, omega_max]: the principal values
    PV int f/(p - nu) at the poles p = +-w.  On one composite Gauss-Legendre
    rule (nodes nu, weights g), a pole inside the band takes the subtraction
    sum g (f(nu) - f(p))/(p - nu) + f(p) ln(p / (omega_max - p)), any other
    the direct sum, so all poles are the rows of one product, taken in row
    blocks of _GAMMA_BLOCK entries.  At w = 0 (``single`` only) the combined
    integrand -J/nu is pole-free.  Raises :class:`QuadratureError` for a pole
    within 1e-12 omega_max of 0 or the cutoff, or on a node, and for a bath
    whose J nbar is not integrable at 0+ (:func:`_infrared_limit`).
    """
    w_plus, w_minus = _pattern_weights(coupling_pattern, n_couplings)
    omegas = np.asarray(omegas, dtype=float)
    W, T = bath.omega_max, bath.temperature
    zero = omegas == 0.0
    if zero.any() and coupling_pattern == "position_xy":
        raise ZeroFrequencyRateError(
            "zero-frequency shift is ill-defined for the quadrature-pair pattern")
    a = np.abs(omegas)
    if np.any((np.abs(a - W) < 1e-12 * W) | ((a > 0.0) & (a < 1e-12 * W))):
        raise QuadratureError("shift pole within 1e-12 omega_max of 0 or of the cutoff")
    if omegas.size:
        _require_integrable(bath, "Lamb shift")
    x, g = _panel_nodes(0.0, W, bath._breakpoints(), n_nodes)
    jx, nbar = g * bath.J(x), _nbar(x, T)
    sums = np.column_stack([jx * (nbar + 1.0), jx * nbar, g])
    w = omegas[~zero]
    poles, at = np.unique(np.concatenate([w, -w]), return_inverse=True)   # I_plus, I_minus
    p, minus = poles[at], np.repeat([0, 1], w.size)
    inside = (p > 0.0) & (p < W)
    p = np.where(inside, p, 0.5 * W)
    f_pole = inside * bath.J(p) * (_nbar(p, T) + 1 - minus)
    rows = np.empty((poles.size, 3))
    with np.errstate(divide="ignore", invalid="ignore"):         # a pole on a node
        for r in _row_blocks(np.arange(poles.size), x.size):
            d = np.subtract.outer(poles[r], x)
            rows[r] = np.divide(1.0, d, out=d) @ sums
        pv = rows[at, minus] - f_pole * (rows[at, 2] - np.log(p / (W - p)))
    if not np.all(np.isfinite(pv)):
        raise QuadratureError("shift pole on a quadrature node")
    i_plus, i_minus = np.zeros((2, omegas.size))
    i_plus[~zero], i_minus[~zero] = pv[:w.size], -pv[w.size:]
    i_plus[zero] = np.sum(g * (-bath.J(x) / x)) if zero.any() else 0.0
    return i_plus[:, None, None] * w_plus + i_minus[:, None, None] * w_minus


def lamb_shift(bath, omega, coupling_pattern="position_xy", n_nodes=2048, n_couplings=None):
    """Level-shift matrix S(omega): the principal-value (Hermitian-part
    complement) of the bath response.

    For the quadrature pair the diagonal entry at +omega_0 is
    (1/4) PV int_0^wmax J(w') [ (nbar+1)/(w0-w') + nbar/(w0+w') ] dw'.
    ``n_nodes`` sets the node count of the one frequency rule that serves
    every frequency (:func:`_shift_stack`); a bath whose J nbar is not
    integrable at 0+ (a flat density at T > 0) raises QuadratureError.
    """
    return _shift_stack(bath, [float(omega)], coupling_pattern, n_nodes, n_couplings)[0]


def _halfline_kernel(x, t):
    """E_t(x) = int_0^t e^{i x u} du = t e^{i x t/2} sinc(x t/2), accurate to
    rounding for every x t."""
    X = 0.5 * np.asarray(x, dtype=float) * t
    return t * np.exp(1j * X) * np.sinc(X / np.pi)


def _triangle_kernel(a, s, t):
    """I(a, s, t) = int int_{u, v >= 0, u + v <= t} e^{-i a u - i s v} du dv.

    By Hermite-Genocchi, I is the second divided difference of z -> e^{tz}
    at the nodes 0, -ia, -is.  It is the quotient of two first divided
    differences e^{t(p+q)/2} t sinc(t(p-q)/2i), each accurate to rounding
    for every argument (the quotient (e^{ixt} - 1)/(ix) loses eps/|x t|,
    which a difference of two kernels would expose), over the
    larger of |s| and |a - s|; that is at least half the largest distance
    between the nodes.  When it is below 1/(2t), I is the Taylor series
    t^2 sum_k h_k(-iat, -ist)/(k+2)! in the complete homogeneous
    polynomials h_k.
    """
    a, s, t = (np.asarray(v, dtype=float) for v in (a, s, t))
    A, S = 0.5 * a * t, 0.5 * s * t
    phase_a, ts = np.exp(-1j * A), t * np.exp(-1j * S)
    f_a = t * phase_a * np.sinc(A / np.pi)                # f[0, -ia] = E_t(-a)
    f_s = ts * np.sinc(S / np.pi)                         # f[0, -is] = E_t(-s)
    f_as = ts * phase_a * np.sinc((A - S) / np.pi)        # f[-ia, -is]
    ds, dd = np.abs(s), np.abs(a - s)
    by_s = ds >= dd
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(1j * (np.where(by_s, f_as, f_s) - f_a) / np.where(by_s, s, s - a))
    near = np.maximum(ds, dd) * t < 0.5
    if near.any():
        A, S, tn = (np.broadcast_to(v, near.shape)[near] for v in (A, S, t))
        za, zs = -2j * A, -2j * S                         # -iat and -ist
        h = p = np.ones_like(za)
        acc, fact = 0.5 * h, 2.0
        for k in range(1, 20):           # the terms left out are below 21/22! < 2e-20
            p = p * zs
            h = za * h + p
            fact *= k + 2
            acc = acc + h / fact
        out[near] = tn * tn * acc
    return out


#: quadrature-kernel entries (horizons x nodes) evaluated at once by the
#: finite-horizon rules; bounds their temporaries for any number of horizons
_GAMMA_BLOCK = 2 ** 16

#: |(w -+ nu) t| below which, at the least horizon of a block, a node of
#: _gamma_sums takes _halfline_kernel instead of the phase table
_NEAR_POLE = 1e-2


def _horizons(t):
    """A horizon or a 1-D array of horizons as a float array; each must be
    finite and nonnegative (ValueError otherwise)."""
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ValueError("horizon t must be a number or a 1-D array")
    if not np.all(np.isfinite(t)):
        raise ValueError("horizon t must be finite")
    if not np.all(t >= 0):
        raise ValueError("horizon t must be >= 0")
    return t


def _node_counts(bath, omega, t):
    """Frequency nodes of the finite-horizon rule at each horizon t: enough to
    resolve e^{i nu t} across the band, 4096 at least and 2^17 at most."""
    return np.minimum(np.maximum(4096, 1.3 * (bath.omega_max + abs(omega)) * t),
                      2 ** 17).astype(int)


def _row_blocks(rows, n):
    """``rows`` split so that each block times ``n`` nodes fits _GAMMA_BLOCK."""
    return np.array_split(rows, max(1, -(-rows.size * n // _GAMMA_BLOCK)))


def _gamma_stack(bath, omegas, t, coupling_pattern, n_couplings=None):
    """Gamma^t(w) of :func:`finite_time_gamma` for every horizon of the 1-D
    array ``t`` and every frequency w of ``omegas``: the (m, F, K, K) stack
    I_plus W_plus + I_minus W_minus over the sums of :func:`_gamma_sums`."""
    w_plus, w_minus = _pattern_weights(coupling_pattern, n_couplings)
    sums = _gamma_sums(bath, omegas, t)
    return sums[0, ..., None, None] * w_plus + sums[1, ..., None, None] * w_minus


def _gamma_sums(bath, omegas, t):
    """The emission and absorption sums (I_plus, I_minus) of Gamma^t(w) for
    every horizon of the 1-D array ``t`` and every frequency w of
    ``omegas``: the (2, m, F) array, without the coupling weights.

    Since e^{i(w -+ nu)t} = e^{iwt} e^{-+i nu t}, the rule's sum of
    f E_t(w -+ nu) is e^{iwt} sum g e^{-+i nu t} - sum g with
    g = f / (i (w -+ nu)), so one phase table e^{-i nu t} per node count and
    block of horizons serves every frequency and both signs.  Each frequency
    keeps its own node counts (:func:`_node_counts`).

    Near the pole w -+ nu = 0 the table loses more to rounding than
    :func:`_halfline_kernel` does: the difference cancels where
    |(w -+ nu) t| is small, and the phase carries the rounding of
    (|w| + nu) t instead of |w -+ nu| t.  The nodes with
    |(w -+ nu) t| < _NEAR_POLE at the block's least horizon, or with
    8 |w -+ nu| < |w| + nu, therefore take :func:`_halfline_kernel`, whose
    closed form is accurate to rounding for every argument.  A horizon 0
    gives exactly 0; a positive one raises :class:`QuadratureError` for a
    bath whose J nbar is not integrable at 0+ (:func:`_require_integrable`).
    """
    omegas = np.asarray(omegas, dtype=float)
    if omegas.size and np.any(t > 0):
        _require_integrable(bath, "finite-horizon Gamma")
    nodes = _node_counts(bath, omegas[:, None], t)
    sums = np.zeros((2, len(t), len(omegas)), dtype=complex)      # i_plus, i_minus
    for n in np.unique(nodes[:, t > 0]):
        x, f_plus, f_minus = bath.correlation_table(n)
        for r in _row_blocks(np.flatnonzero((t > 0) & np.any(nodes == n, axis=0)), x.size):
            table = _phase_table(bath, n, t[r])                     # e^{-i nu t}
            for i, w in enumerate(omegas):
                own = nodes[i, r] == n
                if not own.any():
                    continue
                E, tr = (table, t[r, None]) if own.all() else (table[own], t[r[own], None])
                for k, (y, f) in enumerate(((w - x, f_plus), (w + x, f_minus))):
                    near = np.abs(y) < np.maximum(_NEAR_POLE / tr.min(), (abs(w) + x) / 8.0)
                    g = np.divide(f, 1j * y, out=np.zeros(y.shape, dtype=complex), where=~near)
                    s = np.sum(E * g, axis=-1) if k == 0 else np.sum(E * g.conj(), axis=-1).conj()
                    s = np.exp(1j * w * tr[:, 0]) * s - np.sum(g)
                    if near.any():
                        s += np.sum(f[near] * _halfline_kernel(y[near], tr), axis=-1)
                    sums[k, r[own], i] = s
    return sums


def finite_time_gamma(bath, omega, t, coupling_pattern="position_xy", n_couplings=None):
    """Finite-horizon one-sided Fourier transform Gamma^t(omega) of the bath
    correlations: int_0^t du e^{i omega u} C(u), as a coupling-space matrix.

    Converges to gamma(omega)/2 + i S(omega) as t -> infinity.  ``t`` is a
    horizon or a 1-D array of m horizons, which gives the (m, K, K) stack of
    matrices; each slice equals the call at that horizon alone up to rounding
    (the horizons that share a node count share one rule of
    :meth:`BathModel.correlation_table` and one phase table).  A negative or
    non-finite horizon raises ValueError.  :func:`tcl2_generator` takes the
    same sums for all Bohr frequencies at once.
    """
    t = _horizons(t)
    gam = _gamma_stack(bath, [float(omega)], np.atleast_1d(t), coupling_pattern,
                       n_couplings)[:, 0]
    return gam if t.ndim else gam[0]


# ---------------------------------------------------------------------------
# system side: eigenoperator decomposition
# ---------------------------------------------------------------------------

@dataclass
class SystemModel:
    """System Hamiltonian plus Hermitian bath-coupling operators."""

    H: np.ndarray
    couplings: List[np.ndarray]
    coupling_pattern: str = "single"

    def __post_init__(self):
        self.H = _as_square(self.H, "system Hamiltonian")
        if not is_hermitian(self.H, 1e-10):
            raise ValueError("system Hamiltonian must be Hermitian")
        self.couplings = [_as_square(A, "coupling") for A in self.couplings]
        for A in self.couplings:
            if A.shape != self.H.shape:
                raise DimensionError("coupling dimension differs from Hamiltonian")
            if not is_hermitian(A, 1e-10):
                raise ValueError("coupling operators must be Hermitian")
        _pattern_weights(self.coupling_pattern)      # rejects unknown patterns
        if self.coupling_pattern == "position_xy" and len(self.couplings) != 2:
            raise ValueError("position_xy pattern needs exactly two couplings")

    @property
    def dim(self):
        return self.H.shape[0]


@dataclass
class BohrDecomposition:
    """Eigenoperator blocks of one coupling operator.

    frequencies are the signed Bohr frequencies present (one per run of
    level differences, :func:`_bohr_stack`); blocks[w] satisfies
    [H, A(w)] = -w A(w) within its bin's spread, A(-w) = A(w)^dag and
    sum_w A(w) = A.
    """

    frequencies: List[float]
    blocks: Dict[float, np.ndarray]
    bin_tol: float


def _bohr_stack(H, couplings, bin_tol=None):
    """Bohr decomposition of every coupling from one eigensolve of H.  Each
    run of sorted |e_j - e_i| with steps of at most bin_tol is one bin at its
    mean (the run of 0 at 0), signed by the pair, so the bins partition the
    level pairs.  In the eigenbasis A_k(w) is A_k masked to the pairs of bin
    w; it exists where an entry exceeds 1e-12 max |A_k|.  Returns the sorted
    frequencies with a block, the (F, K, N, N) stack of blocks (zero where a
    coupling has none) and bin_tol; the invariants are checked for all blocks
    at once (ValueError).
    """
    eps, V = np.linalg.eigh(H)
    scale = max(np.abs(eps).max(), 1e-300)                         # ||H||_2
    bin_tol = 1e-9 * scale if bin_tol is None else float(bin_tol)
    _check_tol(bin_tol, "bin_tol")
    A = np.array(couplings, dtype=complex).reshape(len(couplings), *H.shape)
    At = V.conj().T @ A @ V
    levels = eps[None, :] - eps[:, None]
    diffs = np.sort(np.abs(levels), axis=None)
    cut = np.flatnonzero(np.diff(diffs) > bin_tol) + 1
    first, last = np.append(0, cut), np.append(cut, diffs.size) - 1   # run 0 holds 0
    run = np.searchsorted(diffs[first], np.abs(levels), side="right") - 1
    pos = [float(np.add.reduce(r)) / r.size for r in np.split(diffs, cut)[1:]]   # np.mean's bits
    centers = np.array([-c for c in pos[::-1]] + [0.0] + pos)      # mirror: C - 1 - c
    bins = len(pos) + np.where(levels < 0, -run, run)               # pair -> center
    mask = bins == np.arange(len(centers))[:, None, None]
    a_scale = np.maximum(np.abs(A).max(axis=(1, 2), initial=0.0), 1e-300)
    present = (mask[:, None] & (np.abs(At) > 1e-12 * a_scale[:, None, None])).any(axis=(2, 3))
    ci, ki = np.nonzero(present)                                   # (center, coupling)
    B = V @ np.where(mask[ci], At[ki], 0.0) @ V.conj().T
    w, peak = centers[ci], np.abs(B).max(axis=(1, 2), initial=0.0)
    spread = (diffs[last] - diffs[first])[np.abs(ci - len(pos))]
    comm = np.abs(H @ B - B @ H + w[:, None, None] * B).max(axis=(1, 2), initial=0.0)
    # each pair of a bin is within its spread of w: comm <= spread |B|_F <= N spread peak
    bad = comm > (1e-9 * max(scale, 1.0) + spread * len(H)) * peak
    if bad.any():
        raise ValueError(f"block at {w[bad][0]} is not an eigenoperator")
    index = np.full(present.shape, -1)
    index[ci, ki] = np.arange(len(ci))
    mirror = index[len(centers) - 1 - ci, ki]
    dev = np.abs(B[mirror] - B.conj().transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    bad = (mirror >= 0) & (dev > 1e-10 * a_scale[ki])
    if bad.any():
        raise ValueError(f"blocks at +-{w[bad][0]} are not adjoints")
    keep = present.any(axis=1)         # after the checks: their temporaries are freed
    stack = np.zeros((keep.sum(), len(A)) + H.shape, dtype=complex)
    stack[(np.cumsum(keep) - 1)[ci], ki] = B
    if np.any(np.abs(stack.sum(axis=0) - A).max(axis=(1, 2), initial=0.0) > 1e-10 * a_scale):
        raise ValueError("eigenoperator blocks do not sum back to the coupling")
    return centers[keep].tolist(), stack, bin_tol


def bohr_decompose(H, A, bin_tol=None):
    """Decompose a coupling operator into Bohr-frequency eigenoperators.

    Eigendecomposes H, bins the level differences by runs with steps of at
    most ``bin_tol`` (default 1e-9 ||H||; finite and nonnegative, ValueError
    otherwise) and emits one block per signed bin.  The invariants are checked
    on construction.  The generators decompose all couplings at once
    (:func:`_bohr_stack`).
    """
    H = _as_square(H, "Hamiltonian")
    A = _as_square(A, "coupling")
    if not is_hermitian(H, 1e-10):
        raise ValueError("Hamiltonian must be Hermitian")
    freqs, B, bin_tol = _bohr_stack(H, [A], bin_tol)
    return BohrDecomposition(freqs, dict(zip(freqs, B[:, 0])), bin_tol)


# ---------------------------------------------------------------------------
# generator assembly
# ---------------------------------------------------------------------------

@dataclass
class FrequencyBlock:
    omega: float
    coupling_indices: List[int]
    operators: List[np.ndarray]          # A_k(omega) for present k
    gamma: np.ndarray                    # sliced rate matrix
    shift: np.ndarray                    # sliced shift matrix


@dataclass
class DaviesGenerator:
    """Weak-coupling generator with its commuting Lamb-shift Hamiltonian.

    ``base`` carries H_A + alpha^2 H_LS and the canonical (rate, jump) pairs
    with the alpha^2 scale absorbed into the rates; ``per_frequency`` keeps
    the raw rate/shift matrices for certificate checks.
    """

    base: GKSLGenerator
    lamb_shift: np.ndarray
    per_frequency: Dict[float, FrequencyBlock]
    alpha: float
    system: SystemModel
    bath: BathModel

    @property
    def dim(self):
        return self.base.dim

    def superoperator(self):
        return superop_of_generator(self.base)


def _canonical_jumps(gamma, A, tol=1e-12):
    """(rate, unit Hilbert-Schmidt-norm jump) pairs of the PSD rate matrices
    gamma (F, K, K) of the operators A (F, K, n, n) from one batched
    eigensolve, frequency-major; a coupling without a block at a frequency
    has a zero operator and zero rows and columns there."""
    w, U = np.linalg.eigh((gamma + gamma.conj().transpose(0, 2, 1)) / 2.0)
    scale = np.maximum(np.abs(w).max(axis=1, initial=0.0), 1e-300)
    low = w.min(axis=1, initial=0.0) < -1e-9 * scale
    if low.any():
        raise ValueError(f"rate matrix has negative eigenvalue {w[low][0].min():.3e}")
    W = np.einsum("fkm,fkij->fmij", U.conj(), A)
    norm = np.sqrt(np.einsum("fmij,fmij->fm", W.conj(), W).real)
    keep = (w > tol * scale[:, None]) & (norm >= 1e-14)
    return [(float(w[f, m]) * norm[f, m] ** 2, W[f, m] / norm[f, m])
            for f, m in zip(*np.nonzero(keep))]


def davies_generator(system, bath, alpha=1.0, bin_tol=None, n_nodes=2048,
                     shift=True):
    """Assemble the weak-coupling (Davies) generator of a system-bath model.

    Builds the Bohr decomposition of every coupling, the rate matrices of
    every frequency block and their shift matrices (one frequency rule for
    all frequencies, :func:`lamb_shift`), forms
    H = H_A + alpha^2 H_LS with H_LS = sum_w sum_kl S_kl(w) A_k(w)^dag A_l(w)
    and the dissipator alpha^2 sum_w sum_kl gamma_kl(w) [A_l(w) . A_k(w)^dag
    - (1/2){A_k(w)^dag A_l(w), .}], the latter returned in canonical
    diagonalized form.  Every rate comes before any shift, so a
    zero-frequency rate error comes first.  Near-colliding Bohr bins trigger
    a degeneracy warning (the secular approximation is the caller's
    responsibility there).  ``alpha`` must be a real number with a finite
    square (ValueError otherwise).
    """
    alpha2 = _check_alpha(alpha)
    K, pattern = len(system.couplings), system.coupling_pattern
    freqs, A, bin_tol = _bohr_stack(system.H, system.couplings, bin_tol)
    _warn_near_degenerate(freqs, bin_tol)
    present = A.any(axis=(2, 3))                 # a block that exists is nonzero
    # a coupling without a block at w leaves the canonical jumps at w
    gamma = bath_rates(bath, freqs, pattern, K) * (present[:, :, None] & present[:, None, :])
    S = _shift_stack(bath, freqs, pattern, n_nodes, K) if shift else np.zeros_like(gamma)
    per_frequency = {}
    for w, on, g, s, ops in zip(freqs, present, gamma, S, A):
        idx = np.flatnonzero(on)
        if idx.size < K:
            g, s, ops = g[np.ix_(idx, idx)], s[np.ix_(idx, idx)], ops[idx]
        per_frequency[w] = FrequencyBlock(w, idx.tolist(), list(ops), g, s)
    H_LS = np.tensordot(A.conj(), np.einsum("fkl,fljm->fkjm", S, A), axes=([0, 1, 2],) * 2)
    H_LS = (H_LS + H_LS.conj().T) / 2.0
    hscale = max(np.linalg.norm(system.H, 2), 1.0)
    if np.abs(system.H @ H_LS - H_LS @ system.H).max() > 1e-8 * hscale * max(
            np.abs(H_LS).max(), 1e-300):
        raise ValueError("Lamb-shift Hamiltonian does not commute with H_A")
    jumps = [(alpha2 * g, V) for g, V in _canonical_jumps(gamma, A)]
    base = GKSLGenerator(H=system.H + alpha2 * H_LS, jumps=jumps)
    return DaviesGenerator(base=base, lamb_shift=H_LS, per_frequency=per_frequency,
                           alpha=float(alpha), system=system, bath=bath)


def _warn_near_degenerate(freqs, bin_tol):
    gaps = np.diff(freqs)
    for i in np.flatnonzero((gaps > 0) & (gaps < 1e3 * max(bin_tol, 1e-300))):
        warnings.warn(
            f"Bohr frequencies {freqs[i]!r} and {freqs[i + 1]!r} nearly collide "
            f"(gap {gaps[i]:.3e}); secular approximation may be invalid",
            stacklevel=3)


# ---------------------------------------------------------------------------
# thermal certificates
# ---------------------------------------------------------------------------

class KMSFrequencyCheck(NamedTuple):
    omega: float
    max_relative_violation: float
    vacuum: bool


@dataclass
class KMSReport:
    checks: List[KMSFrequencyCheck]
    max_relative_violation: float
    passed: bool


def kms_check(gen, temperature=None, tol=1e-8):
    """Detailed-balance certificate gamma_kl(w) = e^{w/T} gamma_lk(-w).

    Verified entrywise for every positive frequency block with its mirror;
    vacuum blocks (T = 0 or negligible emission) are flagged and skipped.
    """
    T = gen.bath.temperature if temperature is None else float(temperature)
    checks = []
    worst = 0.0
    for w, block in sorted(gen.per_frequency.items()):
        if w <= 0:
            continue
        if -w not in gen.per_frequency:
            raise IncompleteDecompositionError(
                f"no mirror block at {-w}; cannot certify detailed balance")
        mirror = gen.per_frequency[-w]
        if block.coupling_indices != mirror.coupling_indices:
            raise IncompleteDecompositionError(
                f"coupling support differs between +-{w}")
        scale = max(np.abs(block.gamma).max(), 1e-300)
        if T == 0 or np.abs(mirror.gamma).max() <= 1e-30 * scale:
            checks.append(KMSFrequencyCheck(w, 0.0, True))
            continue
        viol = np.abs(block.gamma - np.exp(w / T) * mirror.gamma.T).max() / scale
        worst = max(worst, float(viol))
        checks.append(KMSFrequencyCheck(w, float(viol), False))
    return KMSReport(checks, worst, worst <= tol)


def thermal_state(H, temperature):
    """Gibbs state exp(-H/T)/Z; at T = 0 the (equal-weight) ground projector."""
    H = _as_square(H, "Hamiltonian")
    eps, V = np.linalg.eigh(H)
    if temperature == 0:
        mask = np.abs(eps - eps.min()) <= 1e-12 * max(abs(eps).max(), 1.0)
        p = mask.astype(float)
    else:
        p = np.exp(-(eps - eps.min()) / temperature)
    p = p / p.sum()
    return (V * p) @ V.conj().T


def stationarity_check(gen, temperature=None):
    """Trace-norm residual ||L(rho_th)||_1 of the bath-temperature Gibbs state
    under the assembled generator."""
    T = gen.bath.temperature if temperature is None else float(temperature)
    rho = thermal_state(gen.system.H, T)
    L = gen.superoperator()
    return trace_norm(apply_superop(L, rho))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def damped_qubit(omega0=1.0):
    """Two-level system exchanging quanta with the bath (rotating pair
    coupling split into its two Hermitian quadratures)."""
    H = 0.5 * omega0 * sigma_z
    a1 = sigma_x
    a2 = 1j * (sigma_plus - sigma_minus)
    return SystemModel(H=H, couplings=[a1, a2], coupling_pattern="position_xy")


def damped_oscillator(n_levels=10, omega0=1.0):
    """Truncated harmonic mode damped by the bath via its two quadratures."""
    a = destroy(n_levels)
    H = omega0 * number(n_levels)
    return SystemModel(H=H, couplings=[a + a.conj().T, 1j * (a.conj().T - a)],
                       coupling_pattern="position_xy")


def pure_dephasing(omega0=1.0):
    """Longitudinal (commuting) coupling: populations frozen, coherences decay."""
    return SystemModel(H=0.5 * omega0 * sigma_z, couplings=[sigma_z],
                       coupling_pattern="single")
