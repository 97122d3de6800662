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
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple

import numpy as np

from .errors import (
    DimensionError,
    IncompleteDecompositionError,
    QuadratureError,
    ZeroFrequencyRateError,
)
from .gksl import GKSLGenerator, superop_of_generator
from .liouville import _as_square, apply_superop, is_hermitian, trace_norm
from .operators import destroy, number, sigma_minus, sigma_plus, sigma_x, sigma_z

_PAIR_PLUS = np.array([[1.0, 1.0j], [-1.0j, 1.0]])   # quadrature pattern at +omega
_PAIR_MINUS = _PAIR_PLUS.conj()                      # conjugate pattern at -omega


def _pattern_weights(pattern, n_couplings=None):
    """Coupling-space weights (W_plus, W_minus) of the emission (J (nbar+1))
    and absorption (J nbar) parts of every rate and shift matrix."""
    if pattern == "position_xy":
        return 0.25 * _PAIR_PLUS, 0.25 * _PAIR_MINUS
    if pattern == "single":
        eye = np.eye(1 if n_couplings is None else n_couplings, dtype=complex)
        return eye, eye
    raise ValueError(f"unknown coupling pattern {pattern!r}")


def bose_occupation(omega, temperature):
    """Bose-Einstein occupation nbar = 1/(e^{omega/T} - 1); zero at T = 0."""
    if omega <= 0:
        raise ValueError(f"occupation needs omega > 0, got {omega}")
    if temperature == 0:
        return 0.0
    return 1.0 / np.expm1(omega / temperature)


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
    omega_c for the built-in family).
    """

    spectral_density: Callable[[np.ndarray], np.ndarray]
    temperature: float
    omega_max: float
    feature_scale: float
    label: str = "custom"

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
        """Linear interpolation of a sampled spectral density (zero outside)."""
        omegas = np.asarray(omegas, dtype=float)
        values = np.asarray(values, dtype=float)
        if omegas.ndim != 1 or omegas.shape != values.shape:
            raise ValueError("tabulated bath needs matching 1-D omega and J arrays")
        if np.any(values < 0):
            raise ValueError("spectral density must be nonnegative")
        omega_max = float(omegas[-1]) if omega_max is None else omega_max

        def J(w):
            return np.interp(np.asarray(w, dtype=float), omegas, values, left=0.0, right=0.0)

        return cls(J, temperature, omega_max, max(omega_max / 10.0, omegas[1] - omegas[0]),
                   label="tabulated")

    def J(self, w):
        return self.spectral_density(w)

    # -- quadrature helpers -------------------------------------------------

    def _breakpoints(self):
        pts = {self.feature_scale}
        if self.temperature > 0:
            pts.add(self.temperature)
            pts.add(5.0 * self.temperature)
        return sorted(p for p in pts if 0.0 < p < self.omega_max)

    def correlation(self, t, abs_tol=1e-8):
        """Bath correlation function C(t) (single-coupling normalization).

        C(t) = int_0^wmax dw J(w) [ (nbar+1) e^{-iwt} + nbar e^{+iwt} ],
        evaluated by adaptive quadrature with oscillatory weights to the
        requested absolute accuracy.
        """
        t = float(t)
        pts = self._breakpoints()
        T = self.temperature

        def sym(w):
            # J (2 nbar + 1) = J coth(w/2T), stable down to w -> 0
            w = np.atleast_1d(np.maximum(w, 1e-300))
            if T == 0:
                return self.J(w)[0]
            return (self.J(w) / np.tanh(w / (2.0 * T)))[0]

        def plain(w):
            w = np.atleast_1d(w)
            return self.J(w)[0]

        import scipy.integrate          # only here: it is slow to import

        kw = dict(limit=400, epsabs=abs_tol / 4.0, epsrel=1e-10)
        if t == 0.0:
            re, _ = scipy.integrate.quad(sym, 0.0, self.omega_max, points=pts, **kw)
            return complex(re, 0.0)
        re, _ = scipy.integrate.quad(sym, 0.0, self.omega_max, weight="cos", wvar=t, **kw)
        im, _ = scipy.integrate.quad(plain, 0.0, self.omega_max, weight="sin", wvar=t, **kw)
        return complex(re, -im)

    def correlation_table(self, t_max):
        """Fast evaluator for the correlation's building blocks on [-t_max, t_max].

        Returns an object with vectorized callables c_plus, c_minus where
        c_plus(u) = int J (nbar+1) e^{-i w u} dw and
        c_minus(u) = int J nbar e^{+i w u} dw.  The single-pattern
        correlation is their sum; the quadrature-pair correlation matrix is
        (c_plus M + c_minus conj(M))/4.
        """
        return _CorrelationTable(self, float(t_max))


class _CorrelationTable:
    """Fast evaluator for the two one-sided correlation integrals on
    [0, t_max]: a Chebyshev interpolant where the correlation actually lives,
    spliced to the analytic endpoint (integration-by-parts) expansion
    c(u) ~ sum_m g^(m)(0)/(i u)^{m+1} in the far tail.

    The correlation peaks at u = 0, which the interval mapping places at a
    node-clustered endpoint, so the degree scales like sqrt(interval /
    smoothness time)."""

    _TAIL_ORDER = 4

    def __init__(self, bath, t_max):
        self.t_max = max(t_max, 1e-12)
        smooth = _smooth_time(bath)
        jmax_edge = float(bath.J(np.array([bath.omega_max]))[0])
        jmax_peak = max(float(np.max(bath.J(np.linspace(1e-6, bath.omega_max, 513)))), 1e-300)
        tail_ok = jmax_edge <= 1e-6 * jmax_peak
        # tail expansion needs u beyond the slowest correlation decay scale
        slow = 1.0 / bath.feature_scale
        if bath.temperature > 0:
            slow = max(slow, 1.0 / (2.0 * np.pi * bath.temperature))
        self.u_split = self.t_max if not tail_ok else min(self.t_max, 60.0 * slow)
        n_freq = int(min(max(6144, 1.8 * bath.omega_max * self.u_split), 2 ** 18))
        x, w = _panel_nodes(0.0, bath.omega_max, bath._breakpoints(), n_freq)
        jp = bath.J(x) * (_nbar(x, bath.temperature) + 1.0) * w
        jm = bath.J(x) * _nbar(x, bath.temperature) * w
        deg = int(min(max(192, 60.0 * np.sqrt(self.u_split / smooth)), 4000))
        # Chebyshev points of the first kind, mapped to [0, u_split]
        theta = np.pi * (np.arange(deg + 1) + 0.5) / (deg + 1)
        u_nodes = 0.5 * self.u_split * (np.cos(theta) + 1.0)
        cp = np.empty(deg + 1, dtype=complex)
        cm = np.empty(deg + 1, dtype=complex)
        buf = np.empty((min(256, deg + 1), x.size), dtype=complex)
        for i0 in range(0, deg + 1, 256):      # chunked: the full outer product is large
            i1 = min(i0 + 256, deg + 1)
            phase = buf[:i1 - i0]
            np.multiply(-1j, np.outer(u_nodes[i0:i1], x), out=phase)
            np.exp(phase, out=phase)
            cp[i0:i1] = phase @ jp
            cm[i0:i1] = np.conj(phase @ jm)         # jm is real
        k = np.arange(deg + 1)
        cosmat = np.cos(np.outer(k, theta))
        self._fit_p = (2.0 / (deg + 1)) * (cosmat @ cp)
        self._fit_m = (2.0 / (deg + 1)) * (cosmat @ cm)
        self._fit_p[0] /= 2.0
        self._fit_m[0] /= 2.0
        self._tail_p = self._tail_m = None
        if self.u_split < self.t_max:
            window = min(bath.feature_scale,
                         bath.temperature if bath.temperature > 0 else np.inf) / 4.0
            nu = np.linspace(1e-9 * window, window, 9)
            basis = np.vander(nu, self._TAIL_ORDER + 1, increasing=True)
            coef_p, *_ = np.linalg.lstsq(
                basis, bath.J(nu) * (_nbar(nu, bath.temperature) + 1.0), rcond=None)
            coef_m, *_ = np.linalg.lstsq(
                basis, bath.J(nu) * _nbar(nu, bath.temperature), rcond=None)
            fact = np.array([math.factorial(m) for m in range(self._TAIL_ORDER + 1)],
                            dtype=float)
            self._tail_p = coef_p * fact          # g^(m)(0)
            self._tail_m = coef_m * fact

    def _eval_half(self, coeffs, tail, u, sign):
        """One-sided value at |u|; Chebyshev core plus asymptotic tail.

        ``sign`` is the transform orientation: +1 for int g e^{-i nu u}
        (tail terms g^(m)(0)/(+iu)^{m+1}), -1 for int g e^{+i nu u}.
        """
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        x = 2.0 * np.clip(u, 0.0, self.u_split) / self.u_split - 1.0
        val = np.atleast_1d(np.polynomial.chebyshev.chebval(x, coeffs)).astype(complex)
        if tail is not None:
            far = u > self.u_split
            if np.any(far):
                uu = u[far]
                acc = np.zeros(uu.shape, dtype=complex)
                for m, gm in enumerate(tail):
                    acc += gm / (sign * 1j * uu) ** (m + 1)
                val[far] = acc
        return val[0] if scalar else val.reshape(np.shape(x))

    def c_plus(self, u):
        u = np.asarray(u, dtype=float)
        val = self._eval_half(self._fit_p, self._tail_p, np.abs(u), +1)
        return np.where(u >= 0, val, np.conj(val))

    def c_minus(self, u):
        u = np.asarray(u, dtype=float)
        val = self._eval_half(self._fit_m, self._tail_m, np.abs(u), -1)
        return np.where(u >= 0, val, np.conj(val))

    def correlation(self, u):
        """C(u) in the single-coupling normalization, any sign of u."""
        return self.c_plus(u) + self.c_minus(u)


def bath_correlation(bath, t, abs_tol=1e-8):
    """Bath correlation function C(t) (single-coupling normalization);
    module-level form of :meth:`BathModel.correlation`."""
    return bath.correlation(t, abs_tol=abs_tol)


def _smooth_time(bath):
    """Characteristic decay/smoothness time of C(u)."""
    scales = [1.0 / bath.feature_scale]
    if bath.temperature > 0:
        scales.append(1.0 / (2.0 * np.pi * bath.temperature))
    return min(scales)


_LEGGAUSS_CACHE = {}


def _leggauss(n):
    if n not in _LEGGAUSS_CACHE:
        _LEGGAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _LEGGAUSS_CACHE[n]


def _panel_nodes(lo, hi, breakpoints, n_total, max_rule=1024):
    """Composite Gauss-Legendre nodes/weights over [lo, hi] split at breakpoints.

    Nodes are distributed proportionally to panel length (minimum 48 per
    panel); long panels are chunked so no single rule exceeds ``max_rule``.
    """
    edges = [lo] + [b for b in breakpoints if lo < b < hi] + [hi]
    span = hi - lo
    xs, ws = [], []
    for a, b in zip(edges, edges[1:]):
        n_here = max(48, int(np.ceil(n_total * (b - a) / span)))
        n_sub = int(np.ceil(n_here / max_rule))
        n_rule = -(-n_here // n_sub)
        n_rule = 64 * (-(-n_rule // 64))     # round up; keeps the rule cache small
        x0, w0 = _leggauss(n_rule)
        sub_edges = np.linspace(a, b, n_sub + 1)
        for aa, bb in zip(sub_edges, sub_edges[1:]):
            xs.append(0.5 * (bb - aa) * x0 + 0.5 * (aa + bb))
            ws.append(0.5 * (bb - aa) * w0)
    return np.concatenate(xs), np.concatenate(ws)


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


def _zero_frequency_rate(bath):
    """Two-sided limit of the scalar zero-frequency rate 2 pi J(|w|) nbar(|w|).

    Richardson-extrapolates both one-sided limits at eps and 2 eps; raises
    :class:`ZeroFrequencyRateError` on divergence or >1% disagreement (the
    limit only exists for ohmic-like densities with J ~ w near zero).
    """
    eps = 1e-6 * bath.feature_scale

    def minus(e):
        return 2.0 * np.pi * float(bath.J(np.array([e]))[0]) * (
            _nbar(np.array([e]), bath.temperature)[0])

    def plus(e):
        return 2.0 * np.pi * float(bath.J(np.array([e]))[0]) * (
            _nbar(np.array([e]), bath.temperature)[0] + 1.0)

    for g in (minus, plus):
        f1, f4 = abs(g(eps)), abs(g(4.0 * eps))
        if f1 > 1.25 * f4 + 1e-300:
            raise ZeroFrequencyRateError(
                "zero-frequency rate diverges; spectral density is not ohmic-like")
    lim_minus = 2.0 * minus(eps) - minus(2.0 * eps)
    lim_plus = 2.0 * plus(eps) - plus(2.0 * eps)
    denom = max(abs(lim_minus), abs(lim_plus))
    # negligible against the bath's own rate scale counts as a vanishing limit
    ref = 2.0 * np.pi * float(bath.J(np.array([bath.feature_scale]))[0]) * (
        _nbar(np.array([bath.feature_scale]), bath.temperature)[0] + 1.0)
    if denom <= 1e-9 * max(ref, 1e-300):
        return 0.0
    if abs(lim_plus - lim_minus) > 0.01 * denom:
        raise ZeroFrequencyRateError(
            f"one-sided limits disagree ({lim_minus:.3e} vs {lim_plus:.3e}); "
            "the zero-frequency rate needs lim J(|w|) = 0 (ohmic-type density)")
    return lim_minus


def bath_rates(bath, omega, coupling_pattern="position_xy", n_couplings=None):
    """Decay-rate matrix gamma(omega) of the thermal bath.

    Frequencies outside [-omega_max, omega_max] return the zero matrix.  At
    omega = 0 only the ``single`` pattern is defined (the quadrature pair's
    off-diagonal entries have no two-sided limit); the scalar value is the
    ohmic-limit rate 2 pi lim J(|w|) nbar(|w|).
    """
    w_plus, w_minus = _pattern_weights(coupling_pattern, n_couplings)
    omega = float(omega)
    if abs(omega) > bath.omega_max:
        return np.zeros_like(w_plus)
    if omega == 0.0:
        if coupling_pattern == "position_xy":
            raise ZeroFrequencyRateError(
                "zero-frequency block is ill-defined for the quadrature-pair pattern")
        return _zero_frequency_rate(bath) * w_plus
    j = float(bath.J(np.array([abs(omega)]))[0])
    nb = bose_occupation(abs(omega), bath.temperature) if bath.temperature > 0 else 0.0
    if omega > 0:
        return 2.0 * np.pi * j * (nb + 1.0) * w_plus
    return 2.0 * np.pi * j * nb * w_minus


def _shift_scalars(bath, omega, n_nodes):
    """The two principal-value integrals entering every shift matrix:
    I_plus = PV int J(nbar+1)/(omega - w) dw and
    I_minus = PV int J nbar /(omega + w) dw, both over (0, omega_max]."""
    pts = bath._breakpoints()
    T = bath.temperature

    def f_plus(w):
        return bath.J(w) * (_nbar(w, T) + 1.0)

    def f_minus(w):
        return bath.J(w) * _nbar(w, T)

    i_plus = pv_integral(f_plus, 0.0, bath.omega_max, omega, n_nodes, pts)
    # PV int f/(omega + w) dw = -PV int f/((-omega) - w) dw
    i_minus = -pv_integral(f_minus, 0.0, bath.omega_max, -omega, n_nodes, pts)
    return i_plus, i_minus


def lamb_shift(bath, omega, coupling_pattern="position_xy", n_nodes=2048, n_couplings=None):
    """Level-shift matrix S(omega): the principal-value (Hermitian-part
    complement) of the bath response.

    For the quadrature pair the diagonal entry at +omega_0 is
    (1/4) PV int_0^wmax J(w') [ (nbar+1)/(w0-w') + nbar/(w0+w') ] dw'.
    ``n_nodes`` controls the per-panel Gauss-Legendre resolution.
    """
    w_plus, w_minus = _pattern_weights(coupling_pattern, n_couplings)
    omega = float(omega)
    if abs(omega) >= bath.omega_max and abs(abs(omega) - bath.omega_max) < 1e-12 * bath.omega_max:
        raise QuadratureError("shift pole at the cutoff frequency")
    if omega == 0.0:
        if coupling_pattern == "position_xy":
            raise ZeroFrequencyRateError(
                "zero-frequency shift is ill-defined for the quadrature-pair pattern")
        # combined integrand (J nbar - J(nbar+1))/w = -J/w is pole-free
        pts = bath._breakpoints()
        x, w = _panel_nodes(0.0, bath.omega_max, pts, n_nodes)
        val = float(np.sum(w * (-bath.J(x) / x)))
        return val * w_plus
    i_plus, i_minus = _shift_scalars(bath, omega, n_nodes)
    return i_plus * w_plus + i_minus * w_minus


def _halfline_kernel(x, t):
    """E_t(x) = int_0^t e^{i x u} du, stable for small |x t|."""
    x = np.asarray(x, dtype=float)
    xt = x * t
    small = np.abs(xt) < 1e-5
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = (np.exp(1j * xt) - 1.0) / (1j * x)
    series = t * (1.0 + 0.5j * xt - xt**2 / 6.0)
    return np.where(small, series, exact)


#: quadrature-kernel entries (horizons x nodes) evaluated at once by
#: finite_time_gamma; bounds its temporaries for any number of horizons
_GAMMA_BLOCK = 2 ** 16


def finite_time_gamma(bath, omega, t, coupling_pattern="position_xy", n_couplings=None):
    """Finite-horizon one-sided Fourier transform Gamma^t(omega) of the bath
    correlations: int_0^t du e^{i omega u} C(u), as a coupling-space matrix.

    Converges to gamma(omega)/2 + i S(omega) as t -> infinity.  ``t`` is a
    horizon or a 1-D array of m horizons, which gives the (m, K, K) stack of
    matrices; each slice equals the call at that horizon alone (the horizons
    that share a node count share one quadrature rule).  A negative horizon
    raises ValueError.
    """
    omega = float(omega)
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ValueError("horizon t must be a number or a 1-D array")
    if not np.all(t >= 0):
        raise ValueError("horizon t must be >= 0")
    w_plus, w_minus = _pattern_weights(coupling_pattern, n_couplings)
    ts = np.atleast_1d(t)
    nodes = np.minimum(np.maximum(4096, 1.3 * (bath.omega_max + abs(omega)) * ts),
                       2 ** 17).astype(int)
    i_plus, i_minus = np.empty((2, len(ts)), dtype=complex)
    T = bath.temperature
    for n in np.unique(nodes):
        x, w = _panel_nodes(0.0, bath.omega_max, bath._breakpoints(), n)
        f_plus = w * bath.J(x) * (_nbar(x, T) + 1.0)
        f_minus = w * bath.J(x) * _nbar(x, T)
        rows = np.flatnonzero(nodes == n)
        for r in np.array_split(rows, -(-rows.size * x.size // _GAMMA_BLOCK)):
            tr = ts[r, None]
            i_plus[r] = np.sum(f_plus * _halfline_kernel(omega - x, tr), axis=-1)
            i_minus[r] = np.sum(f_minus * _halfline_kernel(omega + x, tr), axis=-1)
    gam = i_plus[:, None, None] * w_plus + i_minus[:, None, None] * w_minus
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

    frequencies are the signed Bohr frequencies present (binned within
    bin_tol); blocks[w] satisfies [H, A(w)] = -w A(w), A(-w) = A(w)^dag and
    sum_w A(w) = A.
    """

    frequencies: List[float]
    blocks: Dict[float, np.ndarray]
    bin_tol: float


def _bin_frequencies(diffs, bin_tol):
    """Cluster nonnegative energy differences into bins of width bin_tol."""
    diffs = np.sort(diffs)
    centers = []
    current = [diffs[0]]
    for d in diffs[1:]:
        if d - current[-1] <= bin_tol:
            current.append(d)
        else:
            centers.append(float(np.mean(current)))
            current = [d]
    centers.append(float(np.mean(current)))
    return centers


def bohr_decompose(H, A, bin_tol=None):
    """Decompose a coupling operator into Bohr-frequency eigenoperators.

    Eigendecomposes H, groups level differences into bins of width
    ``bin_tol`` (default 1e-9 ||H||) and emits one block per signed bin
    center.  The invariants are checked on construction.
    """
    H = _as_square(H, "Hamiltonian")
    A = _as_square(A, "coupling")
    if not is_hermitian(H, 1e-10):
        raise ValueError("Hamiltonian must be Hermitian")
    scale = max(np.linalg.norm(H, 2), 1e-300)
    bin_tol = 1e-9 * scale if bin_tol is None else float(bin_tol)
    eps, V = np.linalg.eigh(H)
    At = V.conj().T @ A @ V
    diffs = np.abs(eps[None, :] - eps[:, None]).ravel()
    pos_centers = [c for c in _bin_frequencies(diffs, bin_tol) if c > bin_tol]
    centers = sorted({0.0} | {c for c in pos_centers} | {-c for c in pos_centers})
    blocks = {}
    for w in centers:
        mask = np.abs((eps[None, :] - eps[:, None]) - w) <= max(bin_tol, 1e-12 * scale)
        B = np.where(mask, At, 0.0)
        if np.abs(B).max() > 1e-12 * max(np.abs(A).max(), 1e-300):
            blocks[w] = V @ B @ V.conj().T
    frequencies = sorted(blocks.keys())
    dec = BohrDecomposition(frequencies, blocks, bin_tol)
    _validate_bohr(H, A, dec)
    return dec


def _bohr_blocks(system, bin_tol=None):
    """Bohr decomposition of every coupling and the sorted union of their
    frequencies."""
    decs = [bohr_decompose(system.H, A, bin_tol) for A in system.couplings]
    return decs, sorted({w for d in decs for w in d.frequencies})


def _validate_bohr(H, A, dec):
    scale = max(np.abs(A).max(), 1e-300)
    total = sum(dec.blocks.values())
    if np.abs(total - A).max() > 1e-10 * scale:
        raise ValueError("eigenoperator blocks do not sum back to the coupling")
    hscale = max(np.linalg.norm(H, 2), 1.0)
    for w, B in dec.blocks.items():
        comm = H @ B - B @ H
        if np.abs(comm + w * B).max() > 1e-10 * hscale * max(np.abs(B).max(), 1e-300) * 10:
            raise ValueError(f"block at {w} is not an eigenoperator")
        if -w in dec.blocks:
            if np.abs(dec.blocks[-w] - B.conj().T).max() > 1e-10 * scale:
                raise ValueError(f"blocks at +-{w} are not adjoints")


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


def _canonical_jumps(gamma, operators, tol=1e-12):
    """Diagonalize a PSD coupling-space rate matrix into (rate, jump) pairs
    with unit Hilbert-Schmidt-norm jumps."""
    w, U = np.linalg.eigh((gamma + gamma.conj().T) / 2.0)
    scale = max(abs(w).max(), 1e-300)
    if w.min() < -1e-9 * scale:
        raise ValueError(f"rate matrix has negative eigenvalue {w.min():.3e}")
    jumps = []
    for m in range(len(w)):
        if w[m] <= tol * scale:
            continue
        W = sum(np.conj(U[l, m]) * operators[l] for l in range(len(operators)))
        norm = np.sqrt(np.trace(W.conj().T @ W).real)
        if norm < 1e-14:
            continue
        jumps.append((float(w[m]) * norm**2, W / norm))
    return jumps


def davies_generator(system, bath, alpha=1.0, bin_tol=None, n_nodes=2048,
                     shift=True):
    """Assemble the weak-coupling (Davies) generator of a system-bath model.

    Builds the Bohr decomposition of every coupling, evaluates the rate and
    shift matrices per frequency block, forms
    H = H_A + alpha^2 H_LS with H_LS = sum_w sum_kl S_kl(w) A_k(w)^dag A_l(w)
    and the dissipator alpha^2 sum_w sum_kl gamma_kl(w) [A_l(w) . A_k(w)^dag
    - (1/2){A_k(w)^dag A_l(w), .}], the latter returned in canonical
    diagonalized form.  Near-colliding Bohr bins trigger a degeneracy warning
    (the secular approximation is the caller's responsibility there).
    """
    n = system.dim
    pattern = system.coupling_pattern
    decs, freqs = _bohr_blocks(system, bin_tol)
    _warn_near_degenerate(freqs, decs[0].bin_tol if decs else 0.0)
    alpha2 = float(alpha) ** 2
    H_LS = np.zeros((n, n), dtype=complex)
    per_frequency = {}
    jumps = []
    for w in freqs:
        idx = [k for k, d in enumerate(decs) if w in d.blocks]
        ops = [decs[k].blocks[w] for k in idx]
        gamma_full = bath_rates(bath, w, pattern, n_couplings=len(system.couplings))
        gamma = gamma_full[np.ix_(idx, idx)]
        if shift:
            shift_full = lamb_shift(bath, w, pattern, n_nodes=n_nodes,
                                    n_couplings=len(system.couplings))
            S = shift_full[np.ix_(idx, idx)]
        else:
            S = np.zeros((len(idx), len(idx)), dtype=complex)
        per_frequency[w] = FrequencyBlock(w, idx, ops, gamma, S)
        for a, k in enumerate(idx):
            for b, l in enumerate(idx):
                H_LS += S[a, b] * ops[a].conj().T @ ops[b]
        jumps.extend((alpha2 * g, V) for g, V in _canonical_jumps(gamma, ops))
    H_LS = (H_LS + H_LS.conj().T) / 2.0
    hscale = max(np.linalg.norm(system.H, 2), 1.0)
    if np.abs(system.H @ H_LS - H_LS @ system.H).max() > 1e-8 * hscale * max(
            np.abs(H_LS).max(), 1e-300):
        raise ValueError("Lamb-shift Hamiltonian does not commute with H_A")
    base = GKSLGenerator(H=system.H + alpha2 * H_LS, jumps=jumps)
    return DaviesGenerator(base=base, lamb_shift=H_LS, per_frequency=per_frequency,
                           alpha=float(alpha), system=system, bath=bath)


def _warn_near_degenerate(freqs, bin_tol):
    for w1, w2 in zip(freqs, freqs[1:]):
        gap = w2 - w1
        if 0 < gap < 1e3 * max(bin_tol, 1e-300):
            warnings.warn(
                f"Bohr frequencies {w1:.6g} and {w2:.6g} nearly collide "
                f"(gap {gap:.3e}); secular approximation may be invalid",
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
