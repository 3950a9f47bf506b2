"""Single-excitation transition amplitudes and perfect-state-transfer detection.

The amplitude for an excitation to travel from site s to site r in time t is
f_{r,s}(t) = sum_j U_{rj} U_{sj} exp(-i t e_j).  Because column m-j and column
m+j+1 of U differ only by site-parity signs, the sum folds onto the positive
mode frequencies, which yields parity-split closed forms: a cosine kernel when
r+s is even (real amplitude) and an i*sine kernel when r+s is odd (purely
imaginary amplitude).  The even/even and odd/even cases fix the other two by
the same fold, exchanging polynomial families with site parity.

The end-to-end amplitude f_{N,0}(t) = -i sum_j c_j sin(omega_j t) is a sine
sum whose weights c_j and frequencies omega_j depend only on the chain.  Each
such kernel is built once per spec and cached, so a time grid costs one
sin(outer(t, omega)) @ c product and a single time one short dot product.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chain import ChainSpec, EigenSystem, _family_tables, _readonly, mode_frequencies
from .special import log_pochhammer, q_pochhammer

__all__ = [
    "CorrelationSample",
    "PSTResult",
    "RationalWindow",
    "correlation",
    "correlation_matrix",
    "correlation_closed_form",
    "end_to_end",
    "amplitude_at_halfpi",
    "amplitude_at_pi",
    "pst_condition",
    "q_end_to_end",
    "pst_scan",
]

_BETA_MATCH_TOL = 1e-14
_FOLD_AGREEMENT = 1e-12
_FORM_AGREEMENT = 1e-10
_AMP_BOUND = 1.0 + 1e-10


@dataclass(frozen=True)
class CorrelationSample:
    """Transition amplitude f_{r,s}(t) with its coordinates."""

    r: int
    s: int
    t: float
    amplitude: complex

    def __post_init__(self):
        if not abs(self.amplitude) <= _AMP_BOUND:
            raise ValueError(f"amplitude modulus {abs(self.amplitude)} exceeds the unitarity bound")

    @property
    def modulus(self) -> float:
        return abs(self.amplitude)


@dataclass(frozen=True)
class PSTResult:
    """End-to-end transfer quality at one instant."""

    time: float
    modulus: float
    is_perfect: bool

    def __post_init__(self):
        if not 0.0 <= self.modulus <= _AMP_BOUND:
            raise ValueError(f"modulus {self.modulus} outside [0, 1]")


@dataclass(frozen=True)
class RationalWindow:
    """Rational transfer condition 2*alpha+1 = 2l/(2k+1) and its time (2k+1)pi/2."""

    k: int
    l: int
    time: float


def _check_site(r, n_sites):
    if not 0 <= r < n_sites:
        raise ValueError(f"site index {r} outside [0, {n_sites - 1}]")


def _check_time(t):
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")


def correlation(es: EigenSystem, r: int, s: int, t: float) -> CorrelationSample:
    """Amplitude by direct eigen-expansion, cross-checked against the folded sum.

    The folded form pairs column m-j with column m+j+1; both evaluations must
    agree to 1e-12 or the eigensystem is inconsistent.
    """
    n = es.dimension
    _check_site(r, n)
    _check_site(s, n)
    _check_time(t)
    phases = np.exp(-1j * t * es.eigenvalues)
    direct = complex(np.dot(es.U[r] * es.U[s], phases))
    m = n // 2 - 1
    cols = np.arange(m, -1, -1)  # m-j for j = 0..m
    prod = es.U[r, cols] * es.U[s, cols]
    lam = es.eigenvalues[cols]
    sign = 1.0 if (r + s) % 2 == 0 else -1.0
    folded = complex(np.dot(prod, np.exp(-1j * t * lam) + sign * np.exp(1j * t * lam)))
    if abs(direct - folded) > _FOLD_AGREEMENT * max(1.0, abs(direct)):
        raise ArithmeticError(
            f"direct and folded amplitudes disagree: {direct} vs {folded}")
    return CorrelationSample(r, s, t, direct)


def correlation_matrix(es: EigenSystem, t: float) -> np.ndarray:
    """All amplitudes at once: F(t) = U exp(-i t D) U^T (unitary)."""
    _check_time(t)
    phases = np.exp(-1j * t * es.eigenvalues)
    return (es.U * phases[None, :]) @ es.U.T


@lru_cache(maxsize=128)  # the specs whose two tables the 256-entry table caches hold
def _profile_tables(spec: ChainSpec):
    """The orthonormal tables of the even-site and odd-site families."""
    return _family_tables(spec)


def _mode_profile(spec: ChainSpec, site: int) -> np.ndarray:
    """g_site(j) with U_{site, m-j} = g_site(j)/sqrt(2): signed orthonormal values."""
    k, odd = divmod(site, 2)
    sign = -1.0 if odd else 1.0
    return sign * (-1.0) ** k * _profile_tables(spec)[odd][:, k]


def correlation_closed_form(spec: ChainSpec, r: int, s: int, t: float) -> CorrelationSample:
    """Amplitude from the parity-split closed form.

    f = sum_j g_r(j) g_s(j) * cos(omega_j t)          (r+s even)
    f = sum_j g_r(j) g_s(j) * i sin(omega_j t)        (r+s odd)

    where g carries the site-parity signs and the matching polynomial family.
    The even/odd and odd/odd kernels follow from the same fold of the
    eigen-expansion as the two cases spelled out above.
    """
    n_sites = 2 * spec.m + 2
    _check_site(r, n_sites)
    _check_site(s, n_sites)
    _check_time(t)
    w = mode_frequencies(spec)
    gr = _mode_profile(spec, r)
    gs = gr if s == r else _mode_profile(spec, s)
    if (r + s) % 2 == 0:
        amp = complex(np.dot(gr * gs, np.cos(w * t)))
    else:
        amp = 1j * float(np.dot(gr * gs, np.sin(w * t)))
    return CorrelationSample(r, s, t, amp)


def _sine_sum(kernel, t):
    """sum_j c_j sin(omega_j t) at a scalar t, or over a grid as one
    sin(outer(t, omega)) @ c product."""
    c, w = kernel
    return np.dot(np.sin(np.asarray(t)[..., None] * w), c)


@lru_cache(maxsize=256)
def _general_kernel(spec: ChainSpec):
    """(c, omega) of the general end-to-end sine sum, omega the mode frequencies."""
    m, a, b = spec.m, spec.alpha, spec.beta
    lg = math.lgamma
    lpref = 0.5 * (log_pochhammer(b, m + 1) + log_pochhammer(a + 1.0, m + 1))
    w = mode_frequencies(spec)
    c = np.empty(m + 1)
    for j in range(m + 1):
        lnum = lg(m + 1.0) - lg(m - j + 1.0)
        lden = log_pochhammer(j + a + b + 1.0, m + 1) + lg(j + 1.0)
        coef = (2 * j + a + b + 1.0) * (-1.0) ** (m + j) * math.exp(lpref + lnum - lden)
        c[j] = coef / (0.5 * w[j])
    return _readonly(c), w


@lru_cache(maxsize=256)
def _collapsed_kernel(spec: ChainSpec):
    """(c, omega) of the 2F1-type sum that the general one collapses to when
    beta = alpha + 1, with omega_j = 2(alpha + j + 1)."""
    m, a = spec.m, spec.alpha
    ratio = math.exp(log_pochhammer(a + 1.0, m + 1) - log_pochhammer(2.0 * a + 2.0, m + 1))
    terms = [1.0]
    for j in range(m):
        terms.append(terms[-1] * (j - m) * (j + 2.0 * a + 2.0)
                     / ((j + 1.0) * (j + 2.0 * a + m + 3.0)))
    c = 2.0 * (-1.0) ** m * ratio * np.array(terms)
    return _readonly(c), _readonly(2.0 * (a + np.arange(m + 1) + 1.0))


def _sine_sum_2f1(m: int, a: float, t):
    """End-to-end amplitude for beta = alpha + 1 from the 2F1-type sum alone,
    at a scalar t or over a grid."""
    return -1j * _sine_sum(_collapsed_kernel(ChainSpec(m, a, a + 1.0)), t)


def _end_to_end_sum(spec: ChainSpec, t):
    """S with f_{N,0}(t) = -i S, at a scalar t or over a grid.

    For beta = alpha + 1 (to 1e-14) the collapsed 2F1 form is returned, after
    it is checked against the general form at every t.
    """
    s = _sine_sum(_general_kernel(spec), t)
    if abs(spec.beta - (spec.alpha + 1.0)) > _BETA_MATCH_TOL:
        return s
    s4 = _sine_sum(_collapsed_kernel(spec), t)
    bad = abs(s - s4) > _FORM_AGREEMENT * np.maximum(1.0, abs(s))
    if bad.any():
        i = int(np.argmax(bad))
        s, s4, t = np.atleast_1d(s, s4, t)
        raise ArithmeticError(f"general and collapsed end-to-end forms disagree at "
                              f"t = {t[i]}: {-1j * s[i]} vs {-1j * s4[i]}")
    return s4


def end_to_end(spec: ChainSpec, t: float) -> CorrelationSample:
    """Amplitude f_{N,0}(t) between the chain ends, by its dedicated closed form.

    For general (alpha, beta) the amplitude is a single weighted sine sum over
    the mode frequencies.  When beta = alpha + 1 (to 1e-14) the sum collapses
    to a Gauss-type 2F1 form, which is evaluated and cross-checked against the
    general expression before being returned.
    """
    if spec.q is not None:
        raise ValueError("end_to_end applies to the undeformed chain; see q_end_to_end")
    _check_time(t)
    return CorrelationSample(2 * spec.m + 1, 0, t, -1j * float(_end_to_end_sum(spec, t)))


def _require_shifted_beta(spec: ChainSpec):
    if spec.q is not None:
        raise ValueError("closed-form special times apply to the undeformed chain")
    if abs(spec.beta - (spec.alpha + 1.0)) > _BETA_MATCH_TOL:
        raise ValueError(f"requires beta = alpha + 1; got alpha={spec.alpha}, beta={spec.beta}")


def amplitude_at_halfpi(spec: ChainSpec) -> complex:
    """f_{N,0}(pi/2) for beta = alpha + 1: i (-1)^m sin(pi alpha)."""
    _require_shifted_beta(spec)
    return 1j * (-1.0) ** spec.m * math.sin(math.pi * spec.alpha)


def amplitude_at_pi(spec: ChainSpec) -> complex:
    """f_{N,0}(pi) for beta = alpha + 1, in closed form."""
    _require_shifted_beta(spec)
    m, a = spec.m, spec.alpha
    lg = math.lgamma
    val = math.exp(log_pochhammer(a + 1.0, m + 1)
                   + (lg(2.0 * m + 1.0) - lg(m + 1.0))
                   - log_pochhammer(2.0 * a + 2.0, 2 * m + 1))
    return -2j * math.sin(2.0 * math.pi * a) * (-1.0) ** m * val


def pst_condition(alpha: float, tolerance: float = 1e-12,
                  max_denominator: int = 64) -> RationalWindow | None:
    """Smallest (k, l) with 2*alpha+1 = 2l/(2k+1), scanning odd denominators.

    Returns the window with its transfer time (2k+1)pi/2, or None when no
    rational match exists within the denominator bound.  ValueError unless
    alpha > -1 with 2*alpha+1 finite, and 0 <= tolerance < inf.
    """
    target = 2.0 * alpha + 1.0
    if not (alpha > -1.0 and math.isfinite(target)):
        raise ValueError(f"alpha must exceed -1 with 2*alpha+1 finite, got {alpha}")
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must lie in [0, inf), got {tolerance}")
    k = 0
    while 2 * k + 1 <= max_denominator:
        l = round(target * (2 * k + 1) / 2.0)
        if l >= 0 and abs(target - 2.0 * l / (2 * k + 1)) <= tolerance:
            return RationalWindow(k, int(l), (2 * k + 1) * math.pi / 2.0)
        k += 1
    return None


@lru_cache(maxsize=256)
def _q_kernel(spec: ChainSpec):
    """(c, omega) of the deformed closed form for beta = q*alpha."""
    if spec.q is None:
        raise ValueError("q_end_to_end requires a deformed chain spec")
    if abs(spec.beta - spec.q * spec.alpha) > _BETA_MATCH_TOL:
        raise ValueError(f"requires beta = q*alpha; got beta={spec.beta}, q*alpha={spec.q * spec.alpha}")
    m, a, q = spec.m, spec.alpha, spec.q
    pref = q ** (m / 2.0) * a ** (m / 2.0) * q_pochhammer(a * q, q, m + 1)
    c = np.empty(m + 1)
    w = np.empty(m + 1)
    for j in range(m + 1):
        w[j] = 2.0 * (1.0 - a * q ** (j + 1)) * q ** ((m - j) / 2.0)
        c[j] = ((-1.0) ** (m + j) * pref
                * q ** (j * j / 2.0)
                * q_pochhammer(q ** (m - j + 1), q, j)
                * (1.0 + a * q ** (j + 1))
                / (q_pochhammer(a * a * q ** (j + 2), q, m + 1) * q_pochhammer(q, q, j)))
    return _readonly(c), _readonly(w)


def _q_closed_form(spec: ChainSpec, t):
    """q_end_to_end at a scalar t, or over a grid as a complex array."""
    return -1j * _sine_sum(_q_kernel(spec), t)


def q_end_to_end(spec: ChainSpec, t: float) -> complex:
    """End-to-end amplitude of the deformed chain for beta = q*alpha, closed form.

    Note the overall sign: the prefactor is -i(-1)^m; the +i(-1)^m variant
    fails against the eigen-expansion for every m (checked in high precision).
    """
    _check_time(t)
    return complex(_q_closed_form(spec, t))


@lru_cache(maxsize=256)
def _fold_kernel(spec: ChainSpec):
    """(c, omega) of the eigen-expansion of f_{N,0} folded onto the positive
    frequencies: columns m-j and m+j+1 pair up, so
    f = 2i sum_j U[N, m-j] U[0, m-j] sin(omega_j t), read from the mode
    profiles as U[site, m-j] = g_site(j)/sqrt(2)."""
    c = -_mode_profile(spec, 2 * spec.m + 1) * _mode_profile(spec, 0)
    return _readonly(c), mode_frequencies(spec)


def pst_scan(spec: ChainSpec, t_grid, tolerance: float = 1e-9) -> list[PSTResult]:
    """End-to-end transfer modulus over a time grid, flagged against 1 - tolerance.

    The undeformed chain uses the dedicated end-to-end closed form; the
    deformed chain uses the folded eigen-expansion.  Either way the grid is
    one sine product against the spec's cached kernel.  The grid must be
    finite, nonempty and strictly increasing.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must lie in [0, 1), got {tolerance}")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("time grid must be nonempty")
    non_finite = t_grid[~np.isfinite(t_grid)]
    if non_finite.size:
        _check_time(non_finite[0])
    if t_grid.size > 1 and not np.all(np.diff(t_grid) > 0.0):
        raise ValueError("time grid must be strictly increasing")
    if spec.q is None:
        moduli = np.abs(_end_to_end_sum(spec, t_grid))
    else:
        moduli = np.abs(_sine_sum(_fold_kernel(spec), t_grid))
    return [PSTResult(t, mod, mod >= 1.0 - tolerance)
            for t, mod in zip(t_grid.tolist(), moduli.tolist())]
