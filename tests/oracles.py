"""Reference integrators, limits and closed forms used only by the tests.

First come a model's adiabatic levels and nonadiabatic coupling, which
no library route calls: the propagator evaluates both from
``model.level`` in its own batched form.

The integrators here step with scipy's solve_ivp DOP853, while the
library solves by vectorized Gauss-Legendre collocation: a test that
compares the two compares two integration methods as well as two
formulations.  The closed
forms at the end are special cases of library routes, written out
separately so that a test compares two derivations.  Last come the
closed forms of `levelcross.ddp` and `levelcross.znt` without their
memoised per-N constants, and the propagator's series power and trace
readout rows as single-exponent and Legendre-basis references.  The
plain forms of its trimmed kernels end the file: the tail series with
every series product taken to full order, and the Picard iteration with
both changes taken at every sweep and real collocation matrices.
"""

import cmath
import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.special import airy

from levelcross.errors import LevelCrossError, ToleranceFailure
from levelcross.znt import double_crossing_probability, tunneling_probability
from levelcross.models import DiabaticModel, check_glancing
import levelcross.propagator as propagator
from levelcross.propagator import PropagatorSettings, _mixing_half_angle, _tail_point

EULER_GAMMA = 0.5772156649015328606

# Phase coefficient of the parabolic glancing model, sigma = delta = c alpha^(3/2);
# equals sqrt(2) * nu_2 (checked to 1e-10 in the tests).
PARABOLIC_C = math.sqrt(math.pi) * math.gamma(0.25) / (3.0 * math.sqrt(2.0) * math.gamma(0.75))


class NonSimpleZero(LevelCrossError):
    """Residue extrapolation did not stabilize; the supplied point is not
    a simple zero of the squared adiabatic gap."""


def adiabatic_levels(model: DiabaticModel, t: float) -> tuple[float, float]:
    """Instantaneous eigenvalues (lower, upper) = (-W, +W)."""
    w = math.hypot(model.level(t)[0], model.V)
    return -w, w


def nonadiabatic_coupling(model: DiabaticModel, t: complex) -> complex:
    """gamma(t) = (V deps/dt - eps dV/dt) / (2 (eps^2 + V^2)).

    The coupling V is constant, so this is V deps/dt / (2 W^2); at a
    complex t it is the analytic continuation.
    """
    eps, deps = model.level(t)
    v = model.V
    w2 = eps * eps + v * v
    if w2 == 0.0:
        raise ValueError(f"adiabatic gap vanishes at t={t!r}")
    return v * deps / (2.0 * w2)


def phase_half(model: DiabaticModel, t_core: float) -> float:
    """Lam(t_core) = int_0^{t_core} W dt, by quadrature."""
    val, _ = quad(
        lambda t: math.hypot(model.level(t)[0], model.V),
        0.0,
        t_core,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=200,
    )
    return val


def interaction_rhs(model: DiabaticModel):
    """The propagator's interaction-picture equations on a complex state
    (b+, b-, Lam): db+/dt = -g e^{2i Lam} b-, db-/dt = g e^{-2i Lam} b+,
    dLam/dt = W, written independently of the library's real state layout."""
    v = model.V

    def rhs(t, y):
        eps, deps = model.level(t)
        s = eps * eps + v * v
        g = 0.5 * v * deps / s
        ph = cmath.exp(2j * y[2])
        return (-g * ph * y[1], g * y[0] / ph, math.sqrt(s))

    return rhs


def propagate_diabatic(
    model: DiabaticModel,
    settings: PropagatorSettings = PropagatorSettings(),
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> float:
    """Cross-check integrator in the plain diabatic basis.

    Same window, but the ODE carries the full
    dynamical phase, i dc/dt = H c with H = [[eps, V], [V, -eps]], over
    the whole window [-T, T] with no use of the time symmetry that lets
    the primary route solve only [0, T]; Lam(T) comes from a quadrature,
    not from that solve, and the tail J(T) from contour_tail, not from
    the library's tail series.  Its solve_ivp DOP853 stepper shares no
    code with the library's collocation solve, and rtol and atol are its
    own tolerances: only the window comes from settings.
    """
    t_core, _ = _tail_point(model, settings.tail_tol)
    lam_half = phase_half(model, t_core)
    coeff = contour_tail(model, t_core)
    j_in = cmath.exp(2j * lam_half) * coeff
    norm = math.sqrt(1.0 + abs(j_in) ** 2)
    bp0, bm0 = j_in.conjugate() / norm, 1.0 / norm
    c_half, s_half = _mixing_half_angle(model, -t_core)
    up = bp0 * cmath.exp(1j * lam_half)  # e^{-i Lam(-T)} = e^{+i lam_half}
    dn = bm0 * cmath.exp(-1j * lam_half)
    y0 = np.array([up * c_half - dn * s_half, up * s_half + dn * c_half], dtype=complex)

    def rhs(t, y):
        eps, v = model.level(t)[0], model.V
        return (-1j * (eps * y[0] + v * y[1]), -1j * (v * y[0] - eps * y[1]))

    sol = solve_ivp(
        rhs,
        (-t_core, t_core),
        y0,
        method="DOP853",
        rtol=rtol,
        atol=atol,
        max_step=t_core / 8.0,
    )
    if not sol.success:
        raise ToleranceFailure(f"step controller failed: {sol.message}")
    c1, c2 = sol.y[0, -1], sol.y[1, -1]
    c_half, s_half = _mixing_half_angle(model, t_core)
    bp = cmath.exp(1j * lam_half) * (c_half * c1 + s_half * c2)
    bm = cmath.exp(-1j * lam_half) * (-s_half * c1 + c_half * c2)
    j_out = cmath.exp(2j * lam_half) * coeff
    bp_inf = (bp - j_out * bm) / math.sqrt(1.0 + abs(j_out) ** 2)
    return min(max(abs(bp_inf) ** 2, 0.0), 1.0)


def contour_tail(model: DiabaticModel, T: float) -> complex:
    """J(T) e^{-2i Lam(T)} = int_T^inf gamma e^{2i (Lam - Lam(T))} dt by
    integration along the steepest-descent path t(s) = (T^m + i s)^(1/m),
    s in [0, 60 m], with m one more than the degree of eps (N + 1 for
    t^N, 3 for the parabolic family), the model's `degree` member.

    On that path 2i (Lam - Lam(T)) ~ -2 s/m for eps ~ t^N, so the integrand
    decays like e^{-2s/m} (like e^{-A s/3} for the parabolic family) instead
    of oscillating.  One complex DOP853 solve in s carries
    phi = Lam - Lam(T) and the integral.  W = eps sqrt(1 + V^2/eps^2) keeps
    the square root on one continuous branch, since the path stays clear
    of the zero points.  Shares no code with the propagator's tail series.
    """
    m = model.degree + 1
    v = model.V

    def rhs(s, y):
        t = (T**m + 1j * s) ** (1.0 / m)
        dt = 1j / (m * t ** (m - 1))
        eps, deps = model.level(t)
        w = eps * cmath.sqrt(1.0 + (v / eps) ** 2)
        gamma = v * deps / (2.0 * w * w)
        return (w * dt, gamma * cmath.exp(2j * y[0]) * dt)

    sol = solve_ivp(rhs, (0.0, 60.0 * m), np.zeros(2, dtype=complex), method="DOP853",
                    rtol=1e-13, atol=1e-30)
    if not sol.success:
        raise ToleranceFailure(f"contour solve failed: {sol.message}")
    return complex(sol.y[1, -1])


def coupling_continued(model: DiabaticModel, z: complex) -> complex:
    # Analytic continuation of the nonadiabatic coupling, with the overall
    # sign fixed by the contour derivation (basis vectors chosen so the
    # residue prefactors alternate starting at -1).  The opposite global
    # sign is used on the real axis by nonadiabatic_coupling above; final
    # probabilities are insensitive to this relative convention.
    return -nonadiabatic_coupling(model, z)


def residue_prefactor(model: DiabaticModel, t_c: complex) -> complex:
    """Gamma = 4i lim_{t->t_c} (t - t_c) gamma(t) by Richardson extrapolation.

    The limit is taken along the ray from t_c toward the origin with
    offsets h_j = 1e-2 |t_c| 2^{-j}, six stages.  For the glancing family
    the result is (-1)^k for the k-th zero.
    """
    radius = abs(t_c)
    if radius == 0.0:
        raise ValueError("t_c must be nonzero")
    u = -t_c / radius
    stages = 6
    tab = []
    for j in range(stages):
        dt = (1e-2 * radius * 2.0**-j) * u
        tab.append(4j * dt * coupling_continued(model, t_c + dt))
    for m in range(1, stages):
        fac = 2.0**m - 1.0
        for i in range(stages - 1, m - 1, -1):
            tab[i] = tab[i] + (tab[i] - tab[i - 1]) / fac
    if abs(tab[-1] - tab[-2]) > 1e-6 * max(1.0, abs(tab[-1])):
        raise NonSimpleZero(
            f"residue extrapolation did not stabilize at t_c={t_c!r}: "
            f"last corrections {abs(tab[-1] - tab[-2]):.3e}"
        )
    return tab[-1]


def born_glancing(N: int, alpha: float) -> float:
    """First-order (Born) P for eps = t^N, V = alpha: P1 = alpha^2 I^2 with
    I = int exp(2i t^m/m) dt = 2 Gamma(1 + 1/m) cos(pi/2m) (2/m)^(-1/m),
    m = N + 1.  Exact as alpha -> 0; shares no code with the propagator."""
    m = N + 1
    integral = (
        2.0 * math.gamma(1.0 + 1.0 / m) * math.cos(math.pi / (2 * m)) * (2.0 / m) ** (-1.0 / m)
    )
    return (alpha * integral) ** 2


def born_parabolic(A: float, B: float, V0: float) -> float:
    """First-order (Born) P for eps = (A t^2 - B)/2, V = V0:
    P1 = 4 pi^2 V0^2 A^(-2/3) Ai(-B A^(-1/3))^2, from
    int exp(i (A t^3/3 - B t)) dt = 2 pi A^(-1/3) Ai(-B A^(-1/3))."""
    ai = airy(-B * A ** (-1.0 / 3.0))[0]
    return 4.0 * math.pi**2 * V0**2 * A ** (-2.0 / 3.0) * ai**2


def box_limit_probability(alpha: float) -> float:
    """The N -> infinity limit P = sin^2(2 alpha) of eps = t^N, V = alpha.

    As N grows, t^N tends to 0 for |t| < 1 and to +infinity for |t| > 1, and
    it rises from ~alpha to >> alpha over a time ~1/N around |t| = 1.
    Outside the box the levels are far apart, and each diabatic state stays
    put, up to a phase.  Inside, H ~ alpha sigma_x acts for a time 2, and the
    switches at t = -1 and t = 1 are sudden.  So the state |2> (the lower
    adiabatic state at both ends, since eps > 0 there for even N) becomes
    e^{-2i alpha sigma_x}|2> = cos(2 alpha)|2> - i sin(2 alpha)|1>, and the
    transition probability is sin^2(2 alpha).  Shares no code with any route.
    """
    return math.sin(2.0 * alpha) ** 2


def ddp_parabolic_closed_form(alpha: float) -> float:
    """P = 4 e^{-2 c alpha^(3/2)} sin^2(c alpha^(3/2)) for the parabolic glancing model."""
    if not (0.0 < alpha < math.inf):
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    x = PARABOLIC_C * alpha**1.5
    return 4.0 * math.exp(-2.0 * x) * math.sin(x) ** 2


def ddp_single_zero(eta: float, N: int) -> float:
    """Dominant-zero truncation e^{-2 eta sin(pi/(2N))} (adiabatic-limit form)."""
    check_glancing(N, eta, "eta")
    return math.exp(-2.0 * eta * math.sin(math.pi / (2 * N)))


def single_passage_parabolic(alpha: float) -> float:
    """Single-passage probability of the parabolic glancing model in alpha form."""
    if not (alpha > 0.0):
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    return math.exp(
        -(math.pi * alpha**1.5 / math.sqrt(2.0)) * (0.1 * alpha**-3 + 0.7) ** -0.25
    )


def glancing_eta_unmemoised(N: int, alpha: float) -> float:
    """eta = 2 nu_N alpha^((N+1)/N), with nu_N = B(1/(2N), 3/2)/(2N) taken
    through log-Gamma on every call: the arithmetic of ddp.glancing_eta
    without its memo, for an int N."""
    check_glancing(N, alpha)
    x = 1.0 / (2.0 * N)
    nu = math.exp(math.lgamma(x) + math.lgamma(1.5) - math.lgamma(x + 1.5)) / (2.0 * N)
    return 2.0 * nu * alpha ** ((N + 1.0) / N)


def ddp_probability_unmemoised(N: int, alpha: float) -> float:
    """ddp.ddp_probability with every angle's sine and cosine taken on each call."""
    eta = glancing_eta_unmemoised(N, alpha)
    acc = 0.0
    for k in range(1, N // 2 + 1):
        th = math.pi * (2 * k - 1) / (2 * N)
        term = math.exp(-eta * math.sin(th)) * math.sin(eta * math.cos(th))
        acc += -term if k % 2 else term
    p = 4.0 * acc * acc
    if p > 1.0 + 1e-9:
        raise ValueError(f"coherent sum gave P={p!r} > 1 at N={N}, alpha={alpha}")
    return min(p, 1.0)


def _dominant_phase_unmemoised(N: int, alpha: float) -> complex:
    return cmath.rect(glancing_eta_unmemoised(N, alpha), math.pi / (2 * N))


def glancing_double_crossing_unmemoised(N: int, alpha: float) -> float:
    """znt.glancing_double_crossing from the N = 2 reduction a^2 = 1/(4 alpha^3),
    b^2 = 0, written out here, and an unmemoised sigma + i delta."""
    d = _dominant_phase_unmemoised(N, alpha)
    return double_crossing_probability(1.0 / (4.0 * alpha**3), 0.0, d.real, d.imag)


def glancing_tunneling_unmemoised(N: int, alpha: float) -> float:
    """znt.glancing_tunneling from a^2 = 1/(4 alpha^3), written out here, and
    an unmemoised sigma + i delta."""
    d = _dominant_phase_unmemoised(N, alpha)
    return tunneling_probability(1.0 / (4.0 * alpha**3), d.real, d.imag)


def power_series(a: np.ndarray, p: float) -> np.ndarray:
    """The Taylor series of a^p (first axis the order), one exponent at a
    time, from k a_0 b_k = sum_{j=1..k} ((p+1) j - k) a_j b_{k-j}."""
    b = np.empty_like(a)
    b[0] = a[0] ** p
    j = np.arange(1, len(a), dtype=float).reshape((-1,) + (1,) * (a.ndim - 1))
    for k in range(1, len(a)):
        b[k] = (((p + 1.0) * j[:k] - k) * a[1 : k + 1] * b[k - 1 :: -1]).sum(axis=0) / (k * a[0])
    return b


def legendre_integration_rows(y: np.ndarray, m: int) -> np.ndarray:
    """For each y in [-1, 1], the row that integrates values at the m
    Gauss-Legendre nodes from -1 to y, through the Legendre coefficients
    of the interpolant's antiderivative: legvander(y, m) @ K."""
    leg = np.polynomial.legendre
    x, w = leg.leggauss(m)
    to_coeffs = (np.arange(m) + 0.5)[:, None] * leg.legvander(x, m - 1).T * w
    return leg.legvander(y, m) @ leg.legint(to_coeffs, lbnd=-1)


def series_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two truncated Taylor series at the same points, to the
    shorter length, every order of both included."""
    n = min(len(a), len(b))
    c = a[0] * b[:n]
    for j in range(1, n):
        c[j:] += a[j] * b[: n - j]
    return c


def tail_series_full(eps: np.ndarray, v) -> np.ndarray:
    """The tail terms u_0 .. u_7 of propagator._tail_series, with its two
    products with eps taken to full order, over the orders past the
    level's degree (exact zeros) too."""
    n = len(eps) - 1
    s = series_product(eps[:n], eps[:n])
    s[0] += v * v
    inv_w, inv_w3 = propagator._powers(s)
    u = 0.25 * v * series_product(propagator._shift(eps), inv_w3)
    half_inv_w = 0.5 * inv_w
    terms = [u[0]]
    while len(u) > 1:
        u = series_product(propagator._shift(u), half_inv_w)
        terms.append(u[0])
    return np.array(terms)


def step_maps_two_sided(half: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, ...]:
    """propagator._step_maps on the steps of one member, iterated together
    until their largest change is within the tolerance, with the largest
    change of both a and b taken at every Picard sweep and the real
    collocation matrices, which numpy casts to complex at every product."""
    _, weights, _, integrate = propagator._collocation()
    hf = half[:, None] * f
    hfc = hf.conj()
    b = hfc @ integrate
    a = 1.0 - (hf * b) @ integrate
    for _ in range(propagator._PICARD_ITERATIONS - 1):
        b_next = (hfc * a) @ integrate
        a_next = 1.0 - (hf * b_next) @ integrate
        change = max(np.abs(a_next - a).max(), np.abs(b_next - b).max())
        a, b = a_next, b_next
        if change <= propagator._PICARD_TOL:
            break
    else:
        raise ToleranceFailure(f"collocation iteration did not converge in {propagator._PICARD_ITERATIONS} "
                               f"sweeps (last change {change!r})")
    return 1.0 - (hf * b * weights).sum(axis=1), (hfc * a * weights).sum(axis=1), a, b
