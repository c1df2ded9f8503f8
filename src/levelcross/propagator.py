"""Exact propagation of the two-level time-dependent Schrodinger equation.

The working frame is the adiabatic interaction picture: with
Lam(t) = int_0^t W, W = sqrt(eps^2 + V^2), the amplitudes on the upper
and lower instantaneous levels obey

    db+/dt = -gamma(t) e^{+2i Lam} b-,
    db-/dt = +gamma(t) e^{-2i Lam} b+,

so the integrand decays like the coupling (t^-(N+1)) instead of
oscillating with the full dynamical phase.  In matrix form db/dt = M b
with M = [[0, -gamma e^{2i Lam}], [gamma e^{-2i Lam}, 0]], which is
traceless and anti-Hermitian.  Every model is even in time (eps even, V
constant), so gamma and Lam are odd and M(-t) = M(t)^T; hence
U(-s, 0) = conj(U(s, 0)) and U(0, -T) = U(T, 0)^T.  One solve from
(1, 0) with Lam(0) = 0 over [0, T] gives U = U(T, 0) = [[a, -b*], [b, a*]]
in SU(2), and the whole window [-T, T] maps by U U^T.  Beyond it the
remaining coupling integral

    J(T) = int_T^inf gamma e^{2i Lam} dt
         = e^{2i Lam(T)} sum_{m < 6} (-1)^(m+1) v_m + O(v6),
    v0 = gamma/(2iW),  v_{m+1} = v_m' / (2iW),

is summed by repeated integration by parts (a superadiabatic series,
Berry 1990), with Lam(T) from the same solve's quadrature.  The
terms are v_m = (-i)^(m+1) u_m with u_m real, u_0 = V eps'/(4 W^3) and
u_{m+1} = u_m'/(2W); one Taylor-mode recursion (Griewank & Walther 2008,
ch. 13) gets them all from the exact Taylor coefficients of eps at T by
series product, power and shift (the two products with eps skip its
orders past the level's degree, exact zeros that would add only zeros
last), so J(T) = e^{2i Lam(T)} sum_{m < 6} i^(m+1) u_m.  Its error, the omitted
sum_{m >= 6} i^(m+1) u_m, is hypot(u_6, u_7) to leading order: computed
from the next two terms, not estimated from ratios.  The window ends at
the handover t_core: the first point of a x1.01 grid from the floor past
the level structure where the terms already decrease,
|u_0| > ... > |u_6|, and that error is at most settings.tail_tol, the
one handover rule (see _tail_points, which scans a batch at once).  J
completes the window through one exactly unitary factor,

    C(J) = [[1, -J], [conj(J), 1]] / sqrt(1+|J|^2),

which carries the amplitudes from T to +inf; gamma odd and Lam odd give
int_{-inf}^{-T} gamma e^{2i Lam} = -conj(J(T)), so C(J)^T carries them
from -inf to -T.  Hence V = C(J) U = [[alpha, -beta*], [beta, alpha*]] is
U(+inf, 0), the whole line maps by S = V V^T, and starting from the lower
level at -inf the state at t = 0 is V^T (0, 1) = (beta, alpha*).  Since
eps -> +inf at both ends while V stays constant, the upper adiabatic
label coincides asymptotically with diabatic state 1, so the transition
probability read in the diabatic basis is |S_12|^2 = 4 (Im alpha beta)^2,
which is 4 p (1 - p) sin^2 psi with the single-passage p = |beta|^2 and
the phase psi = arg(alpha beta).

M depends on t alone, not on the state, and so does Lam, so the solve
evaluates every coupling value it needs in a few numpy passes before any
state exists.  It splits [0, T] into steps of _NODES = 32 Gauss-Legendre
nodes, first at every eighth of the window, and evaluates W and gamma at
all their nodes in one pass.  Lam - Lam(start) at a step's nodes comes
from the spectral integration matrix of the interpolant of W, and the
step's whole integral of W from Gauss-Legendre quadrature; their
cumulative sum gives Lam at each step's start.  With h the step's width,
a step is resolved when

    h (|f_30| + |f_31|) <= tail_tol,

where f_30 and f_31 are the trailing Legendre coefficients of
f = gamma e^{2i (Lam - Lam(start))} on the step: they bound the error of
its interpolated coupling, and so the amplitude error the step leaves.
The phase needs no test of its own: W is smoother than f, whose trailing
coefficients already grow with the phase the step turns through.  One
tolerance thus stands behind both parts of the solve's error: the
tail omits at most tail_tol and each accepted step adds at most tail_tol,
so the amplitude error is at most (n_steps + 1) tail_tol, and in practice
far below it (the trailing coefficients overstate the error of a
converged interpolant).  Steps that fail are bisected, and only the new
halves are evaluated again.  h |f| shrinks with h, but the trailing
coefficients carry the rounding of f, so bisection ends only for a
tail_tol above that rounding: PropagatorSettings refuses one below 1e-17.
On every resolved step, a' = -f b, b' = conj(f) a is solved from (1, 0)
at once by Picard iteration to convergence: the Gauss collocation
solution (Hairer, Norsett & Wanner 1993, sec. II.7), of order
2 x 32 = 64 at the step's end.  The steps of one model sweep until
their largest change of a and b is within the tolerance, and no
further; a sweep reads the full change only once that of b at the steps'
last nodes, which is at most the full one, is within the tolerance.
The steps chain as SU(2) matrices [[a, -b*], [b, a*]] (b rotated by
e^{-2i Lam(start)}), and their prefix products give U(t, 0) at every step
end.  Between the ends the collocation polynomials give dense output,
read off the step that holds each time, which leaves the steps, nfev
and n_steps of the solve as they are.  A trace solves past t_core, to
where the mixing angle is small, and reads U(t, 0) and Lam(t) at each
sample |t| and at t_core, where the tail completes it as in propagate.
nfev counts the coupling evaluations, those on rejected steps
included; a solve that would need more than _MAX_NODES of them raises
NonConvergence before it allocates them.

One solve can cover a batch of models, as a sweep's numeric column does:
their steps share the passes, each step is accepted on its own, each
model's Picard iteration stops on its own, and every sum over a step's
nodes reads that step's row alone.  So every model gets the steps, nfev
and n_steps of a lone solve, and its whole result wherever the BLAS
rounds a row of a matrix product alike whatever rows share the product
(as OpenBLAS on x86-64 did for products of two rows or more).  A batch
is one level: its models are of one family with equal level_key (N, or
(A, B)) and differ only in V, so the handover scan and the solve
evaluate the level once per pass, on the rows of all its models, with V
taken per row.  The node cap covers the whole batch.  _propagate_batch
alone groups models by level, batches each group, and returns each
model's result or failure in input order.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import numbers
from collections.abc import Sequence

import numpy as np

from .errors import _FAILURES, NonConvergence, ToleranceFailure, _attempt
from .models import DiabaticModel, PropagationResult, PropagatorSettings

# Gauss-Legendre nodes per collocation step
_NODES = 32

# coupling evaluations allowed in one solve of a batch, checked before each
# pass allocates its nodes, and the steps one pass evaluates (which bounds
# its memory).  The largest working lone solve measured, N=50 at alpha=10,
# takes 14,144 and a sweep's batch of 1024 acceptance-grid models 0.34-0.42
# million; a window that would need far more (N=2 at alpha=1e6) fails
# within seconds instead of running on
_MAX_NODES = 1 << 22
_PASS_STEPS = 1 << 13

# the equal steps each window starts as, before any is bisected
_FIRST_STEPS = 8

# Picard sweeps allowed per solve, and the change in the node values at
# which they have converged
_PICARD_ITERATIONS = 64
_PICARD_TOL = 1e-15

__all__ = [
    "PropagatorSettings",
    "PropagationResult",
    "propagate",
    "propagate_trace",
]


def __getattr__(name: str):
    # levelbench/spans.py wraps propagator.quad and propagator.solve_ivp by
    # name, though no propagation calls either: resolve the two on demand,
    # so that importing the package loads no scipy.  Delete this with those
    # seams.
    if name in ("quad", "solve_ivp"):
        import scipy.integrate

        return getattr(scipy.integrate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# J sums the tail terms u_0 .. u_5.  Over every frozen benchmark point, six
# terms with the 1.2 alpha^(1/N) floor (N <= 50) keep P within 3.4e-11 of the
# references; seven terms reached 5.6e-11 and eight 1.5e-10, as roundoff
# in the higher derivatives grows
_TAIL_TERMS = 6

# i^(m+1) for the terms summed into J
_TAIL_PHASES = tuple(1j ** (m + 1) for m in range(_TAIL_TERMS))

# Taylor orders of eps that the tail terms need: u_0 takes eps' to order
# _TAIL_TERMS + 1, and each later term is one order shorter
_EPS_ORDERS = _TAIL_TERMS + 3

# the handover scan's grid step: each point is 1.01 times the one before
_SCAN_STEP = 1.01

# the handover scan's grid points, and how many of them one numpy pass
# evaluates per model: a lone model's pass covers a factor 1.01^256 = 12.8
# past its start; in a batch the block shrinks with the models still
# scanning, so that a pass holds about _SCAN_PASS_POINTS points (at least
# _SCAN_MIN_CHUNK per model).  The first pass ends _SCAN_MARGIN points past
# the latest predicted handover (see _handover_index), if that is sooner:
# the prediction fell at most 16 points short on the parabolic family at
# B in [-12, 10], and within one point on the glancing acceptance grids
_SCAN_POINTS = 2048
_SCAN_CHUNK = 256
_SCAN_MIN_CHUNK = 16
_SCAN_PASS_POINTS = 4096
_SCAN_MARGIN = 24


@functools.cache
def _scan_grid() -> np.ndarray:
    """The handover scan's grid factors _SCAN_STEP^k, k < _SCAN_POINTS."""
    return _SCAN_STEP ** np.arange(_SCAN_POINTS)


# A truncated Taylor series is an array whose first axis is the order k and
# whose other axes, if any, are the points it is expanded at.


def _mul(a: np.ndarray, b: np.ndarray, degree: int | None = None) -> np.ndarray:
    """Product of two series at the same points, to the shorter length.  The
    orders of `a` past `degree`, if given, are exact zeros: their products,
    which would add only zeros after every other term, are skipped."""
    n = min(len(a), len(b))
    c = a[0] * b[:n]
    for j in range(1, n if degree is None else min(n, degree + 1)):
        c[j:] += a[j] * b[: n - j]
    return c


@functools.cache
def _orders(length: int, ndim: int) -> np.ndarray:
    """The orders 1, ..., length - 1 as floats, shaped to broadcast against a
    series of `ndim` axes."""
    return np.arange(1, length, dtype=float).reshape((-1,) + (1,) * (ndim - 1))


# the exponents p of the powers s^p of s = eps^2 + V^2 that the tail series takes
_EXPONENTS = (-0.5, -1.5)


@functools.cache
def _power_factors(length: int, ndim: int) -> tuple[np.ndarray, ...]:
    """For k = 1, ..., length - 1, the factors (p + 1) j - k, j = 1..k, of
    _powers' recursion, one row per exponent p."""
    p = np.array(_EXPONENTS).reshape((-1, 1) + (1,) * (ndim - 1))
    j = _orders(length, ndim)
    return tuple((p + 1.0) * j[:k] - k for k in range(1, length))


def _powers(a: np.ndarray) -> np.ndarray:
    """The series of a^p for each of _EXPONENTS, stacked on a new first axis,
    from k a_0 b_k = sum_{j=1..k} ((p+1) j - k) a_j b_{k-j} (Knuth, TAOCP
    vol. 2, sec. 4.7), which a b' = p a' b gives: one recursion for both."""
    b = np.empty((len(_EXPONENTS),) + a.shape)
    for i, p in enumerate(_EXPONENTS):
        b[i, 0] = a[0] ** p
    k_a0 = _orders(len(a), a.ndim) * a[0]  # k a_0 for k = 1, ..., len(a) - 1
    for k, factors in enumerate(_power_factors(len(a), a.ndim), 1):
        b[:, k] = (factors * a[1 : k + 1] * b[:, k - 1 :: -1]).sum(axis=1) / k_a0[k - 1]
    return b


def _shift(a: np.ndarray) -> np.ndarray:
    """The series of the derivative, one order shorter."""
    return _orders(len(a), a.ndim) * a[1:]


def _tail_series(eps: np.ndarray, v, degree: int) -> np.ndarray:
    """The tail terms u_0, ..., u_{_TAIL_TERMS + 1}, stacked on the first
    axis, from the Taylor series eps of the level (_EPS_ORDERS orders, at
    any points), the coupling v (a float, or an array that broadcasts
    against the points) and the degree of the level, past which the
    orders of eps are exact zeros.

    u_0 = V eps' / (4 W^3) and u_{m+1} = u_m' / (2W), with W = sqrt(eps^2 + V^2),
    carried as Taylor series in the offset from each point.  Each derivative
    shortens a series by one order.  The two products with eps skip its
    orders past `degree`.
    """
    n = len(eps) - 1  # length of the series of u_0, and of eps'
    s = _mul(eps[:n], eps[:n], degree)
    s[0] += v * v
    inv_w, inv_w3 = _powers(s)
    u = 0.25 * v * _mul(_shift(eps), inv_w3, degree - 1)
    half_inv_w = 0.5 * inv_w
    terms = [u[0]]
    while len(u) > 1:
        u = _mul(_shift(u), half_inv_w)
        terms.append(u[0])
    return np.array(terms)


def _tail_error(terms):
    """|J - e^{2i Lam} sum_{m < 6} i^(m+1) u_m| = |sum_{m >= 6} i^(m+1) u_m|,
    to leading order hypot(u_6, u_7): the u_m are real and the phases of
    consecutive terms differ by i.  Unlike |u_6| alone, it stays honest
    where u_6 changes sign."""
    return np.hypot(terms[_TAIL_TERMS], terms[_TAIL_TERMS + 1])


def _handover_index(level: DiabaticModel, v: np.ndarray, starts: np.ndarray, tol: float) -> np.ndarray:
    """For models that share the level of the model `level`, with couplings
    v and scan starts `starts`, the grid index k* where the leading-order
    size of u_6 meets tol: NaN where it cannot be predicted.

    Past the level structure eps ~ c t^d, with d the level's degree and c
    read as eps'(T) / (d T^(d-1)) at T = 1e100^(1/d), where eps' stays in
    range.  Then |u_0| ~ V d / (4 c^2) t^-(2d+1), each derivative over 2W
    multiplies by p_m / (2c) t^-(d+1) with p_m = 2d + 1 + m (d+1), and
    |u_6| = tol at t* = (V d / (4 c^2) prod_{m<6} p_m / (2c) / tol)^(1/(8d+7)),
    which the x1.01 grid from the start reaches at k* = ceil(log_1.01(t*/start)).
    """
    d = level.degree
    big_t = 1e100 ** (1.0 / d)
    try:
        c = float(level.level(big_t)[1]) / (d * big_t ** (d - 1))
    except ArithmeticError:
        c = math.nan
    log_scale = math.nan
    if 0.0 < c < math.inf:  # the log of d / (4 c^2) prod_{m<6} p_m / (2c)
        p = math.prod(2 * d + 1 + m * (d + 1) for m in range(_TAIL_TERMS))
        log_scale = math.log(0.25 * d * p) - _TAIL_TERMS * math.log(2.0) - (_TAIL_TERMS + 2) * math.log(c)
    log_t = (log_scale + np.log(v) - math.log(tol)) / (2 * d + 1 + _TAIL_TERMS * (d + 1))
    return np.ceil((log_t - np.log(starts)) / math.log(_SCAN_STEP))


def _tail_points(models: Sequence[DiabaticModel], tol: float) -> list[tuple[float, np.ndarray] | Exception]:
    """For each of `models`, which share one level, in order, the handover
    point t_core and the tail terms there (see _tail_series), or the failure
    that ends its scan.  The level is read from the first model.

    t_core is the first point of the grid max(floor, 1) x _SCAN_STEP^k
    where the terms decrease up to the first omitted one,
    |u_0| > ... > |u_6|, and _tail_error is at most tol: the one handover
    rule of every propagation and trace.  Before the terms decrease the
    series is not yet asymptotic, and small late terms prove nothing.  A
    model whose V^2 underflows fails with ZeroDivisionError (gamma would
    be 0/0 where eps = 0), one whose series leaves the float range first
    with OverflowError, and one that finds no point on the grid with
    NonConvergence.  Every check that can fail a model before its solve
    is made here.

    The 1% step keeps the window within 1% of the first passing point, which
    matters at large N, where the phase 2W ~ 2 t^N oscillates fastest at the
    window ends.  Each numpy pass evaluates the rule on the next block of
    grid points of every model still scanning, a row of points per model:
    the series costs about as much at a few points as at hundreds, so a
    batch shares that cost, and the level is evaluated once per pass on
    the rows of all the models.  The block has _SCAN_CHUNK points for a
    lone model and shrinks as more models scan, to _SCAN_PASS_POINTS in
    all but never under _SCAN_MIN_CHUNK per model.
    The first pass ends _SCAN_MARGIN points past the latest handover that
    _handover_index predicts, if that is sooner, but at least
    _SCAN_MIN_CHUNK points from the start; a NaN prediction keeps the full
    block.  Every point's terms are elementwise in its own t, so that a
    model's terms and t_core are those of a lone scan to the bit, whatever
    batch and block it is scanned in.
    """
    out: list[tuple[float, np.ndarray] | Exception | None] = [None] * len(models)
    pending = []
    for i, model in enumerate(models):
        if model.V * model.V == 0.0:
            out[i] = ZeroDivisionError(f"squared coupling V^2 underflows to 0 for {model!r}")
        else:
            pending.append(i)
    if not pending:
        return out
    level = models[0]
    starts = np.array([max(models[i].floor, 1.0) for i in pending])
    v = np.array([models[i].V for i in pending])
    limit = _SCAN_POINTS
    latest = float(_handover_index(level, v, starts, tol).max())
    if math.isfinite(latest):
        limit = min(_SCAN_POINTS, max(_SCAN_MIN_CHUNK, int(latest) + _SCAN_MARGIN))
    first = 0
    while pending and first < _SCAN_POINTS:
        rows = min(max(_SCAN_MIN_CHUNK, min(_SCAN_CHUNK, _SCAN_PASS_POINTS // len(pending))), _SCAN_POINTS - first,
                   limit)
        limit = _SCAN_POINTS
        t = starts[:, None] * _scan_grid()[first : first + rows]
        with np.errstate(all="ignore"):  # an overflow ends that model's scan below
            u = _tail_series(level.level_series(t, _EPS_ORDERS), v[:, None], level.degree)
            size = np.abs(u[: _TAIL_TERMS + 1])
            passes = (_tail_error(u) <= tol) & np.all(size[:-1] > size[1:], axis=0)
        stop = passes | ~np.isfinite(u).all(axis=0)
        scanning = []
        for j, (i, k) in enumerate(zip(pending, stop.argmax(axis=1).tolist())):
            if not stop[j, k]:
                scanning.append(j)
            elif passes[j, k]:
                out[i] = (float(t[j, k]), u[:, j, k].copy())
            else:
                out[i] = OverflowError(f"tail series overflows at t = {float(t[j, k])!r} for {models[i]!r}")
        pending = [pending[j] for j in scanning]
        starts, v = starts[scanning], v[scanning]
        first += rows
    for i in pending:
        out[i] = NonConvergence(f"could not locate tail handover point for {models[i]!r}")
    return out


def _tail_point(model: DiabaticModel, tol: float) -> tuple[float, np.ndarray]:
    """The handover (t_core, tail terms there) of one model: the batch of
    one of _tail_points, whose failure it raises."""
    (handover,) = _tail_points([model], tol)
    if isinstance(handover, Exception):
        raise handover
    return handover


def _tail_coefficient(terms: np.ndarray) -> complex:
    """sum_{m < 6} i^(m+1) u_m, so that J(t) = e^{2i Lam(t)} times it."""
    return sum(p * float(u) for p, u in zip(_TAIL_PHASES, terms))


@functools.cache
def _collocation() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes x and weights w on [-1, 1] for _NODES nodes, and
    the matrices that take values at the nodes to the two highest Legendre
    coefficients of their interpolant and to its integral from -1 to each
    node.

    The matrices act from the right on rows of node values (hence
    transposed).  Built on first use, so that a process that never
    propagates does not start the LAPACK and BLAS libraries (about 1 MB of
    memory)."""
    leg, m = np.polynomial.legendre, _NODES
    x, w = leg.leggauss(m)
    # c_j = (j + 1/2) sum_i w_i P_j(x_i) v_i, exact for the interpolant (degree < 2m)
    to_coeffs = (np.arange(m) + 0.5)[:, None] * leg.legvander(x, m - 1).T * w
    antiderivative = leg.legint(to_coeffs, lbnd=-1)
    return x, w, to_coeffs[-2:].T.copy(), (leg.legvander(x, m) @ antiderivative).T.copy()


@functools.cache
def _complex_collocation() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_collocation's weights w and its trailing-coefficient and integration
    matrices, as complex arrays: numpy casts a real matrix to complex on
    every product with complex node values, and these are those casts,
    made once."""
    _, w, trailing, integrate = _collocation()
    return w.astype(complex), trailing.astype(complex), integrate.astype(complex)


@functools.cache
def _barycentric() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points z = {-1} and the _NODES nodes, their barycentric weights,
    and the matrix [0; integrate^T] that takes the Lagrange basis row L(y)
    on z to the row L(y) [0; integrate^T] that integrates node values from
    -1 to y.

    The integral of the interpolant of the node values is a polynomial of
    degree _NODES, so its values at the _NODES + 1 points z fix it: 0 at -1
    and the collocation integrals at the nodes."""
    nodes, _, _, integrate = _collocation()
    z = np.concatenate(([-1.0], nodes))
    weights = 1.0 / np.prod(z[:, None] - z + np.eye(z.size), axis=1)
    return z, weights, np.vstack((np.zeros(_NODES), integrate.T))


def _integration_rows(y: np.ndarray) -> np.ndarray:
    """For each y, the row that integrates node values from -1 to y, by the
    barycentric formula L_i(y) = (w_i / (y - z_i)) / sum_j w_j / (y - z_j)
    on _barycentric's points; a y on one of them takes that point's row."""
    z, weights, matrix = _barycentric()
    offset = y[:, None] - z
    with np.errstate(divide="ignore", invalid="ignore"):  # the rows at a point are replaced below
        basis = weights / offset
        basis /= basis.sum(axis=1, keepdims=True)
    on = offset == 0.0
    hit = on.any(axis=1)
    basis[hit] = on[hit]
    return basis @ matrix


def _resolve(
    windows: Sequence[tuple[DiabaticModel, float]], settings: PropagatorSettings
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Steps of [0, T] on which the coupling is resolved, for each member
    (model, T) of a batch of windows whose models share one level, read
    from the first model.

    Returns the number of steps of each member, then, sorted by member and
    then by position, each step's start and half-width, the coupling
    f = gamma e^{2i (Lam - Lam(start))} and W at its nodes, and the number
    of coupling evaluations made for each member.  Each member's window
    starts as _FIRST_STEPS equal steps.  Steps that fail the resolution
    rule (see the module docstring) are bisected, and only the new halves
    are evaluated.  A pass evaluates at most _PASS_STEPS steps of any
    members, the level once on all of them, with V taken per step; the
    whole batch evaluates at most _MAX_NODES nodes.
    """
    nodes, _, _, integrate = _collocation()
    trailing = _complex_collocation()[1]
    models = [model for model, _ in windows]
    coupling = np.array([model.V for model in models])
    # the queue of steps, a row (member, start, end) each, kept sorted by
    # member so that each member's steps in a pass are contiguous; the
    # points k (T / n) are those np.linspace(0, T, n + 1) makes, n = _FIRST_STEPS
    queue = []
    for k, (model, t_end) in enumerate(windows):
        h = t_end / _FIRST_STEPS
        queue += [(k, j * h, (j + 1) * h) for j in range(_FIRST_STEPS)]
    queue = np.array(queue)
    done = []
    spent = 0
    bisected = False
    while queue.size:
        if spent + min(len(queue), _PASS_STEPS) * _NODES > _MAX_NODES:
            width = queue[:, 2] - queue[:, 1]
            k = int(queue[width.argmin(), 0])
            raise NonConvergence(
                f"collocation node cap of {_MAX_NODES} nodes reached with {np.count_nonzero(queue[:, 0] == k)} "
                f"steps of [0, {windows[k][1]!r}] unresolved, the shortest {float(width.min())!r} wide, "
                f"for {models[k]!r}"
            )
        steps, queue = queue[:_PASS_STEPS], queue[_PASS_STEPS:]
        spent += len(steps) * _NODES
        lo, hi = steps[:, 1], steps[:, 2]
        half = 0.5 * (hi - lo)
        t = (lo + half)[:, None] + half[:, None] * nodes
        with np.errstate(all="ignore"):  # a range error is named below
            big_w, g = _coupling(models[0], t, coupling[steps[:, 0].astype(int), None])
        bad = ~(np.isfinite(big_w) & np.isfinite(g))
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise OverflowError(f"level or coupling leaves the float range at t = {float(t[row, col])!r} "
                                f"for {models[int(steps[row, 0])]!r}")
        f = g * np.exp(2j * half[:, None] * (big_w @ integrate))
        ok = 2.0 * half * np.abs(f @ trailing).sum(axis=1) <= settings.tail_tol
        if ok.all():
            done.append((steps, half, f, big_w))
            continue
        bisected = True
        done.append((steps[ok], half[ok], f[ok], big_w[ok]))
        # a failed step's two halves go side by side, ahead of the rest, which keeps the queue sorted
        fail = ~ok
        halves = steps[fail].repeat(2, axis=0)
        halves[1::2, 1] = halves[::2, 2] = (lo + half)[fail]
        queue = np.concatenate((halves, queue))
    steps, half, f, big_w = (np.concatenate(parts) for parts in zip(*done))
    if bisected:  # else the passes took the queue in its order, by member and position
        order = np.lexsort((steps[:, 1], steps[:, 0]))
        steps, half, f, big_w = steps[order], half[order], f[order], big_w[order]
    accepted = np.bincount(steps[:, 0].astype(int), minlength=len(windows)).tolist()
    # each failed step gave way to two, so a member evaluated 2 (accepted) - _FIRST_STEPS steps
    nfev = [(2 * n - _FIRST_STEPS) * _NODES for n in accepted]
    return accepted, steps[:, 1], half, f, big_w, nfev


def _coupling(model: DiabaticModel, t: np.ndarray, v) -> tuple[np.ndarray, np.ndarray]:
    """W and gamma = V eps' / (2 W^2) at the times t, a row per step, for
    the level of `model` and the couplings v, a column of one per row."""
    eps, deps = model.level(t)
    s = eps * eps + v * v
    return np.sqrt(s), 0.5 * v * deps / s


def _step_maps(
    half: np.ndarray, f: np.ndarray, counts: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(a, b) at the end of each step from (1, 0) at its start, for
    a' = -f b, b' = conj(f) a, and (a, b) at the step's nodes: the
    Gauss-Legendre collocation solution, by Picard iteration to convergence
    on the passes of _passes(counts), for members of `counts` steps each."""
    weights, _, integrate = _complex_collocation()
    parts = []
    for lo, sizes in _passes(counts):
        hi = lo + sum(sizes)
        hf = half[lo:hi, None] * f[lo:hi]
        hfc = hf.conj()
        a, b = _picard(hf, hfc, integrate, np.array(sizes))
        parts.append((1.0 - np.add.reduce(hf * b * weights, axis=1), np.add.reduce(hfc * a * weights, axis=1), a, b))
    # one pass, as on every lone propagation, returns its arrays without a copy
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(columns) for columns in zip(*parts))


def _passes(counts: Sequence[int]) -> list[tuple[int, list[int]]]:
    """The passes of _step_maps over the steps of members of `counts` steps
    each: (first step, sizes of its segments), where a pass holds whole
    segments, up to _PASS_STEPS steps.  A segment is a member, or, for a
    member of more steps, one of the fewest near-equal parts it splits
    into, as it does alone.  So no pass is a lone row, which numpy would
    multiply by a matrix-vector kernel that may round it otherwise."""
    if sum(counts) <= _PASS_STEPS:  # one pass, as in every lone solve and sweep panel
        return [(0, list(counts))]
    passes, lo, filled = [], 0, _PASS_STEPS
    for n in counts:
        k = -(-n // _PASS_STEPS)
        for size in (n // k + (i < n % k) for i in range(k)):
            if filled + size > _PASS_STEPS:
                passes.append((lo, []))
                filled = 0
            passes[-1][1].append(size)
            filled += size
            lo += size
    return passes


def _picard(
    hf: np.ndarray, hfc: np.ndarray, integrate: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) at the nodes of a pass of _step_maps, from (1, 0), by sweeps
    of b = R (hfc a), a = 1 - R (hf b) with R the integration matrix: each
    segment of `sizes` rows keeps the first sweep that changes its a and b
    by at most _PICARD_TOL, and later sweeps run on the segments left."""
    # the first sweep from (a, b) = (1, 0)
    b = hfc @ integrate
    a = 1.0 - (hf * b) @ integrate
    a_out, b_out, rows = a, b, None  # rows: where the rows still sweeping go, once some have stopped
    starts = np.cumsum(sizes) - sizes if sizes.size > 1 else None
    for sweep in range(1, _PICARD_ITERATIONS):
        b_next = (hfc * a) @ integrate
        a_next = 1.0 - (hf * b_next) @ integrate
        # a segment stops once the largest change of a and b on it is within
        # the tolerance; that of b at the last nodes is at most this, and
        # while it exceeds the tolerance on every segment, none stops
        change = np.abs(b_next[:, -1] - b[:, -1])
        least = change.max() if sizes.size == 1 else np.maximum.reduceat(change, starts).min()
        if not least > _PICARD_TOL or sweep == _PICARD_ITERATIONS - 1:
            change = np.maximum(np.abs(b_next - b), np.abs(a_next - a))
            if sizes.size == 1:  # one segment, as in every lone solve
                change = least = change.max()
            else:
                change = np.maximum.reduceat(change.max(axis=1), starts)
                least = change.min()
        a, b = a_next, b_next
        if least > _PICARD_TOL:
            continue
        if rows is None and sizes.size == 1:
            return a, b
        going = change > _PICARD_TOL
        if rows is not None:
            a_out[rows], b_out[rows] = a, b
        elif going.any():
            a_out, b_out, rows = a, b, np.arange(len(a))
        else:
            return a, b
        if not going.any():
            return a_out, b_out
        keep = np.repeat(going, sizes)
        rows, a, b, hf, hfc, sizes = rows[keep], a[keep], b[keep], hf[keep], hfc[keep], sizes[going]
        starts = np.cumsum(sizes) - sizes
    raise ToleranceFailure(f"collocation iteration did not converge in {_PICARD_ITERATIONS} "
                           f"sweeps (last change {np.max(change)!r})")


def _dense_output(
    times: np.ndarray,
    starts: np.ndarray,
    half: np.ndarray,
    f: np.ndarray,
    big_w: np.ndarray,
    a_nodes: np.ndarray,
    b_nodes: np.ndarray,
    lam_starts: np.ndarray,
    prefix: list[tuple[complex, complex]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a, b and Lam at each of `times` (in [0, T]) of one window, where
    U(t, 0) = [[a, -b*], [b, a*]], from its steps: their starts and
    half-widths, f, W and the converged (a, b) at their nodes, Lam at their
    starts, and U(start, 0) = [[a, -b*], [b, a*]] as prefix[i] = (a, b) for
    the i-th step.

    Each time is read off the collocation polynomial of the step that holds
    it: with R(y) the row that integrates node values from -1 to y (see
    _integration_rows),
    b(y) = R(y) (h conj(f) a), a(y) = 1 - R(y) (h f b) and
    Lam(y) = Lam(start) + R(y) (h W), for y = (t - mid) / h on a step of
    half-width h.  b is rotated by e^{-2i Lam(start)}, as at the step's end,
    and the step's map is chained onto U(start, 0).  At most _PASS_STEPS
    times are read at once, so that the readout holds at most a pass's
    nodes."""
    a_t, b_t, lam_t = np.empty(times.size, dtype=complex), np.empty(times.size, dtype=complex), np.empty(times.size)
    for c in range(0, times.size, _PASS_STEPS):
        t = times[c : c + _PASS_STEPS]
        i = np.searchsorted(starts, t, side="right") - 1
        h = half[i]
        rows = _integration_rows((t - (starts[i] + h)) / h)
        hf = h[:, None] * f[i]
        b = (rows * hf.conj() * a_nodes[i]).sum(axis=1) * np.exp(-2j * lam_starts[i])
        a = 1.0 - (rows * hf * b_nodes[i]).sum(axis=1)
        a0, b0 = np.array(prefix)[i].T
        a_t[c : c + _PASS_STEPS] = a * a0 - b.conj() * b0
        b_t[c : c + _PASS_STEPS] = b * a0 + a.conj() * b0
        lam_t[c : c + _PASS_STEPS] = lam_starts[i] + h * (rows * big_w[i]).sum(axis=1)
    return a_t, b_t, lam_t


def _solve_window(
    windows: Sequence[tuple[DiabaticModel, float]], settings: PropagatorSettings, times: Sequence[float] = ()
) -> list[tuple[tuple, tuple[np.ndarray, np.ndarray, np.ndarray], int, int]]:
    """One solve of the windows [0, T] of a batch of members (model, T).

    Returns, for each member, (a, b, Lam(T)) with U(T, 0) = [[a, -b*],
    [b, a*]], arrays a, b and Lam at each of the `times` in [0, T], read
    off the collocation polynomials (see _dense_output), which leave the
    solve as it is, and the solve's nfev and n_steps.
    """
    counts, starts, half, f, big_w, nfev = _resolve(windows, settings)
    a_steps, b_steps, a_nodes, b_nodes = _step_maps(half, f, counts)
    # summed row by row: a product over the batch would round a row by its place in it
    lam_steps = half * np.add.reduce(big_w * _collocation()[1], axis=1)
    bounds = [0, *itertools.accumulate(counts)]
    # Lam at each step's end, summed over each member's steps alone
    lam_ends = [np.cumsum(lam_steps[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    lam_ends = lam_ends[0] if len(lam_ends) == 1 else np.concatenate(lam_ends)
    lam_starts = lam_ends - lam_steps
    # f carries the phase from each step's start; Lam there rotates b
    b_rotated = (b_steps * np.exp(-2j * lam_starts)).tolist()
    a_listed = a_steps.tolist()
    times = np.asarray(times, dtype=float)
    no_states = (np.empty(0, dtype=complex), np.empty(0, dtype=complex), times)
    out = []
    for k in range(len(windows)):
        steps = slice(bounds[k], bounds[k + 1])
        a, b = 1.0 + 0.0j, 0.0j
        prefix = [(a, b)]  # U(t, 0) = [[a, -b*], [b, a*]] at t = 0 and at each step's end
        for ak, bk in zip(a_listed[steps], b_rotated[steps]):
            a, b = ak * a - bk.conjugate() * b, bk * a + ak.conjugate() * b
            prefix.append((a, b))
        states = _dense_output(times, starts[steps], half[steps], f[steps], big_w[steps], a_nodes[steps],
                               b_nodes[steps], lam_starts[steps], prefix) if times.size else no_states
        out.append(((a, b, float(lam_ends[steps.stop - 1])), states, nfev[k], counts[k]))
    return out


def _readout(u, handover: tuple[float, np.ndarray], nfev: int, n_steps: int) -> tuple[PropagationResult, tuple]:
    """The result of a solve completed at its handover (t_core, tail terms),
    from u = (a, b, Lam(t_core)) with U(t_core, 0) = [[a, -b*], [b, a*]],
    and the state (beta, alpha*) at t = 0 of V = C(J) U(t_core, 0) =
    [[alpha, -beta*], [beta, alpha*]] (see the module docstring)."""
    (a, b, lam), (t_core, terms) = u, handover
    j = cmath.exp(2j * lam) * _tail_coefficient(terms)
    n = math.sqrt(1.0 + abs(j) ** 2)
    alpha, beta = (a - j * b) / n, (j.conjugate() * a + b) / n
    product = alpha * beta
    result = PropagationResult(probability=min(4.0 * product.imag ** 2, 1.0), t_core=t_core,
                               tail_error=float(_tail_error(terms)), nfev=nfev, n_steps=n_steps,
                               single_passage=abs(beta) ** 2, phase=cmath.phase(product))
    return result, (beta, alpha.conjugate())


def _propagate_batch(
    models: Sequence[DiabaticModel], settings: PropagatorSettings
) -> list[PropagationResult | Exception]:
    """propagate for each of `models`, in order: its result, or the failure
    (one of _FAILURES) it raised.

    Models are grouped by level, (family, level_key), here alone: each
    group is cut into batches of at most _PASS_STEPS // _FIRST_STEPS
    models, whose first steps fit one pass, and each batch is scanned for
    its handovers together and then solved together.  A model whose
    handover scan fails is left out of its batch's solve; a batch whose
    solve fails (the node cap is shared) is solved again one model at a
    time, from the handovers already found.
    """
    groups: dict[tuple, list[int]] = {}
    for i, model in enumerate(models):
        groups.setdefault((type(model), model.level_key), []).append(i)
    size = _PASS_STEPS // _FIRST_STEPS
    out: list[PropagationResult | Exception | None] = [None] * len(models)
    for chunk in (rows[k : k + size] for rows in groups.values() for k in range(0, len(rows), size)):
        batch = [models[i] for i in chunk]
        handovers = _tail_points(batch, settings.tail_tol)
        members = [(m, h) for m, h in zip(batch, handovers) if not isinstance(h, Exception)]
        try:
            windows = _solve_window([(m, h[0]) for m, h in members], settings) if members else []
            solved = iter([_readout(u, h, nfev, n_steps)[0] for (u, _, nfev, n_steps), (_, h) in zip(windows, members)])
        except _FAILURES:
            solved = iter([_attempt(_solve_lone, member, settings) for member in members])
        for i, h in zip(chunk, handovers):
            out[i] = h if isinstance(h, Exception) else next(solved)
    return out


def _solve_lone(member: tuple[DiabaticModel, tuple[float, np.ndarray]], settings: PropagatorSettings) -> PropagationResult:
    """The result of one member (model, handover) solved on its own."""
    model, handover = member
    ((u, _, nfev, n_steps),) = _solve_window([(model, handover[0])], settings)
    return _readout(u, handover, nfev, n_steps)[0]


def propagate(model: DiabaticModel, settings: PropagatorSettings = PropagatorSettings()) -> PropagationResult:
    """Transition probability P = |c1(+inf)|^2 starting from |c2(-inf)|^2 = 1."""
    return _solve_lone((model, _tail_point(model, settings.tail_tol)), settings)


def _mixing_half_angle(model: DiabaticModel, t):
    # cos(theta/2), sin(theta/2) of the adiabatic mixing angle theta = atan2(V, eps)
    # at t (a float or an array); for eps < 0 the half angle comes from
    # pi - theta = atan2(V, -eps), so the small cosine does not inherit the
    # rounding of theta near pi
    eps = model.level(t)[0]
    half = 0.5 * np.arctan2(model.V, np.abs(eps))
    c, s = np.cos(half), np.sin(half)
    below = eps < 0.0
    return np.where(below, s, c), np.where(below, c, s)


# largest mixing angle atan2(V, eps) at the end of a trace window
_TRACE_MIXING_ANGLE = 1e-2


def _trace_end(model: DiabaticModel, t_core: float) -> float:
    """The end T of a trace window: the first point of the handover scan's
    grid at or past t_core with mixing angle atan2(V, eps) at most
    _TRACE_MIXING_ANGLE, read off the level alone, _SCAN_CHUNK points at a time."""
    grid = max(model.floor, 1.0) * _scan_grid()
    for first in range(int(np.searchsorted(grid, t_core)), _SCAN_POINTS, _SCAN_CHUNK):
        t = grid[first : first + _SCAN_CHUNK]
        with np.errstate(all="ignore"):  # a level out of range fails its solve
            small = np.arctan2(model.V, model.level(t)[0]) <= _TRACE_MIXING_ANGLE
        if small.any():
            return float(t[small.argmax()])
    raise NonConvergence(f"could not locate trace window end for {model!r}")


def _check_sample_count(sample_count) -> None:
    """Refuse a trace's sample_count before any work: ValueError unless it
    is an integer >= 2, NonConvergence if its readout passes the node cap."""
    if not isinstance(sample_count, numbers.Integral) or sample_count < 2:
        raise ValueError(f"sample_count must be an integer >= 2, got {sample_count!r}")
    distinct = (sample_count + 1) // 2
    if distinct * _NODES > _MAX_NODES:
        raise NonConvergence(f"sample_count={sample_count!r} reads {distinct} distinct |t| of {_NODES} weights each, "
                             f"past the collocation node cap of {_MAX_NODES} nodes")


def propagate_trace(
    model: DiabaticModel,
    settings: PropagatorSettings = PropagatorSettings(),
    sample_count: int = 512,
) -> list[tuple[float, float, float, float]]:
    """Uniformly sampled (t, |c1|^2, |c2|^2, norm) along the window [-T, T].

    The samples are diabatic populations, which differ from the adiabatic
    ones by about theta/2 for the mixing angle theta = atan2(V, eps), so
    the window runs on past propagate's handover t_core to T, where
    theta <= 1e-2 (see _trace_end), and the last sample is within about
    5e-3 of the asymptotic P.  The tail completes the state at t = 0 at
    t_core, as in propagate.  The samples and U(t_core, 0) are read off the
    solve's collocation polynomials, _NODES weights per distinct |t|, which
    count against the node cap: a sample_count above 2 _MAX_NODES / _NODES
    (262,144) raises NonConvergence at once.
    """
    _check_sample_count(sample_count)
    handover = _tail_point(model, settings.tail_tol)
    t_end = _trace_end(model, handover[0])
    ts = np.linspace(-t_end, t_end, sample_count)
    ts = 0.5 * (ts - ts[::-1])  # exactly odd, so each |t| is read out once
    times = np.append(ts[sample_count // 2 :], handover[0])
    ((_, (a, b, lam), nfev, n_steps),) = _solve_window([(model, t_end)], settings, times)
    _, (bp0, bm0) = _readout((a[-1], b[-1], lam[-1]), handover, nfev, n_steps)
    # t < 0: U(t, 0) = conj(U(-t, 0)) and Lam(t) = -Lam(-t)
    back = slice(sample_count % 2, -1)  # the |t| of the samples at t < 0
    a = np.concatenate((a[back][::-1].conj(), a[:-1]))
    b = np.concatenate((b[back][::-1].conj(), b[:-1]))
    lam = np.concatenate((-lam[back][::-1], lam[:-1]))
    c_half, s_half = _mixing_half_angle(model, ts)
    up = (a * bp0 - b.conj() * bm0) * np.exp(-1j * lam)
    dn = (b * bp0 + a.conj() * bm0) * np.exp(1j * lam)
    p1 = np.abs(up * c_half - dn * s_half) ** 2
    p2 = np.abs(up * s_half + dn * c_half) ** 2
    return list(zip(ts.tolist(), p1.tolist(), p2.tolist(), (p1 + p2).tolist()))
