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
series product, power and shift, so
J(T) = e^{2i Lam(T)} sum_{m < 6} i^(m+1) u_m.  Its error, the omitted
sum_{m >= 6} i^(m+1) u_m, is hypot(u_6, u_7) to leading order: computed
from the next two terms, not estimated from ratios.  The window ends at
the first point of a x1.01 grid from the floor past the level structure
where the terms already decrease, |u_0| > ... > |u_6|, and that error is
at most settings.tail_tol; numpy evaluates the rule for a whole batch of
models at once, on a block of grid points per model in each pass.  J
completes the window through one exactly unitary factor,

    C(J) = [[1, -J], [conj(J), 1]] / sqrt(1+|J|^2),

which carries the amplitudes from T to +inf; gamma odd and Lam odd give
int_{-inf}^{-T} gamma e^{2i Lam} = -conj(J(T)), so C(J)^T carries them
from -inf to -T.  Hence V = C(J) U = [[alpha, -beta*], [beta, alpha*]] is
U(+inf, 0), the whole line maps by S = V V^T, and starting from the lower
level at -inf the state at t = 0 is V^T (0, 1) = (beta, alpha*).  Since
eps -> +inf at both ends while V stays constant, the upper adiabatic
label coincides asymptotically with diabatic state 1, so the transition
probability read in the diabatic basis is |S_12|^2 = 4 (Im alpha beta)^2.

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
2 x 32 = 64 at the step's end.
The steps chain as SU(2) matrices [[a, -b*], [b, a*]] (b rotated by
e^{-2i Lam(start)}), and their prefix products give U(t, 0) at every step
end.  Between the ends the collocation polynomials give dense output: a
trace reads U(t, 0) and Lam(t) at each sample |t| off the step that holds
it, so its samples leave the steps, nfev and n_steps of its solve as
they are.  nfev counts the coupling evaluations, those on rejected steps
included; a solve that would need more than _MAX_NODES of them raises
NonConvergence before it allocates them.

One solve can cover a batch of models, as a sweep's numeric column does:
their steps share the passes, each model's level is evaluated on its own
steps, and each step is accepted on its own, so every model gets the
steps, nfev and n_steps of a lone solve.  The node cap covers the whole
batch.  _propagate_batch scans a batch's handovers in one call and
returns each model's result or failure: a model whose handover scan
fails is left out of the solve, and a batch whose solve fails is solved
again one model at a time from the handovers already found.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp  # noqa: F401  (unused: levelbench/spans.py wraps both by name)

from .errors import _FAILURES, NonConvergence, ToleranceFailure, _attempt
from .models import DiabaticModel

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


@dataclass(frozen=True)
class PropagatorSettings:
    """Integration control: one absolute tolerance on the amplitude.

    tail_tol bounds the part of the integrated-by-parts tail that the
    sum omits at the handover point t_core, hypot(u_6, u_7) (see
    _tail_error), which alone fixes the window [-t_core, t_core] that
    each propagation covers with one solve on [0, t_core].  It also bounds
    the error each collocation step of that solve may add (see the module
    docstring).  It must lie in [1e-17, 1e-6): below 1e-17 the step rule
    meets the rounding of the trailing coefficients, and the steps shrink
    until the node cap.
    """

    tail_tol: float = 3e-12

    def __post_init__(self) -> None:
        if not (1e-17 <= self.tail_tol < 1e-6):
            raise ValueError(f"tail_tol must lie in [1e-17, 1e-6), got {self.tail_tol!r}")


@dataclass(frozen=True)
class PropagationResult:
    """Final probability plus diagnostics.

    probability is 4 (Im alpha beta)^2, read off the whole line's map
    V = C(J) U (see the module docstring); t_core is the half-width of the
    window [-t_core, t_core] (the solve covers [0, t_core]); tail_error is
    the size of the tail terms the sum omits at t_core (see _tail_error);
    nfev is the number of coupling evaluations of the solve, rejected
    steps included, and n_steps the number of collocation steps it
    accepted.
    """

    probability: float
    t_core: float
    tail_error: float
    nfev: int
    n_steps: int


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

# the handover scan's grid points, and how many of them one numpy pass
# evaluates per model: a lone model's first pass covers a factor
# 1.01^256 = 12.8 past the start, where nearly every handover lies; in a
# batch the block shrinks with the models still scanning, so that a pass
# holds about _SCAN_PASS_POINTS points (at least _SCAN_MIN_CHUNK per model)
_SCAN_POINTS = 2048
_SCAN_CHUNK = 256
_SCAN_MIN_CHUNK = 16
_SCAN_PASS_POINTS = 4096


@functools.cache
def _scan_grid() -> np.ndarray:
    """The handover scan's grid factors 1.01^k, k < _SCAN_POINTS."""
    return 1.01 ** np.arange(_SCAN_POINTS)


# A truncated Taylor series is an array whose first axis is the order k and
# whose other axes, if any, are the points it is expanded at.


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two series at the same points, to the shorter length."""
    n = min(len(a), len(b))
    c = a[0] * b[:n]
    for j in range(1, n):
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
    for k, factors in enumerate(_power_factors(len(a), a.ndim), 1):
        b[:, k] = (factors * a[1 : k + 1] * b[:, k - 1 :: -1]).sum(axis=1) / (k * a[0])
    return b


def _shift(a: np.ndarray) -> np.ndarray:
    """The series of the derivative, one order shorter."""
    return _orders(len(a), a.ndim) * a[1:]


def _tail_series(eps: np.ndarray, v) -> np.ndarray:
    """The tail terms u_0, ..., u_{_TAIL_TERMS + 1}, stacked on the first
    axis, from the Taylor series eps of the level (_EPS_ORDERS orders, at
    any points) and the coupling v (a float, or an array that broadcasts
    against the points).

    u_0 = V eps' / (4 W^3) and u_{m+1} = u_m' / (2W), with W = sqrt(eps^2 + V^2),
    carried as Taylor series in the offset from each point.  Each derivative
    shortens a series by one order.
    """
    n = len(eps) - 1  # length of the series of u_0, and of eps'
    s = _mul(eps[:n], eps[:n])
    s[0] += v * v
    inv_w, inv_w3 = _powers(s)
    u = 0.25 * v * _mul(_shift(eps), inv_w3)
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


def _tail_points(
    models: Sequence[DiabaticModel], tol: float, max_angle: float = math.pi
) -> list[tuple[float, np.ndarray] | Exception]:
    """For each of `models`, in order, the handover point t_core and the
    tail terms there (see _tail_series), or the failure that ends its scan.

    t_core is the first point of the grid max(floor, 1) x 1.01^k where the
    terms decrease up to the first omitted one, |u_0| > ... > |u_6|,
    _tail_error is at most tol, and the mixing angle atan2(V, eps(t)) is at
    most max_angle (by default any angle passes).  Before the terms
    decrease the series is not yet asymptotic, and small late terms prove
    nothing.  A model whose V^2 underflows fails with ZeroDivisionError
    (gamma would be 0/0 where eps = 0), one whose series leaves the float
    range first with OverflowError, and one that finds no point on the
    grid with NonConvergence.  Every check that can fail a model before
    its solve is made here.

    The 1% step keeps the window within 1% of the first passing point, which
    matters at large N, where the phase 2W ~ 2 t^N oscillates fastest at the
    window ends.  Each numpy pass evaluates the rule on the next block of
    grid points of every model still scanning, a row of points per model:
    the series costs about as much at a few points as at hundreds, so a
    batch shares that cost, and only the level's evaluation is made per
    model.  The block has _SCAN_CHUNK points for a lone model and shrinks
    as more models scan, to _SCAN_PASS_POINTS in all but never under
    _SCAN_MIN_CHUNK per model.  Each model's level is evaluated on its own
    contiguous row, so that its terms and t_core are those of a lone scan
    to the bit, whatever batch it is scanned in.
    """
    out: list[tuple[float, np.ndarray] | Exception | None] = [None] * len(models)
    pending = []
    for i, model in enumerate(models):
        if model.V * model.V == 0.0:
            out[i] = ZeroDivisionError(f"squared coupling V^2 underflows to 0 for {model!r}")
        else:
            pending.append(i)
    starts = np.array([max(models[i].floor, 1.0) for i in pending])
    v = np.array([models[i].V for i in pending])
    first = 0
    while pending and first < _SCAN_POINTS:
        rows = min(max(_SCAN_MIN_CHUNK, min(_SCAN_CHUNK, _SCAN_PASS_POINTS // len(pending))), _SCAN_POINTS - first)
        t = starts[:, None] * _scan_grid()[first : first + rows]
        eps = np.empty((_EPS_ORDERS,) + t.shape)
        with np.errstate(all="ignore"):  # an overflow ends that model's scan below
            for j, i in enumerate(pending):
                eps[:, j] = models[i].level_series(t[j], _EPS_ORDERS)
            u = _tail_series(eps, v[:, None])
            size = np.abs(u[: _TAIL_TERMS + 1])
            passes = (_tail_error(u) <= tol) & np.all(size[:-1] > size[1:], axis=0)
            if max_angle < math.pi:  # atan2 never exceeds pi
                passes &= np.arctan2(v[:, None], eps[0]) <= max_angle
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


def _tail_point(model: DiabaticModel, tol: float, max_angle: float = math.pi) -> tuple[float, np.ndarray]:
    """The handover (t_core, tail terms there) of one model: the batch of
    one of _tail_points, whose failure it raises."""
    (handover,) = _tail_points([model], tol, max_angle)
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
def _readout() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    on _readout's points; a y on one of them takes that point's row."""
    z, weights, matrix = _readout()
    offset = y[:, None] - z
    with np.errstate(divide="ignore", invalid="ignore"):  # the rows at a point are replaced below
        basis = weights / offset
        basis /= basis.sum(axis=1, keepdims=True)
    on = offset == 0.0
    hit = on.any(axis=1)
    basis[hit] = on[hit]
    return basis @ matrix


def _resolve(
    members: Sequence[tuple[DiabaticModel, tuple[float, np.ndarray]]],
    settings: PropagatorSettings,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Steps of [0, t_core] on which the coupling is resolved, for each
    member (model, handover) of a batch, t_core being handover[0].

    Returns, sorted by member and then by position, each step's member
    index, start and half-width, the coupling f = gamma e^{2i (Lam - Lam(start))}
    and W at its nodes, and the number of coupling evaluations made for
    each member.  Each member's window starts as eight equal steps.  Steps
    that fail the resolution rule (see the module docstring) are bisected,
    and only the new halves are evaluated.  A pass evaluates at most
    _PASS_STEPS steps of any members, each member's level on its own steps;
    the whole batch evaluates at most _MAX_NODES nodes.
    """
    nodes, _, trailing, integrate = _collocation()
    models = [model for model, _ in members]
    # the queue of steps, a row (member, start, end) each, kept sorted by
    # member so that each member's steps in a pass are contiguous
    queue = []
    for k, (model, (t_core, _)) in enumerate(members):
        grid = np.linspace(0.0, t_core, 9).tolist()
        queue += [(k, a, b) for a, b in zip(grid, grid[1:])]
    queue = np.array(queue)
    done = []
    spent = 0
    while queue.size:
        if spent + min(len(queue), _PASS_STEPS) * _NODES > _MAX_NODES:
            width = queue[:, 2] - queue[:, 1]
            k = int(queue[width.argmin(), 0])
            raise NonConvergence(
                f"collocation node cap of {_MAX_NODES} nodes reached with {np.count_nonzero(queue[:, 0] == k)} "
                f"steps of [0, {members[k][1][0]!r}] unresolved, the shortest {float(width.min())!r} wide, "
                f"for {models[k]!r}"
            )
        steps, queue = queue[:_PASS_STEPS], queue[_PASS_STEPS:]
        spent += len(steps) * _NODES
        lo, hi = steps[:, 1], steps[:, 2]
        half = 0.5 * (hi - lo)
        t = (lo + half)[:, None] + half[:, None] * nodes
        first, last = int(steps[0, 0]), int(steps[-1, 0])
        bounds = [0, len(steps)] if first == last else steps[:, 0].searchsorted(range(first, last + 2)).tolist()
        big_w, g = np.empty_like(t), np.empty_like(t)
        with np.errstate(all="ignore"):  # a range error is named below
            for model, a, b in zip(models[first : last + 1], bounds, bounds[1:]):
                if a < b:
                    v = model.V
                    eps, deps = model.level(t[a:b])
                    s = eps * eps + v * v
                    np.sqrt(s, out=big_w[a:b])
                    np.divide(0.5 * v * deps, s, out=g[a:b])
        bad = ~(np.isfinite(big_w) & np.isfinite(g))
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise OverflowError(f"level or coupling leaves the float range at t = {float(t[row, col])!r} "
                                f"for {models[int(steps[row, 0])]!r}")
        f = g * np.exp(2j * half[:, None] * (big_w @ integrate))
        ok = 2.0 * half * np.abs(f @ trailing).sum(axis=1) <= settings.tail_tol
        done.append((steps[ok], half[ok], f[ok], big_w[ok]))
        # a failed step's two halves go side by side, ahead of the rest, which keeps the queue sorted
        fail = ~ok
        halves = steps[fail].repeat(2, axis=0)
        halves[1::2, 1] = halves[::2, 2] = (lo + half)[fail]
        queue = np.concatenate((halves, queue))
    steps, half, f, big_w = (np.concatenate(parts) for parts in zip(*done))
    order = np.lexsort((steps[:, 1], steps[:, 0]))
    member = steps[order, 0].astype(int)
    # each failed step gave way to two, so a member evaluated 2 (accepted) - 8 steps
    accepted = np.bincount(member, minlength=len(members)).tolist()
    nfev = [(2 * n - 8) * _NODES for n in accepted]
    return member, steps[order, 1], half[order], f[order], big_w[order], nfev


def _step_maps(half: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(a, b) at the end of each step from (1, 0) at its start, for
    a' = -f b, b' = conj(f) a, and (a, b) at the step's nodes: the
    Gauss-Legendre collocation solution, by Picard iteration to convergence
    on up to _PASS_STEPS steps at once."""
    _, weights, _, integrate = _collocation()
    a_end, b_end = np.empty(half.size, dtype=complex), np.empty(half.size, dtype=complex)
    a_nodes, b_nodes = np.empty_like(f), np.empty_like(f)
    for k in range(0, half.size, _PASS_STEPS):
        hf = half[k : k + _PASS_STEPS, None] * f[k : k + _PASS_STEPS]
        hfc = hf.conj()
        # the first sweep from (a, b) = (1, 0)
        b = hfc @ integrate
        a = 1.0 - (hf * b) @ integrate
        for _ in range(_PICARD_ITERATIONS - 1):
            b_next = (hfc * a) @ integrate
            a_next = 1.0 - (hf * b_next) @ integrate
            change = max(np.abs(a_next - a).max(), np.abs(b_next - b).max())
            a, b = a_next, b_next
            if change <= _PICARD_TOL:
                break
        else:
            raise ToleranceFailure(f"collocation iteration did not converge in {_PICARD_ITERATIONS} "
                                   f"sweeps (last change {change!r})")
        a_end[k : k + _PASS_STEPS] = 1.0 - (hf * b) @ weights
        b_end[k : k + _PASS_STEPS] = (hfc * a) @ weights
        a_nodes[k : k + _PASS_STEPS], b_nodes[k : k + _PASS_STEPS] = a, b
    return a_end, b_end, a_nodes, b_nodes


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
    """a, b and Lam at each of `times` (in [0, t_core]) of one window, where
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
    members: Sequence[tuple[DiabaticModel, tuple[float, np.ndarray]]],
    settings: PropagatorSettings,
    times: Sequence[float] = (),
) -> list[tuple[PropagationResult, tuple[complex, complex], tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """The propagation over [-t_core, t_core] of each member (model,
    handover) of a batch, from one solve of all their windows [0, t_core].

    `handover` is (t_core, tail terms there), as _tail_point returns it.
    Returns, for each member, the result, the state (beta, alpha*) at t = 0,
    from which U(t, 0) carries it to any t, and arrays a, b and Lam at each
    of the `times` in [0, t_core], where U(t, 0) = [[a, -b*], [b, a*]].
    The times are not step edges: they leave the solve, its nfev and its
    steps as they are, and are read off its collocation polynomials (see
    _dense_output).
    """
    member, starts, half, f, big_w, nfev = _resolve(members, settings)
    a_steps, b_steps, a_nodes, b_nodes = _step_maps(half, f)
    lam_steps = half * (big_w @ _collocation()[1])
    times = np.asarray(times, dtype=float)
    bounds = np.searchsorted(member, np.arange(len(members) + 1)).tolist()
    out = []
    for k, (_, (t_core, terms)) in enumerate(members):
        steps = slice(bounds[k], bounds[k + 1])
        lam_ends = np.cumsum(lam_steps[steps])
        lam_starts = lam_ends - lam_steps[steps]
        # f carries the phase from each step's start; Lam there rotates b
        b_rotated = b_steps[steps] * np.exp(-2j * lam_starts)
        a, b = 1.0 + 0.0j, 0.0j
        prefix = [(a, b)]  # U(t, 0) = [[a, -b*], [b, a*]] at t = 0 and at each step's end
        for ak, bk in zip(a_steps[steps].tolist(), b_rotated.tolist()):
            a, b = ak * a - bk.conjugate() * b, bk * a + ak.conjugate() * b
            prefix.append((a, b))
        states = _dense_output(times, starts[steps], half[steps], f[steps], big_w[steps], a_nodes[steps],
                               b_nodes[steps], lam_starts, prefix)
        j = cmath.exp(2j * float(lam_ends[-1])) * _tail_coefficient(terms)
        # V = C(J) U = [[alpha, -beta*], [beta, alpha*]]
        n = math.sqrt(1.0 + abs(j) ** 2)
        alpha, beta = (a - j * b) / n, (j.conjugate() * a + b) / n
        result = PropagationResult(
            probability=min(4.0 * (alpha * beta).imag ** 2, 1.0),
            t_core=t_core,
            tail_error=float(_tail_error(terms)),
            nfev=nfev[k],
            n_steps=len(prefix) - 1,
        )
        out.append((result, (beta, alpha.conjugate()), states))
    return out


def _propagate_batch(
    models: Sequence[DiabaticModel], settings: PropagatorSettings
) -> list[PropagationResult | Exception]:
    """propagate for each of `models`, in order: its result, or the failure
    (one of _FAILURES) it raised.

    Batches of at most _PASS_STEPS // 8 models, whose first steps (eight
    each) fit one pass, are scanned for their handovers together and then
    solved together.  A model whose handover scan fails is left out of its
    batch's solve; a batch whose solve fails (the node cap is shared) is
    solved again one model at a time, from the handovers already found.
    """
    out: list[PropagationResult | Exception] = []
    size = _PASS_STEPS // 8
    for k in range(0, len(models), size):
        batch = models[k : k + size]
        handovers = _tail_points(batch, settings.tail_tol)
        members = [(m, h) for m, h in zip(batch, handovers) if not isinstance(h, Exception)]
        try:
            solved = iter([result for result, _, _ in _solve_window(members, settings)] if members else [])
        except _FAILURES:
            solved = iter([_attempt(_solve_lone, member, settings) for member in members])
        out += [h if isinstance(h, Exception) else next(solved) for h in handovers]
    return out


def _solve_lone(member: tuple[DiabaticModel, tuple[float, np.ndarray]], settings: PropagatorSettings) -> PropagationResult:
    """The result of one member (model, handover) solved on its own."""
    return _solve_window([member], settings)[0][0]


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


def propagate_trace(
    model: DiabaticModel,
    settings: PropagatorSettings = PropagatorSettings(),
    sample_count: int = 512,
) -> list[tuple[float, float, float, float]]:
    """Uniformly sampled (t, |c1|^2, |c2|^2, norm) along the integrated window.

    The samples are diabatic populations, which differ from the adiabatic
    ones by about theta/2 for the mixing angle theta = atan2(V, eps).  The
    window therefore ends at the first point of the handover scan that also
    has theta <= 1e-2, so that the last sample is within about 5e-3 of the
    asymptotic P.  The samples are read off the collocation polynomials of
    the solve's steps, which they do not change: the solve, its nfev and
    its steps are those of the window alone.  The readout evaluates _NODES
    weights at each distinct |t|, which count against the node cap, so a
    sample_count above 2 _MAX_NODES / _NODES (262,144) raises
    NonConvergence at once.
    """
    return _propagate_traced(model, settings, sample_count)[1]


def _propagate_traced(
    model: DiabaticModel, settings: PropagatorSettings, sample_count: int
) -> tuple[PropagationResult, list[tuple[float, float, float, float]]]:
    """The result and the samples of propagate_trace, from its one solve."""
    if not isinstance(sample_count, numbers.Integral) or sample_count < 2:
        raise ValueError(f"sample_count must be an integer >= 2, got {sample_count!r}")
    distinct = (sample_count + 1) // 2
    if distinct * _NODES > _MAX_NODES:
        raise NonConvergence(f"sample_count={sample_count!r} reads {distinct} distinct |t| of {_NODES} weights each, "
                             f"past the collocation node cap of {_MAX_NODES} nodes")
    handover = _tail_point(model, settings.tail_tol, _TRACE_MIXING_ANGLE)
    t_core = handover[0]
    ts = np.linspace(-t_core, t_core, sample_count)
    ts = 0.5 * (ts - ts[::-1])  # exactly odd, so each |t| is read out once
    result, (bp0, bm0), (a, b, lam) = _solve_window([(model, handover)], settings, ts[sample_count // 2 :])[0]
    # t < 0: U(t, 0) = conj(U(-t, 0)) and Lam(t) = -Lam(-t)
    back = slice(sample_count % 2, None)  # the |t| of the samples at t < 0
    a = np.concatenate((a[back][::-1].conj(), a))
    b = np.concatenate((b[back][::-1].conj(), b))
    lam = np.concatenate((-lam[back][::-1], lam))
    c_half, s_half = _mixing_half_angle(model, ts)
    up = (a * bp0 - b.conj() * bm0) * np.exp(-1j * lam)
    dn = (b * bp0 + a.conj() * bm0) * np.exp(1j * lam)
    p1 = np.abs(up * c_half - dn * s_half) ** 2
    p2 = np.abs(up * s_half + dn * c_half) ** 2
    return result, list(zip(ts.tolist(), p1.tolist(), p2.tolist(), (p1 + p2).tolist()))
