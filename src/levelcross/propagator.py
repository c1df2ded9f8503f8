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
series product, reciprocal, square root and shift, so
J(T) = e^{2i Lam(T)} sum_{m < 6} i^(m+1) u_m.  Its error, the omitted
sum_{m >= 6} i^(m+1) u_m, is hypot(u_6, u_7) to leading order: computed
from the next two terms, not estimated from ratios.  The window ends at
the first point of a x1.01 grid from the floor past the level structure
where the terms already decrease, |u_0| > ... > |u_6|, and that error is
at most settings.tail_tol; numpy evaluates the rule on a few hundred grid
points in one pass.  J both prepares the state at -T (gamma odd and Lam
odd give int_{-inf}^{-T} gamma e^{2i Lam} = -conj(J(T))) and completes
the readout to t = +inf through the exactly unitary map

    b+(inf) = (b+ - J b-)/sqrt(1+|J|^2),
    b-(inf) = (b- + conj(J) b+)/sqrt(1+|J|^2).

Since eps -> +inf at both ends while V stays constant, the upper
adiabatic label coincides asymptotically with diabatic state 1, so the
transition probability read in the diabatic basis is |b+(inf)|^2.

M depends on t alone, not on the state, and so does Lam, so the solve
evaluates every coupling value it needs in a few numpy passes before any
state exists.  It splits [0, T] into steps of _NODES = 16 Gauss-Legendre
nodes, first at every eighth of the window (and, for a trace, at each
sample |t|), and evaluates W and gamma at all their nodes in one pass.
Lam - Lam(start) at a step's nodes comes from the spectral integration
matrix of the interpolant of W, and the step's whole integral of W from
Gauss-Legendre quadrature; their cumulative sum gives Lam at each step's
start.  With h the step's width and c = int |gamma| over it (its
coupling), a step is resolved when

    h (|f_14| + |f_15|) + 2 c h (|W_14| + |W_15|) <= rel_tol c + abs_tol,

where f_k and W_k are the trailing Legendre coefficients of
f = gamma e^{2i (Lam - Lam(start))} and of W on the step: the first term
bounds the error of the interpolated coupling, the second the phase error
the step leaves, weighted by its coupling.  A step whose whole coupling
integral h max|gamma| is below abs_tol is resolved too, however fast its
phase turns: it can move the amplitudes by no more than that.  So rel_tol
bounds the error relative to the coupling a step carries and abs_tol the
error any step may add; summed over the half window, whose coupling is at
most pi/2, the error of P is of order rel_tol + (steps) abs_tol, and in
practice far below it (the trailing coefficients overstate the error of a
converged interpolant).  Steps that fail are bisected, and only the new
halves are evaluated again.  On every resolved step, a' = -f b,
b' = conj(f) a is solved from (1, 0) at once by Picard iteration to
convergence: the Gauss collocation solution (Hairer, Norsett & Wanner
1993, sec. II.7), of order 2 x 16 = 32 at the step's end.
The steps chain as SU(2) matrices [[a, -b*], [b, a*]] (b rotated by
e^{-2i Lam(start)}), and their prefix products give U(t, 0) at every step
end.  nfev counts the coupling evaluations, those on rejected steps
included; a solve that would need more than _MAX_NODES of them raises
NonConvergence before it allocates them.

One solve can cover a batch of models, as a sweep's numeric column does:
their steps share the passes, each model's level is evaluated on its own
steps, and each step is accepted on its own, so every model gets the
steps, nfev and n_steps of a lone solve.  The node cap covers the whole
batch, and propagate is the batch of one.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp  # noqa: F401  (unused: levelbench/spans.py wraps both by name)

from .errors import NonConvergence, ToleranceFailure
from .models import DiabaticModel

# Gauss-Legendre nodes per collocation step
_NODES = 16

# coupling evaluations allowed in one solve of a batch, checked before each
# pass allocates its nodes, and the steps one pass evaluates (which bounds
# its memory).  The largest working lone solve measured, N=50 at alpha=10,
# takes 26,000 and a sweep's batch of 1024 acceptance-grid models about
# 0.8 million; a window that would need far more (N=2 at alpha=1e6) fails
# within seconds instead of running on
_MAX_NODES = 1 << 22
_PASS_STEPS = 1 << 13

# Picard sweeps allowed per solve, and the change in the node values at
# which they have converged
_PICARD_ITERATIONS = 64
_PICARD_TOL = 1e-15

# smallest rel_tol a double-precision step can resolve (100 eps); below it
# the roundoff in the trailing coefficients could fail every bisection
# until the node cap
_MIN_REL_TOL = 100.0 * np.finfo(float).eps

__all__ = [
    "PropagatorSettings",
    "PropagationResult",
    "propagate",
    "propagate_trace",
]


@dataclass(frozen=True)
class PropagatorSettings:
    """Integration controls.

    rel_tol and abs_tol set the collocation steps' resolution rule (see
    the module docstring): the error a step may add, relative to the
    coupling it carries and in absolute terms; rel_tol must be at least
    100 eps = 2.22e-14.
    tail_tol bounds the part of the integrated-by-parts tail that the
    sum omits at the handover point t_core, hypot(u_6, u_7) (see
    _tail_error); it alone fixes the window [-t_core, t_core], which each
    propagation covers with one solve on [0, t_core].
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    tail_tol: float = 3e-12

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.rel_tol < _MIN_REL_TOL:
            raise ValueError(
                f"rel_tol must be positive and at least 100 eps = {_MIN_REL_TOL!r}, "
                f"got {self.rel_tol!r}"
            )
        if not (0.0 < self.tail_tol < 1e-6):
            raise ValueError(f"tail_tol must lie in (0, 1e-6), got {self.tail_tol!r}")


@dataclass(frozen=True)
class PropagationResult:
    """Final probability plus diagnostics.

    t_core is the half-width of the window [-t_core, t_core] (the solve
    covers [0, t_core]); tail_error is the size of the tail terms the sum
    omits at t_core (see _tail_error); nfev is the number of coupling
    evaluations of the solve, rejected steps included, and n_steps the
    number of collocation steps it accepted.
    """

    probability: float
    final_norm_drift: float
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

# the handover scan's grid points, and how many of them one numpy pass
# evaluates (the first pass covers a factor 1.01^256 = 12.8 past the start,
# where nearly every handover lies)
_SCAN_POINTS = 2048
_SCAN_CHUNK = 256


# A truncated Taylor series is an array whose first axis is the order k and
# whose other axes, if any, are the points it is expanded at.


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two series at the same points, to the shorter length."""
    n = min(len(a), len(b))
    c = np.zeros_like(b[:n])
    for j in range(n):
        c[j:] += a[j] * b[: n - j]
    return c


def _reciprocal(a: np.ndarray) -> np.ndarray:
    r = np.empty_like(a)
    r[0] = 1.0 / a[0]
    for k in range(1, len(a)):
        r[k] = -(a[1 : k + 1] * r[k - 1 :: -1]).sum(axis=0) * r[0]
    return r


def _sqrt(a: np.ndarray) -> np.ndarray:
    w = np.empty_like(a)
    w[0] = np.sqrt(a[0])
    for k in range(1, len(a)):
        w[k] = (a[k] - (w[1:k] * w[k - 1 : 0 : -1]).sum(axis=0)) / (2.0 * w[0])
    return w


def _shift(a: np.ndarray) -> np.ndarray:
    """The series of the derivative, one order shorter."""
    k = np.arange(1, len(a), dtype=float).reshape((-1,) + (1,) * (a.ndim - 1))
    return k * a[1:]


def _tail_series(model: DiabaticModel, t) -> np.ndarray:
    """The tail terms u_0, ..., u_{_TAIL_TERMS + 1} at t (a float or an
    array of them), stacked on the first axis.

    u_0 = V eps' / (4 W^3) and u_{m+1} = u_m' / (2W), with W = sqrt(eps^2 + V^2),
    carried as Taylor series in the offset from t.  Each derivative shortens
    a series by one order, so eps enters to order _TAIL_TERMS + 2.
    """
    n = _TAIL_TERMS + 2  # length of the series of u_0, and of eps'
    eps = model.level_series(t, n + 1)
    v = model.V
    s = _mul(eps[:n], eps[:n])
    s[0] += v * v
    inv_w = _reciprocal(_sqrt(s))
    u = 0.25 * v * _mul(_shift(eps), _mul(inv_w, _mul(inv_w, inv_w)))
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


def _tail_point(model: DiabaticModel, tol: float, max_angle: float = math.pi) -> tuple[float, np.ndarray]:
    """The handover point t_core and the tail terms there (see _tail_series).

    t_core is the first point of the grid max(floor, 1) x 1.01^k where the
    terms decrease up to the first omitted one, |u_0| > ... > |u_6|,
    _tail_error is at most tol, and the mixing angle atan2(V, eps(t)) is at
    most max_angle (by default any angle passes).  Before the terms
    decrease the series is not yet asymptotic, and small late terms prove
    nothing.

    The 1% step keeps the window within 1% of the first passing point, which
    matters at large N, where the phase 2W ~ 2 t^N oscillates fastest at the
    window ends.  The rule is evaluated on _SCAN_CHUNK grid points per numpy
    pass: the series costs about as much at one point as at hundreds.
    """
    start = max(model.floor, 1.0)
    for first in range(0, _SCAN_POINTS, _SCAN_CHUNK):
        t = start * 1.01 ** np.arange(first, first + _SCAN_CHUNK)
        with np.errstate(all="ignore"):  # an overflow ends the scan below
            u = _tail_series(model, t)
            size = np.abs(u[: _TAIL_TERMS + 1])
            passes = (_tail_error(u) <= tol) & np.all(size[:-1] > size[1:], axis=0)
            passes &= np.arctan2(model.V, model.level(t)[0]) <= max_angle
        stop = passes | ~np.isfinite(u).all(axis=0)
        if stop.any():
            k = int(stop.argmax())
            if not passes[k]:
                raise OverflowError(f"tail series overflows at t = {float(t[k])!r} for {model!r}")
            return float(t[k]), u[:, k]
    raise NonConvergence(f"could not locate tail handover point for {model!r}")


def _tail_coefficient(terms: np.ndarray) -> complex:
    """sum_{m < 6} i^(m+1) u_m, so that J(t) = e^{2i Lam(t)} times it."""
    return sum(p * float(u) for p, u in zip(_TAIL_PHASES, terms))


@functools.cache
def _collocation() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes x and weights w on [-1, 1] for _NODES nodes, and
    the matrices that take values at the nodes to the two highest Legendre
    coefficients of their interpolant, and to its integral from -1 to each
    node.

    Both act from the right on rows of node values (hence transposed).
    Built on first use, so that a process that never propagates does not
    start the LAPACK and BLAS libraries (about 1 MB of memory)."""
    leg, m = np.polynomial.legendre, _NODES
    x, w = leg.leggauss(m)
    # c_j = (j + 1/2) sum_i w_i P_j(x_i) v_i, exact for the interpolant (degree < 2m)
    to_coeffs = (np.arange(m) + 0.5)[:, None] * leg.legvander(x, m - 1).T * w
    antiderivatives = np.column_stack([leg.legval(x, leg.legint(e, lbnd=-1)) for e in np.eye(m)])
    return x, w, to_coeffs[-2:].T.copy(), (antiderivatives @ to_coeffs).T.copy()


def _resolve(
    members: Sequence[tuple[DiabaticModel, tuple[float, np.ndarray]]],
    settings: PropagatorSettings,
    times: Sequence[float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Steps of [0, t_core] on which the coupling is resolved, for each
    member (model, handover) of a batch, t_core being handover[0].

    Returns, sorted by member and then by position, each step's member
    index, end and half-width, the coupling f = gamma e^{2i (Lam - Lam(start))}
    at its nodes and the integral of W over it, and the number of coupling
    evaluations made for each member.  Every eighth of a member's window is
    a step boundary, and so is each of the `times` in [0, t_core].  Steps
    that fail the resolution rule (see the module docstring) are bisected,
    and only the new halves are evaluated.  A pass evaluates at most
    _PASS_STEPS steps of any members, each member's level on its own steps;
    the whole batch evaluates at most _MAX_NODES nodes.
    """
    nodes, weights, trailing, integrate = _collocation()
    models = [model for model, _ in members]
    # the queue of steps, a row (member, start, end) each, kept sorted by
    # member so that each member's steps in a pass are contiguous
    queue, initial = [], []
    for k, (model, (t_core, _)) in enumerate(members):
        if model.V * model.V == 0.0:  # where eps = 0 (t = 0 for a glancing model) gamma would be 0/0
            raise ZeroDivisionError(f"squared coupling V^2 underflows to 0 for {model!r}")
        grid = sorted({*times, *np.linspace(0.0, t_core, 9).tolist()})
        queue += [(k, a, b) for a, b in zip(grid, grid[1:])]
        initial.append(len(grid) - 1)
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
        abs_g = np.abs(g)
        coupling = half * (abs_g @ weights)
        f_err = 2.0 * half * np.abs(f @ trailing).sum(axis=1)
        phase_err = 4.0 * half * np.abs(big_w @ trailing).sum(axis=1)
        ok = f_err + phase_err * coupling <= settings.rel_tol * coupling + settings.abs_tol
        ok |= 2.0 * half * abs_g.max(axis=1) <= settings.abs_tol
        done.append((steps[ok], half[ok], f[ok], half[ok] * (big_w[ok] @ weights)))
        # a failed step's two halves go side by side, ahead of the rest, which keeps the queue sorted
        fail = ~ok
        halves = steps[fail].repeat(2, axis=0)
        halves[1::2, 1] = halves[::2, 2] = (lo + half)[fail]
        queue = np.concatenate((halves, queue))
    steps, half, f, lam = (np.concatenate(parts) for parts in zip(*done))
    order = np.lexsort((steps[:, 1], steps[:, 0]))
    member = steps[order, 0].astype(int)
    # each failed step gave way to two, so a member evaluated 2 (accepted) - (initial) steps
    accepted = np.bincount(member, minlength=len(members)).tolist()
    nfev = [(2 * n - n0) * _NODES for n, n0 in zip(accepted, initial)]
    return member, steps[order, 2], half[order], f[order], lam[order], nfev


def _step_maps(half: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) at the end of each step from (1, 0) at its start, for
    a' = -f b, b' = conj(f) a: the Gauss-Legendre collocation solution, by
    Picard iteration to convergence on up to _PASS_STEPS steps at once."""
    _, weights, _, integrate = _collocation()
    a_end, b_end = np.empty(half.size, dtype=complex), np.empty(half.size, dtype=complex)
    for k in range(0, half.size, _PASS_STEPS):
        hf = half[k : k + _PASS_STEPS, None] * f[k : k + _PASS_STEPS]
        hfc = hf.conj()
        a, b = np.ones_like(hf), np.zeros_like(hf)
        for _ in range(_PICARD_ITERATIONS):
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
    return a_end, b_end


def _solve_window(
    members: Sequence[tuple[DiabaticModel, tuple[float, np.ndarray]]],
    settings: PropagatorSettings,
    times: Sequence[float] = (),
) -> list[tuple[PropagationResult, tuple[complex, complex], list[tuple[complex, complex, float]]]]:
    """The propagation over [-t_core, t_core] of each member (model,
    handover) of a batch, from one solve of all their windows [0, t_core].

    `handover` is (t_core, tail terms there), as _tail_point returns it.
    Returns, for each member, the result, the state (b+, b-) at t = 0, from
    which U(t, 0) carries it to any t, and (a, b, Lam) at each of the
    sorted `times` in [0, t_core], which are step boundaries of the solve.
    """
    member, ends, half, f, lam_steps, nfev = _resolve(members, settings, times)
    a_steps, b_steps = _step_maps(half, f)
    bounds = np.searchsorted(member, np.arange(len(members) + 1)).tolist()
    out = []
    for k, (_, (t_core, terms)) in enumerate(members):
        steps = slice(bounds[k], bounds[k + 1])
        lam_ends = np.cumsum(lam_steps[steps])
        # f carries the phase from each step's start; Lam there rotates b
        b_rotated = b_steps[steps] * np.exp(-2j * (lam_ends - lam_steps[steps]))
        a, b = 1.0 + 0.0j, 0.0j
        prefix = [(a, b)]  # U(t, 0) = [[a, -b*], [b, a*]] at t = 0 and at each step's end
        for ak, bk in zip(a_steps[steps].tolist(), b_rotated.tolist()):
            a, b = ak * a - bk.conjugate() * b, bk * a + ak.conjugate() * b
            prefix.append((a, b))
        at = np.searchsorted(ends[steps], times, side="right")
        lams = np.concatenate(([0.0], lam_ends))
        states = [(*prefix[i], float(lams[i])) for i in at.tolist()]
        j = cmath.exp(2j * float(lam_ends[-1])) * _tail_coefficient(terms)
        norm2 = 1.0 + abs(j) ** 2
        # the state (conj(J), 1)/sqrt(norm2) at -t_core, carried to 0 by U^T and to t_core by U
        bp0 = (a * j.conjugate() + b) / math.sqrt(norm2)
        bm0 = (a.conjugate() - b.conjugate() * j.conjugate()) / math.sqrt(norm2)
        bp, bm = a * bp0 - b.conjugate() * bm0, b * bp0 + a.conjugate() * bm0
        result = PropagationResult(
            probability=min(max(abs(bp - j * bm) ** 2 / norm2, 0.0), 1.0),
            final_norm_drift=abs(abs(bp) ** 2 + abs(bm) ** 2 - 1.0),
            t_core=t_core,
            tail_error=float(_tail_error(terms)),
            nfev=nfev[k],
            n_steps=len(prefix) - 1,
        )
        out.append((result, (bp0, bm0), states))
    return out


def _propagate_batch(models: Sequence[DiabaticModel], settings: PropagatorSettings) -> list[PropagationResult]:
    """propagate for each of `models`, from one solve of all their windows.

    Each member keeps its own handover scan, step acceptance, nfev and
    n_steps, so its result is that of a lone propagate up to rounding; the
    passes and the node cap are shared.  Any member's failure raises for the
    whole batch.
    """
    members = [(model, _tail_point(model, settings.tail_tol)) for model in models]
    return [result for result, _, _ in _solve_window(members, settings)]


def propagate(model: DiabaticModel, settings: PropagatorSettings = PropagatorSettings()) -> PropagationResult:
    """Transition probability P = |c1(+inf)|^2 starting from |c2(-inf)|^2 = 1."""
    return _propagate_batch([model], settings)[0]


def _mixing_half_angle(model: DiabaticModel, t: float) -> tuple[float, float]:
    # cos(theta/2), sin(theta/2) of the adiabatic mixing angle theta = atan2(V, eps);
    # for eps < 0 the half angle comes from pi - theta = atan2(V, -eps), so the
    # small cosine does not inherit the rounding of theta near pi
    eps, v = model.level(t)[0], model.V
    if eps >= 0.0:
        half = 0.5 * math.atan2(v, eps)
        return math.cos(half), math.sin(half)
    half = 0.5 * math.atan2(v, -eps)
    return math.sin(half), math.cos(half)


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
    asymptotic P.  Each distinct |t| is a step boundary of the solve, so a
    sample_count above about 500,000 reaches its node cap.
    """
    return _propagate_traced(model, settings, sample_count)[1]


def _propagate_traced(
    model: DiabaticModel, settings: PropagatorSettings, sample_count: int
) -> tuple[PropagationResult, list[tuple[float, float, float, float]]]:
    """The result and the samples of propagate_trace, from its one solve."""
    if sample_count < 2:
        raise ValueError(f"sample_count must be >= 2, got {sample_count!r}")
    handover = _tail_point(model, settings.tail_tol, _TRACE_MIXING_ANGLE)
    t_core = handover[0]
    ts = np.linspace(-t_core, t_core, sample_count).tolist()
    times = sorted({abs(t) for t in ts})
    result, (bp0, bm0), states = _solve_window([(model, handover)], settings, times)[0]
    at = dict(zip(times, states))
    out = []
    for t in ts:
        a, b, lam = at[abs(t)]
        if t < 0.0:  # U(t, 0) = conj(U(-t, 0)) and Lam(t) = -Lam(-t)
            a, b, lam = a.conjugate(), b.conjugate(), -lam
        c_half, s_half = _mixing_half_angle(model, t)
        up = (a * bp0 - b.conjugate() * bm0) * cmath.exp(-1j * lam)
        dn = (b * bp0 + a.conjugate() * bm0) * cmath.exp(1j * lam)
        c1 = up * c_half - dn * s_half
        c2 = up * s_half + dn * c_half
        p1 = abs(c1) ** 2
        p2 = abs(c2) ** 2
        out.append((t, p1, p2, p1 + p2))
    return result, out
