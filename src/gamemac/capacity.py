"""Sum-rate bounds and capacity-region estimates for game-compiled channels.

Three families of results live here:

* an analytic upper bound on the sum rate of a game channel, driven only by
  the game's classical value: for a tunable slack ``delta`` there is a
  largest ``eps`` with
  ``(delta + h(eps)) / (1 - eps) = d(eps || 1 - omega)`` such that the sum
  rate is at most ``max{(1 - eps) log d, log d - delta}``; the first branch
  rises with ``delta`` and the second falls, so the bound is least where they
  meet, at ``delta = eps log d``, one increasing equation in ``eps`` that a
  bisection solves to ``1e-12`` relative;
* a randomized inner bound on the capacity region, tracing the boundary by
  maximizing weighted pentagon vertices over product input distributions
  with alternating Blahut–Arimoto block updates stopped on a Frank–Wolfe gap:
  the first two sweeps take 20 updates a block, which pick the local optimum
  a restart climbs without solving the block, and every later sweep takes
  5, an inexact block step that still never lowers the objective (on the
  sum-rate weight the steps are over-relaxed, and an ascent that is not
  shown to climb is replaced by one plain step); the alternation is
  shortened by a SQUAREM extrapolation after every second sweep that is
  kept only where it stays feasible and raises the objective;
* closed-form achievable rates for channels built from linear-system games
  (the games themselves are built in :mod:`gamemac.games`).

The pentagon rates and the channel layouts come from :mod:`gamemac.channel`.
All rates are in bits.  Every randomized routine takes an explicit seed and
is deterministic for a fixed seed and fixed restart and weight counts.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple, Sequence

import numpy as np

from .channel import Mac, ProductInput, _log2, _rates, _row_entropies, _Workspace, pentagon
from .games import Game

_INV_LN2 = 1.0 / math.log(2.0)

# Optimizer schedule: the first _EXACT_SWEEPS sweeps give each block _BA_STEPS
# Blahut–Arimoto updates.  They do not solve it (its gaps stay far above
# _GAP_TOL); they pick which local optimum a restart climbs.  Every later sweep
# gives each block _LATE_BA_STEPS updates, an inexact block step that still
# never lowers the objective.  Sweeps run until both block gaps are at most
# _GAP_TOL, or _MAX_SWEEPS sweeps; see _ascend_block and _alternate.
_BA_STEPS = 20
_EXACT_SWEEPS = 2
_LATE_BA_STEPS = 5
_GAP_TOL = 1e-5
_MAX_SWEEPS = 2000
_REVIVE = 1e-8
_WEIGHT_FLOOR = 1e-300  # least block weight a BA step divides by
_SUM_RATE_STEP = 1.5  # over-relaxed BA exponent on the sum-rate rows
_FALL_TOL = 1e-13  # rounding allowed in the checks of a relaxed ascent


# ---------------------------------------------------------------------------
# binary entropy machinery


def binary_entropy(x: float) -> float:
    """Entropy in bits of a coin with bias ``x``; ``h(0) = h(1) = 0``."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy needs x in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _crossing(gap, y: float) -> float:
    """Root of an increasing ``gap`` with ``gap(0) < 0 < gap(y)``.

    Bisection on ``[0, y]`` until the interval is below ``1e-12`` relative to
    its upper end, so roots far below ``y`` keep their precision.
    """
    lo, hi = 0.0, y
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _slack_gap(delta: float, e: float, w: float) -> float:
    """``(delta + h(e)) / (1 - e) - d(e || 1 - w)``, increasing in ``e``.

    ``d`` is taken from ``w`` itself: ``1 - (1 - w)`` loses a small ``w``.
    """
    div = (1.0 - e) * (math.log2(1.0 - e) - math.log2(w))
    if e > 0.0:
        div += e * math.log2(e / (1.0 - w))
    return (delta + binary_entropy(e)) / (1.0 - e) - div


def _omega(omega_u) -> float:
    """``omega_u`` as a float strictly between 0 and 1; raises ValueError otherwise."""
    w = float(omega_u)
    if not 0.0 < w < 1.0:
        raise ValueError(f"omega must lie strictly between 0 and 1, got {w!r}")
    return w


def solve_eps_star(delta: float, omega_u: float) -> float:
    """Solve ``(delta + h(e)) / (1 - e) = d(e || 1 - omega)`` for ``e``.

    The left side increases in ``e`` and the right side decreases on
    ``(0, 1 - omega)``, so for ``0 <= delta < -log2(omega)`` there is a
    unique root, found by bisection to ``1e-12`` relative.  Returns 0 when
    there is no root (once ``delta`` reaches ``-log2(omega)``); the sum-rate
    bound there degenerates to the trivial ``log d``.
    """
    w = _omega(omega_u)
    if not delta >= 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta!r}")
    if delta >= -math.log2(w):  # the gap at e = 0, delta + log2(w), is >= 0
        return 0.0
    return _crossing(lambda e: _slack_gap(delta, e, w), 1.0 - w)


@dataclasses.dataclass(frozen=True)
class UpperBoundResult:
    """Optimized analytic sum-rate upper bound for a game channel.

    Attributes:
        delta_star: Minimizing slack (bits).
        eps_star: Matching solution of the slack equation (probability).
        bound: The bound value ``u(delta_star)`` in bits.
        omega_u: Classical value the bound was driven by.
    """

    delta_star: float
    eps_star: float
    bound: float
    omega_u: float

    def __post_init__(self):
        if not 0.0 < self.delta_star < -math.log2(self.omega_u):
            raise ValueError("delta_star outside (0, -log2(omega))")
        if not 0.0 < self.eps_star <= 1.0 - self.omega_u:
            raise ValueError("eps_star outside (0, 1 - omega]")


def _log_dim(g: Game) -> float:
    return math.log2(g.nx1) + math.log2(g.nx2)


def sum_rate_upper_bound(g: Game, omega_u) -> UpperBoundResult:
    """Best analytic sum-rate upper bound for the channel compiled from ``g``.

    Minimizes ``u(delta) = max{(1 - eps*(delta)) log d, log d - delta}`` over
    ``delta in (0, -log2(omega))``, where ``d = nx1 * nx2`` and ``omega_u``
    is the game's classical value under uniform questions (or any valid
    upper bound on it; the caller supplies it).  The first branch rises with
    ``delta`` (``eps*`` falls) and the second falls, so the minimum sits where
    they meet, at ``delta = eps log d``.  The slack equation then reads
    ``(eps log d + h(eps)) / (1 - eps) = d(eps || 1 - omega)``, increasing in
    ``eps``, and is solved by bisection to ``1e-12`` relative.

    Raises:
        ValueError: If ``omega_u``'s float is not strictly between 0 and 1
            (at 1 no nontrivial bound exists), or if ``g`` has one question
            pair (``d = 1``: every slack gives the bound 0).
    """
    w = _omega(omega_u)
    log_d = _log_dim(g)
    if log_d == 0.0:
        raise ValueError("a 1 x 1 game has sum rate 0: no bound to optimize")
    eps = _crossing(lambda e: _slack_gap(e * log_d, e, w), 1.0 - w)
    return UpperBoundResult(eps * log_d, eps, (1.0 - eps) * log_d, w)


def upper_bound_curve(g: Game, omega_u, points: int = 200) -> np.ndarray:
    """Sample ``(delta, u(delta))`` over the closed interval ``[0, -log2 omega]``.

    At both ends the bound degenerates to ``log d`` (at the left end the
    subtracted slack vanishes, at the right end no positive loss floor can be
    certified), giving the characteristic dip-and-recover shape.
    """
    w = _omega(omega_u)
    log_d = _log_dim(g)
    deltas = np.linspace(0.0, -math.log2(w), points)
    eps = np.array([solve_eps_star(d, w) for d in deltas])
    return np.column_stack([deltas, np.maximum((1.0 - eps) * log_d, log_d - deltas)])


# ---------------------------------------------------------------------------
# inner bounds by weighted-vertex scalarization


class InnerPoint(NamedTuple):
    """An achievable rate pair: one pentagon corner at one optimizer run.

    The run is weight ``mu_index`` and restart ``restart``.  ``gap`` is the
    larger of the two block Frank–Wolfe gaps of the weighted objective at
    the run's input: with either sender fixed, the other can raise it by at
    most ``gap`` bits.  A gap of at most ``_GAP_TOL`` certifies the run; a
    run stopped at ``_MAX_SWEEPS`` before that has ``gap = inf``.  The rate
    pair is achievable either way.
    """

    r1: float
    r2: float
    mu_index: int
    restart: int
    gap: float


@dataclasses.dataclass(frozen=True)
class RegionBound:
    """An inner-bound boundary of a rate region, from the R1 axis to the R2 axis.

    ``vertices`` is a convex chain with R1 nonincreasing and R2 nondecreasing;
    ``witnesses`` records every evaluated pentagon corner.  Row
    ``row = mu_index * restarts + restart`` of the read-only ``pa`` and
    ``pb`` is the product input of witnesses ``2 * row`` (the r1-priority
    corner) and ``2 * row + 1`` (the r2-priority corner).
    """

    vertices: tuple[tuple[float, float], ...]
    witnesses: tuple[InnerPoint, ...]
    pa: np.ndarray
    pb: np.ndarray

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a region needs at least one vertex")
        for (r1a, r2a), (r1b, r2b) in zip(self.vertices, self.vertices[1:]):
            if r1b > r1a + 1e-12 or r2b < r2a - 1e-12:
                raise ValueError("vertices must have R1 nonincreasing, R2 nondecreasing")
        if min(min(v) for v in self.vertices) < 0.0:
            raise ValueError("rates must be nonnegative")


def _vertex_coeffs(mu):
    """Coefficients (alpha, beta, gamma, kappa) of the weighted objective.

    The objective ``mu * R1 + (1 - mu) * R2`` at the dominant pentagon corner
    expands into ``alpha H(Z) + beta H(Z|B) + gamma H(Z|A) - kappa H(Z|AB)``.
    ``mu`` is an array of weights, one per batch row, and so is each
    coefficient.
    """
    high = mu >= 0.5
    return (
        np.where(high, 1.0 - mu, mu),
        np.where(high, 2.0 * mu - 1.0, 0.0),
        np.where(high, 0.0, 1.0 - 2.0 * mu),
        np.where(high, mu, 1.0 - mu),
    )


def _span(coeff):
    """The batch rows from the first to the last nonzero ``coeff``, as a slice.

    ``coeff`` holds one value per batch row; ``None`` if it is zero everywhere.
    """
    if not coeff.any():
        return None
    on = np.flatnonzero(coeff)
    return slice(on[0], on[-1] + 1)


class _BlockContext:
    """Quantities that stay fixed while one sender's distribution is optimized.

    With the other sender's batch ``pb`` frozen, the per-input output
    distributions ``cond_a[r, a] = sum_b pb[r, b] N(.|a, b)``, their
    entropies, and the linear noise-floor term are all constant, leaving
    only small per-candidate work inside the ascent loop.  ``transposed``
    selects the second sender's block (``pb`` is then the first sender's
    batch, and the coefficients of ``H(Z|B)`` and ``H(Z|A)`` trade places).
    ``coeffs`` holds four arrays from :func:`_vertex_coeffs`, each with one
    value per batch row.  Each entropy term is taken only on the rows
    ``rows_a`` or ``rows_b`` that :func:`_span` finds for its coefficient,
    ``None`` when no row weighs it (rows inside a span with a zero
    coefficient weigh it by 0).  The solver's
    batches are ordered by weight, and each coefficient is nonzero on one
    range of weights, so there a span holds exactly those rows.
    """

    def __init__(self, pb, ws: _Workspace, coeffs, transposed=False):
        side = int(transposed)
        if transposed:
            coeffs = (coeffs[0], coeffs[2], coeffs[1], coeffs[3])
        self.chan_flat = ws.flat[side]
        na, self.nb, self.nz = len(self.chan_flat), pb.shape[1], ws.nz
        alpha, beta, gamma, kappa = coeffs
        self.pb, self.alpha, self.beta, self.weight = pb, alpha, beta, alpha + beta
        # the sum-rate rows (mu = 1/2), and only they, take the relaxed BA step
        self.step = np.where((beta == 0.0) & (gamma == 0.0), _SUM_RATE_STEP, 1.0)
        self.rows_a, self.rows_b = _span(alpha), _span(beta)
        self.cond_a = (pb @ ws.flat[1 - side]).reshape(len(pb), na, self.nz)
        # the noise-floor term, linear in pa
        self.lin = kappa[:, None] * (pb @ ws.rowent[side].T)
        rows = _span(gamma)
        if rows is not None:
            self.lin[rows] -= gamma[rows, None] * _row_entropies(self.cond_a[rows])
        # the +1 / ln 2 of each entropy's slope, summed over the outputs of a
        # distribution, is one constant per row: (alpha + beta) / ln 2
        self.const = -_INV_LN2 * self.weight[:, None] - self.lin
        if self.rows_b is not None:  # pb[b] over the (b, z) columns of the channel
            self.pb_cols = np.repeat(pb[self.rows_b], self.nz, axis=1)

    def objective(self, pa):
        """Objective values for candidate rows ``pa``, one per batch row."""
        out = -(pa * self.lin).sum(axis=1)
        if self.rows_a is not None:
            pz = np.matmul(pa[:, None, :], self.cond_a)[:, 0, :]
            out = out + self.alpha * _row_entropies(pz)
        if self.rows_b is not None:
            q = (pa @ self.chan_flat).reshape(len(pa), self.nb, self.nz)
            out = out + self.beta * (self.pb * _row_entropies(q)).sum(axis=1)
        return out

    def gradient(self, pa):
        """Gradient of :meth:`objective` with respect to ``pa``, a new array."""
        grad = self.const.copy()
        rows = self.rows_a
        if rows is not None:
            cond = self.cond_a[rows]
            lg = _log2(np.matmul(pa[rows, None, :], cond)[:, 0, :])
            back = np.matmul(cond, lg[:, :, None])[:, :, 0]
            grad[rows] -= self.alpha[rows, None] * back
        rows = self.rows_b
        if rows is not None:
            back = (self.pb_cols * _log2(pa[rows] @ self.chan_flat)) @ self.chan_flat.T
            grad[rows] -= self.beta[rows, None] * back
        return grad

    def blind(self, pa, rows):
        """Inputs whose slope :meth:`gradient` reads finite but is ``+inf``.

        ``pa`` holds candidates for the batch rows ``rows`` only, one each.
        Such an input reaches an output that has probability 0 in an entropy
        term with a positive coefficient; :meth:`gradient` takes ``log 0``
        as 0 there.  Only an input at (or underflowing to) zero mass can.
        """
        out = np.zeros(pa.shape, dtype=bool)
        if self.rows_a is not None:
            cond = self.cond_a[rows]
            dead = np.matmul(pa[:, None, :], cond)[:, 0, :] <= 0.0
            hit = ((cond > 0.0) & dead[:, None, :]).any(axis=2)
            out |= hit & (self.alpha[rows, None] > 0.0)
        if self.rows_b is not None:
            q = (pa @ self.chan_flat).reshape(len(pa), self.nb, self.nz)
            dead = (q <= 0.0) & (self.pb[rows, :, None] > 0.0)
            hit = dead.reshape(len(pa), -1).astype(float) @ self.chan_flat.T > 0.0
            out |= hit & (self.beta[rows, None] > 0.0)
        return out


def _ascend_block(pa, ctx: _BlockContext, hold, steps: int):
    """Batched Blahut–Arimoto ascent over one sender's distributions.

    With the other sender frozen the objective is
    ``alpha I(A;Z) + beta I(A;Z|B)`` plus a term linear in ``pa``, so it is
    concave, and the plain multiplicative update
    ``p <- p 2^(grad / (alpha + beta))`` (normalized per row, with each
    row's own ``alpha + beta``) climbs it monotonically with no step size:
    the objective gains at least ``(alpha + beta) ((p' - p) . y - D(p' || p))``
    with ``y = (grad - max grad) / (alpha + beta)``, since the output
    divergence the step gives up is at most the input one, and for the
    plain ``p'`` that is ``log2 Z - p . y >= 0`` (Jensen), ``Z`` the step's
    normalizer.  ``ctx`` holds one set of coefficients per row of ``pa``.
    Rows with ``alpha + beta = 0`` have a linear objective and move to the
    vertex of their largest gradient entry.

    The sum-rate rows (``mu = 1/2``: ``beta = gamma = 0``, so only
    ``alpha H(Z)`` is left) take the over-relaxed step
    ``p' ∝ p 2^(lambda y)`` with ``lambda = ctx.step = _SUM_RATE_STEP``
    (Matz & Duhamel, ITW 2004), which needs fewer steps to converge; every
    other row keeps ``lambda = 1``, bit for bit.  A relaxed step can
    overshoot: on a noiseless channel the plain step lands on the optimum
    and the relaxed one goes past it, to ``p^(-1/2)``, and lowers the
    objective.  So a relaxed ascent is checked at its last step.  At a
    normalized ``p`` a row's objective is ``p . grad + (alpha + beta) /
    ln 2``, so that step's gradient tells whether the steps before it
    lowered the objective by more than ``_FALL_TOL``; no gradient follows
    the last step itself, which must make the bound above,
    ``log2 Z - (lambda - 1) p' . y - p . y``, nonnegative up to rounding.
    A row that fails either check takes one plain step from where it
    started instead.  So no block ascent ends below its start beyond
    rounding, relaxed or not, though a relaxed step inside one may dip.

    A row's Frank–Wolfe gap ``max_a grad_a - p . grad`` at the incoming
    ``pa`` bounds what its block can still gain.  Rows in the boolean array
    ``hold`` with a gap within ``_GAP_TOL`` stay put; the others take
    ``steps`` updates: :func:`_alternate` asks for ``_BA_STEPS`` in its first
    ``_EXACT_SWEEPS`` sweeps and ``_LATE_BA_STEPS`` after them.  BA
    multiplies, so a zero never returns: a row whose best input has mass
    below ``_REVIVE`` first takes a Frank–Wolfe step of that length toward
    it, too short to lower the objective.  A held row whose gap reads within
    ``_GAP_TOL`` but that has a :meth:`_BlockContext.blind` input is open
    (gap ``inf``), and that input counts as its best; a row is certified
    only while held, so this check stays off the rows that take BA steps
    anyway.

    The updates run on the whole batch.  A row that takes no BA step divides
    its exponent by ``inf``, so it cannot overflow or lose all its mass, and
    only the rows that take BA steps are written back: a held row returns
    bit for bit as its gap was measured.  When no row takes a BA step the
    loop is skipped.  The block weight is floored at ``_WEIGHT_FLOOR`` once
    per block, so the exponent stays finite: ``grad - max grad`` is at most
    about 2 * 1074 bits per unit weight plus the bounded linear term.  A row
    whose weight is below the floor still underflows to mass 0 off its best
    inputs, the weight -> 0 limit, which is the linear block's vertex jump.

    Deterministic for a fixed batch (BLAS may round a row differently in
    another batch shape).  Returns the updated rows and the gaps of the
    incoming rows.
    """
    grad = ctx.gradient(pa)
    value = (pa * grad).sum(axis=1)  # the objective, less (alpha + beta) / ln 2
    gap = grad.max(axis=1) - value
    best = np.argmax(grad, axis=1)
    low = np.nonzero(hold & (gap <= _GAP_TOL))[0]
    if len(low):
        blind = ctx.blind(pa[low], low)
        hit = blind.any(axis=1)
        gap[low[hit]] = np.inf
        best[low[hit]] = blind[hit].argmax(axis=1)
    weight = ctx.weight
    move = (gap > _GAP_TOL) | ~hold
    at = np.arange(len(pa)), best
    starved = pa[at] < _REVIVE
    fw_step = move * np.where(weight == 0.0, 1.0, _REVIVE * starved)
    pa = pa * (1.0 - fw_step)[:, None]
    pa[at] += fw_step
    ba = move & (weight != 0.0)
    if not ba.any():
        return pa, gap
    lam = ctx.step
    floor = np.where(ba, np.maximum(weight, _WEIGHT_FLOOR), np.inf)[:, None]
    div = floor / lam[:, None]
    if (starved & ba).any():
        grad = ctx.gradient(pa)
        value = (pa * grad).sum(axis=1)
    p, g = pa, grad
    for step in range(steps):
        if step:
            g = ctx.gradient(p)
        x = (g - g.max(axis=1, keepdims=True)) / div
        last, p = p, p * np.exp2(x)
        z = p.sum(axis=1)
        p /= z[:, None]
    relax = lam != 1.0
    if relax.any():
        # keep a relaxed ascent where the steps before the last did not lower
        # the objective and the last step's ascent bound holds, both up to
        # rounding; the bound is taken in x = lambda y, where it reads
        # lambda / (alpha + beta) = 3 times the gain it bounds in bits
        lift = (lam - 1.0) * np.vecdot(p, x) + np.vecdot(last, x)
        fell = lam * np.log2(z) < lift - _FALL_TOL
        if steps > 1:
            fell |= np.vecdot(last, g) < value - _FALL_TOL
        fell &= relax & ba
        if fell.any():  # one plain step from where the row started
            back = np.flatnonzero(fell)
            x = (grad[back] - grad[back].max(axis=1, keepdims=True)) / floor[back]
            p[back] = pa[back] * np.exp2(x)
            p[back] /= p[back].sum(axis=1, keepdims=True)
    pa[ba] = p[ba]
    return pa, gap


def _extrapolate(x0, x1, x2):
    """SQUAREM step length and jump of each row of a sweep pair ``x0 -> x1 -> x2``.

    With ``r = x1 - x0`` and ``v = x2 - x1 - r`` the jump is
    ``x0 - 2 alpha r + alpha^2 v``, ``alpha = min(-|r| / |v|, -1)``; it is
    ``x2`` at ``alpha = -1``.  If a jump has a negative entry ``alpha`` moves
    halfway toward -1, at most 10 times, and then to -1.  All eleven
    candidates are formed at once, and a row takes its first one without a
    negative entry.  Returns each row's ``alpha`` and jump; the jump is
    meaningful only where ``alpha < -1``.
    """
    r = x1 - x0
    v = x2 - x1 - r
    norm_v = np.linalg.norm(v, axis=1)
    alphas = np.empty((len(x0), 11))
    alphas[:, 0] = -np.linalg.norm(r, axis=1) / np.where(norm_v > 0.0, norm_v, np.inf)
    np.minimum(alphas[:, 0], -1.0, out=alphas[:, 0])
    for k in range(10):
        alphas[:, k + 1] = 0.5 * (alphas[:, k] - 1.0)
    a = alphas[:, :, None]
    x = x0[:, None, :] - 2.0 * a * r[:, None, :] + a**2 * v[:, None, :]
    ok = ~(x < 0.0).any(axis=2)
    rows, first = np.arange(len(x0)), ok.argmax(axis=1)
    return np.where(ok[rows, first], alphas[rows, first], -1.0), x[rows, first]


def _squarem(x0, x1, pa, pb, ws: _Workspace, coeffs, before):
    """Safeguarded SQUAREM jump for rows that took a sweep pair ``x0 -> x1 -> x2``.

    A state is ``x = [pa | pb]``; ``x2`` is the incoming ``(pa, pb)`` and
    ``before`` the rows' weighted objective there.  A row keeps its
    :func:`_extrapolate` jump, with each block renormalized, only if
    ``alpha < -1`` and the objective there is strictly above ``before``.
    Returns the rows' ``pa``, ``pb`` and the indices of the rows that jumped.
    """
    alpha, x = _extrapolate(x0, x1, np.hstack([pa, pb]))
    jump = np.nonzero(alpha < -1.0)[0]
    na = pa.shape[1]
    xa, xb = x[jump, :na], x[jump, na:]
    xa, xb = xa / xa.sum(axis=1, keepdims=True), xb / xb.sum(axis=1, keepdims=True)
    keep = _BlockContext(xb, ws, [k[jump] for k in coeffs]).objective(xa) > before[jump]
    jump = jump[keep]
    pa[jump], pb[jump] = xa[keep], xb[keep]
    return pa, pb, jump


def _alternate(pa, pb, ws: _Workspace, coeffs):
    """Alternating block ascent over the two input distributions.

    Each sweep ascends the first sender's block, then the second's, with
    ``_BA_STEPS`` Blahut–Arimoto updates a block in the first
    ``_EXACT_SWEEPS`` sweeps and ``_LATE_BA_STEPS`` in every later one.  The
    long early steps do not solve a block (its gap stays far above
    ``_GAP_TOL``), but they pick which local optimum a row climbs; after
    them a long block solve is wasted work, since the other block moves at
    once, and a short block step still never lowers the objective.
    A block is held only when its gap and the other block's last gap are
    both within ``_GAP_TOL`` (holding it sooner can strand mass that keeps
    the other block creeping); a row stops in the first sweep that holds
    both, so its two gaps are measured at the returned ``(pa, pb)``.

    The two blocks zigzag, so an open row's gaps can shrink by only a few
    percent a sweep.  After every second sweep each row still open tries a
    :func:`_squarem` jump extrapolated from the states before and after the
    pair.  A row that jumps has no second-block gap at its new point, so it
    is not held in the next sweep; it can certify only in a later sweep,
    which measures both gaps at the point it returns.  Returns the batches
    and each row's larger gap, ``inf`` if still open after ``_MAX_SWEEPS``.
    """
    gap = np.full(len(pa), np.inf)
    gap_b = np.full(len(pa), np.inf)
    for sweep in range(_MAX_SWEEPS):
        idx = np.nonzero(np.isinf(gap))[0]
        if len(idx) == 0:
            break
        if sweep % 2 == 0:
            x0 = np.hstack([pa, pb])
        c = [x[idx] for x in coeffs]
        hold = gap_b[idx] <= _GAP_TOL
        steps = _BA_STEPS if sweep < _EXACT_SWEEPS else _LATE_BA_STEPS
        ctx_a = _BlockContext(pb[idx], ws, c)
        pa[idx], gap_a = _ascend_block(pa[idx], ctx_a, hold, steps)
        ctx_b = _BlockContext(pa[idx], ws, c, transposed=True)
        pb[idx], gap_b[idx] = _ascend_block(pb[idx], ctx_b, gap_a <= _GAP_TOL, steps)
        both = np.maximum(gap_a, gap_b[idx])
        gap[idx] = np.where(hold & (both <= _GAP_TOL), both, np.inf)
        if sweep % 2 == 0:
            x1 = np.hstack([pa, pb])
        else:
            open_ = np.isinf(gap[idx])
            rows = idx[open_]
            before = ctx_b.objective(pb[idx])[open_]
            pa[rows], pb[rows], jumped = _squarem(
                x0[rows], x1[rows], pa[rows], pb[rows], ws, [x[rows] for x in coeffs],
                before,
            )
            gap_b[rows[jumped]] = np.inf
    return pa, pb, gap


def _solve(n: Mac, mus: Sequence[float], seed: int, restarts: int):
    """Optimize every (weight, restart) row in one batch.

    Row ``tag * restarts + r`` maximizes the weight ``mus[tag]``.  Each
    weight draws all its starts from one generator seeded ``[seed, tag]``:
    row ``r`` takes the ``r``-th row of unit exponentials, whose ``pa`` and
    ``pb`` blocks are normalized, which is exactly a flat-Dirichlet draw for
    each sender.  Rows fill in C order, so row ``r``'s start is the same for
    every ``restarts > r`` and every weight count.  Returns, row by row in
    that order, the senders' inputs ``pa`` and ``pb``, the pentagon rates
    from :func:`_rates` (one array pass for the whole batch) and the
    optimizer's final gaps.  Raises ValueError if ``restarts < 1``.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    x = np.concatenate([
        np.random.default_rng([seed, tag]).standard_exponential((restarts, n.na + n.nb))
        for tag in range(len(mus))
    ])
    pa, pb = x[:, : n.na], x[:, n.na :]
    pa, pb = pa / pa.sum(axis=1, keepdims=True), pb / pb.sum(axis=1, keepdims=True)
    coeffs = _vertex_coeffs(np.repeat(np.asarray(mus, dtype=float), restarts))
    ws = _Workspace(n)
    pa, pb, gap = _alternate(pa, pb, ws, coeffs)
    return pa, pb, _rates(ws, pa, pb), gap


def _boundary_chain(points: Sequence[tuple[float, float]]):
    """Upper-right hull boundary from the R1 axis around to the R2 axis.

    The axis ends ``(max R1, 0)`` and ``(0, max R2)`` join the points:
    whatever is achievable jointly is achievable with either sender
    silenced.  One pass of Andrew's monotone chain, over the points by R1
    descending and then R2 ascending, keeps the left turns and drops every
    vertex that stands at most 1e-10 above the chord that would replace it;
    the test is on that height, not on the cross product, so the vertices
    between short segments near the axes stay.  The chain is monotone in
    both rates, so vertices that agree to 9 decimals are adjacent; each such
    run is merged onto the smallest point in the box it spans, which keeps
    the chain monotone, so restarts that converged to the same optimum up to
    float noise yield one vertex.  Every vertex is one of the points or an
    axis end.
    """
    pts = list(points)
    pts += [(max(p[0] for p in pts), 0.0), (0.0, max(p[1] for p in pts))]
    chain = []
    for x, y in sorted(pts, key=lambda p: (-p[0], p[1])):
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            cross = (ax - ox) * (y - oy) - (ay - oy) * (x - ox)
            if cross > 1e-10 * math.hypot(x - ox, y - oy):
                break
            chain.pop()
        chain.append((x, y))
    runs = {}
    for v in chain:
        runs.setdefault((round(v[0], 9), round(v[1], 9)), []).append(v)
    out = []
    for run in runs.values():
        if len(run) > 1:
            (x1, y0), (x0, y1) = run[0], run[-1]
            run = [p for p in pts if x0 <= p[0] <= x1 and y0 <= p[1] <= y1]
        out.append(min(run))
    return out


def inner_bound(
    n: Mac,
    restarts: int = 64,
    seed: int = 0,
    workers: int = 1,
    mu_points: int = 65,
) -> RegionBound:
    """Randomized inner bound on the capacity region of a channel.

    For each weight ``mu`` on a uniform grid in ``[0, 1]`` the optimizer
    maximizes ``mu R1 + (1 - mu) R2`` at the dominant pentagon corner over
    product input distributions, using alternating Blahut–Arimoto block
    updates from ``restarts`` flat-Dirichlet starts, drawn for each weight
    from one generator (see :func:`_solve`); all ``mu_points * restarts``
    runs are solved as one batch.  Each witness carries its run's
    Frank–Wolfe gap (see :class:`InnerPoint`).  Every evaluated corner is
    achievable, so the convex hull of the collected rate pairs (closed under
    silencing either sender) is a certified inner bound regardless of
    optimizer quality; its upper-right chain, from the R1 axis to the R2
    axis, is traced by :func:`_boundary_chain`.

    Deterministic for a fixed seed, ``restarts`` and ``mu_points``; results
    are merged in (weight, restart) order, the order of the runs' inputs in
    the region's ``pa`` and ``pb`` (see :class:`RegionBound`).  A run whose
    rates break a pentagon inequality raises ``ValueError``.

    Args:
        n: The channel.
        restarts: Random initializations per weight (>= 1).
        seed: Base seed for the per-weight generators.
        workers: Ignored: the batch runs in the calling process.  Accepted
            so that existing callers keep working.
        mu_points: Number of weights on the scalarization grid (>= 1).
    """
    if mu_points < 1:
        raise ValueError("mu_points must be >= 1")
    pa, pb, rates, gaps = _solve(n, np.linspace(0.0, 1.0, mu_points), seed, restarts)
    r1, r2, s = rates.T
    corners = np.stack([r1, np.maximum(s - r1, 0.0), np.maximum(s - r2, 0.0), r2], axis=1)
    tags, starts = np.divmod(np.arange(len(rates)).repeat(2), restarts)
    witnesses = tuple(map(
        InnerPoint, *corners.reshape(-1, 2).T.tolist(), tags.tolist(), starts.tolist(),
        gaps.repeat(2).tolist(),
    ))
    chain = _boundary_chain([(w.r1, w.r2) for w in witnesses])
    pa.flags.writeable = pb.flags.writeable = False
    return RegionBound(tuple(chain), witnesses, pa, pb)


def sum_capacity_lower_bound(
    n: Mac, restarts: int = 64, seed: int = 0
) -> tuple[float, ProductInput]:
    """Best total-rate point found by maximizing I(A,B;Z) over product inputs.

    Runs the weight ``mu = 0.5`` of :func:`inner_bound`, whose objective is
    half the sum rate, and keeps the restart with the best batched sum rate
    (the first one on ties).  Returns ``pentagon(n, q).sum_max`` at that
    restart's input ``q``, and ``q``; any returned value is achievable, so it
    lower-bounds the sum capacity.
    """
    pa, pb, rates, _ = _solve(n, [0.5], seed, restarts)
    best = int(np.argmax(rates[:, 2]))
    q = ProductInput(pa[best], pb[best])
    # not rates[best, 2]: a row in a batch can round apart from the row alone
    return pentagon(n, q).sum_max, q


# ---------------------------------------------------------------------------
# linear-system game rates


@dataclasses.dataclass(frozen=True)
class LsgRates:
    """Achievable rate pair for a channel built from an m x n linear-system game.

    ``p_l`` is the losing probability of the coding strategy and ``f_d`` the
    total-variation defect of the question distribution conditioned on
    winning; both vanish for perfect strategies, giving
    ``(log2 m, log2 n)``.  Both rates are nonnegative.
    """

    m: int
    n: int
    p_l: float
    f_d: float
    r1: float
    r2: float

    def __post_init__(self):
        if self.r1 < 0.0 or self.r2 < 0.0:
            raise ValueError("rates must be nonnegative")
        if self.r1 > math.log2(self.m) + 1e-12:
            raise ValueError("r1 exceeds log2(m)")
        if self.r2 > math.log2(self.n) + 1e-12:
            raise ValueError("r2 exceeds log2(n)")


def lsg_rates(m: int, n: int, p_l: float, f_d: float) -> LsgRates:
    """Evaluate the closed-form achievable rates of a linear-system game channel.

    ``R1 = (1-p_l) log2 m - (1-p_l)(f_d log2(nm-1) + h(f_d))
    - (p_l/2) log2(nm-1) - h(p_l)`` and symmetrically for ``R2`` with
    ``log2 n``.  A rate the formula puts below zero is reported as 0, since
    zero rate is always achievable.
    """
    if m < 2 or n < 2:
        raise ValueError("m and n must be at least 2")
    if not 0.0 <= p_l <= 1.0:
        raise ValueError(f"p_l must lie in [0, 1], got {p_l!r}")
    if not 0.0 <= f_d <= 1.0:
        raise ValueError(f"f_d must lie in [0, 1], got {f_d!r}")
    log_nm1 = math.log2(n * m - 1)
    defect = (1.0 - p_l) * (f_d * log_nm1 + binary_entropy(f_d))
    floor = (p_l / 2.0) * log_nm1 + binary_entropy(p_l)
    r1 = max((1.0 - p_l) * math.log2(m) - defect - floor, 0.0)
    r2 = max((1.0 - p_l) * math.log2(n) - defect - floor, 0.0)
    return LsgRates(m, n, p_l, f_d, r1, r2)


# ---------------------------------------------------------------------------
# plot-ready data exports


def write_upper_bound_curve(path, curve: np.ndarray) -> None:
    """Write a sampled bound curve as ``d u`` rows with 6 decimal places."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("d u\n")
        for d, u in curve:
            fh.write(f"{d:.6f} {u:.6f}\n")


def write_region_dat(path, region: RegionBound) -> None:
    """Write a region boundary as ``r1 r2`` rows with 6 decimal places."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("r1 r2\n")
        for r1, r2 in region.vertices:
            fh.write(f"{r1:.6f} {r2:.6f}\n")
