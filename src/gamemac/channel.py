"""Discrete memoryless multiple access channels and entropic rate quantities.

A MAC takes one symbol from each of two senders and emits one output symbol
according to a conditional table ``p[a, b, z]``.  The compiler
:func:`mac_from_game` turns a promise-free game into such a channel: on a
winning question/answer tuple the channel forwards the question pair
noiselessly, otherwise it outputs a uniformly random question pair.

The pentagon rates at a product input have one formula, :func:`_rates`, over
a batch of input pairs; :func:`pentagon` is its one-row case, and the
optimizer in :mod:`gamemac.capacity` runs it on whole batches.

Index conventions (shared with :mod:`gamemac.games`): a sender's composite
question/answer input is paired x-major, ``index = x * ny + y``, and the
output pairs questions x1-major, ``z = x1 * nx2 + x2``.  All rates and
entropies are in bits (base-2 logarithms).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .games import (
    Game, ProductStrategy, _frozen_distributions, _text_lines, losing_probability,
)


# Rates (r1, r2, sum) times this matrix are r1 - sum, r2 - sum and
# sum - r1 - r2; a pentagon has none of them above its rounding allowance.
_PENTAGON_SIDES = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
_PENTAGON_SLACK = np.array([1e-12, 1e-12, 1e-9])


class MacFormatError(ValueError):
    """Raised when a channel file does not follow the expected format."""


@dataclasses.dataclass(frozen=True)
class Mac:
    """A two-sender discrete memoryless channel.

    Attributes:
        na, nb: Input alphabet sizes of the two senders.
        nz: Output alphabet size.
        p: Conditional table of shape ``(na, nb, nz)``; ``p[a, b]`` is the
            output distribution given inputs ``(a, b)``.
    """

    na: int
    nb: int
    nz: int
    p: np.ndarray

    def __post_init__(self):
        arr = _frozen_distributions(self.p, 3, 2, 1e-12, "channel table")
        if arr.shape != (self.na, self.nb, self.nz):
            raise ValueError(
                f"channel table has shape {arr.shape}, expected "
                f"({self.na}, {self.nb}, {self.nz})"
            )
        object.__setattr__(self, "p", arr)


@dataclasses.dataclass(frozen=True)
class ProductInput:
    """Independent input distributions for the two senders."""

    p_a: np.ndarray
    p_b: np.ndarray

    def __post_init__(self):
        for name in ("p_a", "p_b"):
            vec = _frozen_distributions(getattr(self, name), 1, 0, 1e-12, name)
            object.__setattr__(self, name, vec)


@dataclasses.dataclass(frozen=True)
class Pentagon:
    """The three rate constraints achievable at one product input.

    ``r1_max = I(A;Z|B)``, ``r2_max = I(B;Z|A)`` and ``sum_max = I(A,B;Z)``,
    all in bits.  The achievable set is the pentagon
    ``{(R1, R2) >= 0 : R1 <= r1_max, R2 <= r2_max, R1+R2 <= sum_max}``.
    """

    r1_max: float
    r2_max: float
    sum_max: float


@dataclasses.dataclass(frozen=True)
class Encoding:
    """A classical encoding channel mapping message pairs to MAC input pairs.

    ``p[a1, b1, a, b]`` is the probability that the senders feed ``(a, b)``
    into the downstream MAC when their raw inputs are ``(a1, b1)``.  Although
    stored jointly, a valid encoding factors through a non-signaling
    correlation with local post-processing.
    """

    n_a1: int
    n_b1: int
    na: int
    nb: int
    p: np.ndarray

    def __post_init__(self):
        arr = _frozen_distributions(self.p, 4, (2, 3), 1e-10, "encoding table")
        if arr.shape != (self.n_a1, self.n_b1, self.na, self.nb):
            raise ValueError(
                f"encoding table has shape {arr.shape}, expected "
                f"({self.n_a1}, {self.n_b1}, {self.na}, {self.nb})"
            )
        object.__setattr__(self, "p", arr)


def mac_from_game(g: Game) -> Mac:
    """Compile a promise-free game into a multiple access channel.

    Sender inputs are question/answer pairs (x-major pairing) and the output
    alphabet is the set of question pairs.  Winning tuples map
    deterministically to their question pair; losing tuples output a uniform
    question pair, each row exactly ``1 / (nx1 * nx2)``.
    """
    na, nb = g.nx1 * g.ny1, g.nx2 * g.ny2
    nz = g.nx1 * g.nx2
    p = np.full((na, nb, nz), 1.0 / nz)
    win = g.win.transpose(0, 2, 1, 3).reshape(na, nb)  # rows: (x1,y1) x (x2,y2)
    x1 = np.arange(na) // g.ny1
    x2 = np.arange(nb) // g.ny2
    z = (x1[:, None] * g.nx2 + x2[None, :])[win]
    rows = p[win]
    rows[:] = 0.0
    rows[np.arange(len(z)), z] = 1.0
    p[win] = rows
    return Mac(na, nb, nz, p)


def compose(n: Mac, e: Encoding) -> Mac:
    """The end-to-end channel obtained by feeding an encoding into a MAC.

    ``(N o E)(z | a1, b1) = sum_{a,b} N(z | a, b) E(a, b | a1, b1)``.
    Composing with the encoding that passes both raw inputs through
    unchanged returns the channel table bit for bit.
    """
    if (e.na, e.nb) != (n.na, n.nb):
        raise ValueError(
            f"encoding outputs ({e.na}, {e.nb}) do not match channel inputs "
            f"({n.na}, {n.nb})"
        )
    p = e.p.reshape(e.n_a1 * e.n_b1, n.na * n.nb) @ n.p.reshape(n.na * n.nb, n.nz)
    return Mac(e.n_a1, e.n_b1, n.nz, p.reshape(e.n_a1, e.n_b1, n.nz))


def _log2(p: np.ndarray) -> np.ndarray:
    """``log2`` of a nonnegative array, with ``log 0`` taken as 0."""
    return np.log2(p, where=p > 0.0, out=np.zeros(p.shape))


def _row_entropies(p: np.ndarray) -> np.ndarray:
    """Entropies in bits along the last axis; zero cells contribute zero."""
    return -(p * _log2(p)).sum(axis=-1)


class _Workspace:
    """Channel tables laid out for batched rate and optimizer work.

    Index 0 is the first sender's view and index 1 the second's: ``flat[s]``
    has one row per input of sender ``s``, over (other input, output) pairs,
    and ``rowent[s][own, other]`` is the entropy of that channel row.
    """

    def __init__(self, n: Mac):
        chan_t = np.ascontiguousarray(n.p.transpose(1, 0, 2))
        rowent = _row_entropies(n.p)
        self.nz = n.nz
        self.flat = (n.p.reshape(n.na, -1), chan_t.reshape(n.nb, -1))
        self.rowent = (rowent, np.ascontiguousarray(rowent.T))


def _rates(ws: _Workspace, pa, pb):
    """Each row's ``I(A;Z|B)``, ``I(B;Z|A)`` and ``I(A,B;Z)`` at ``(pa, pb)``.

    One ``(rows, 3)`` array, from the channel layouts of ``ws``:
    ``H(BZ) - H(B) - H(Z|AB)``, ``H(AZ) - H(A) - H(Z|AB)`` and
    ``H(Z) - H(Z|AB)`` with ``H(Z|AB) = sum_ab pa[a] pb[b] H(N(.|a, b))``,
    each clamped at 0.  If a row's rates break the pentagon inequalities
    ``r1, r2 <= sum <= r1 + r2`` by more than rounding (1e-12 and 1e-9),
    raises ValueError naming the first such row.
    """
    n = len(pa)
    h_cond = ((pa @ ws.rowent[0]) * pb).sum(axis=1)
    joint_bz = np.repeat(pb, ws.nz, axis=1) * (pa @ ws.flat[0])
    joint_az = np.repeat(pa, ws.nz, axis=1) * (pb @ ws.flat[1])
    h_z = _row_entropies(joint_bz.reshape(n, -1, ws.nz).sum(axis=1))
    rates = np.stack([
        _row_entropies(joint_bz) - _row_entropies(pb) - h_cond,
        _row_entropies(joint_az) - _row_entropies(pa) - h_cond,
        h_z - h_cond,
    ], axis=1)
    rates = np.maximum(rates, 0.0)
    fits = rates @ _PENTAGON_SIDES <= _PENTAGON_SLACK  # a nan rate fails
    if not fits.all():
        row = np.argmin(fits.all(axis=1))
        raise ValueError(f"row {row}: pentagon rates need 0 <= r1, r2 <= sum <= r1 + r2")
    return rates


def pentagon(n: Mac, q: ProductInput) -> Pentagon:
    """Evaluate the three rate bounds of a MAC at a fixed product input.

    ``I(A;Z|B) = H(BZ) - H(B) - H(Z|AB)``, ``I(B;Z|A) = H(AZ) - H(A) - H(Z|AB)``
    and ``I(A,B;Z) = H(Z) - H(Z|AB)``, where
    ``H(Z|AB) = sum_ab p_a[a] p_b[b] H(N(.|a, b))``; values within
    floating-point noise below zero are clamped to exactly 0.  This is the
    one-row case of :func:`_rates`, its pentagon check included.
    """
    if len(q.p_a) != n.na or len(q.p_b) != n.nb:
        raise ValueError(
            f"input distribution sizes ({len(q.p_a)}, {len(q.p_b)}) do not "
            f"match channel inputs ({n.na}, {n.nb})"
        )
    return Pentagon(*_rates(_Workspace(n), q.p_a[None], q.p_b[None])[0].tolist())


def strategy_input(s: ProductStrategy) -> ProductInput:
    """The product input on the compiled MAC induced by playing a strategy.

    Sender distributions are ``p(x, y) = pi(x) p(y|x)`` on the composite
    (x-major) input alphabets.
    """
    p_a = (s.pi_x1[None, :] * s.p_y1_given_x1).T.reshape(-1)
    p_b = (s.pi_x2[None, :] * s.p_y2_given_x2).T.reshape(-1)
    return ProductInput(p_a, p_b)


def sum_rate_identity_check(g: Game, s: ProductStrategy) -> tuple[float, float]:
    """Two routes to the sum-rate bound of a game MAC under one strategy.

    Returns ``(lhs, rhs)`` where ``lhs = I(A,B;Z)`` is the :func:`pentagon`
    sum rate on the compiled channel, while
    ``rhs = H(Z) - p_lose * (log2 nx1 + log2 nx2)`` uses the losing
    probability of the strategy.  The two agree identically because losing
    rounds contribute exactly the full output entropy.
    """
    n = mac_from_game(g)
    q = strategy_input(s)
    lhs = pentagon(n, q).sum_max
    p_z = q.p_b @ (q.p_a @ n.p.reshape(n.na, -1)).reshape(n.nb, n.nz)
    h_z = float(_row_entropies(p_z))
    p_l = losing_probability(g, s)
    rhs = h_z - p_l * (np.log2(g.nx1) + np.log2(g.nx2))
    return lhs, rhs


def write_mac_file(path, n: Mac) -> None:
    """Write a channel in the text format, ``%.17g`` (lossless) per entry.

    Format: header ``mac na nb nz`` then ``na*nb`` rows of ``nz`` entries,
    ordered a-major (row index ``a * nb + b``).  Each distinct row is
    formatted once, by one ``%`` over all of them; game channels repeat a
    few rows many times.  Rows are compared bit for bit, so ``-0.0`` still
    prints as ``-0``.
    """
    rows = n.p.reshape(-1, n.nz)
    keys = rows.view(np.dtype((np.void, rows.itemsize * n.nz))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    line = " ".join(["%.17g"] * n.nz) + "\n"
    text = (line * len(first)) % tuple(rows[first].ravel().tolist())
    distinct = text.splitlines(keepends=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"mac {n.na} {n.nb} {n.nz}\n")
        fh.write("".join([distinct[i] for i in inverse.tolist()]))


def load_mac_file(path) -> Mac:
    """Load a channel written by :func:`write_mac_file` (lossless round-trip).

    Each distinct row is split and parsed (with ``float``) once.  Raises
    :class:`MacFormatError` for a malformed file, naming the first bad row,
    and for a table that is not a channel (non-finite, negative or
    unnormalized entries).
    """
    lines = _text_lines(path, MacFormatError)
    if not lines:
        raise MacFormatError(f"{path}: empty channel file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "mac":
        raise MacFormatError(f"{path}: expected header 'mac na nb nz'")
    try:
        na, nb, nz = (int(tok) for tok in head[1:])
    except ValueError as exc:
        raise MacFormatError(f"{path}: non-integer alphabet size") from exc
    if min(na, nb, nz) < 1:
        raise MacFormatError(f"{path}: alphabet sizes must be >= 1")
    rows = lines[1:]
    if len(rows) != na * nb:
        raise MacFormatError(
            f"{path}: expected {na * nb} probability rows, found {len(rows)}"
        )
    index = {ln: i for i, ln in enumerate(dict.fromkeys(rows))}
    try:
        table = np.array([list(map(float, ln.split())) for ln in index])
    except ValueError:  # a non-number, or rows of different lengths
        table = None
    if table is None or table.shape != (len(index), nz):
        for i, ln in enumerate(rows):  # name the first bad row
            tok = ln.split()
            if len(tok) != nz:
                raise MacFormatError(f"{path}: row {i} has {len(tok)} entries, expected {nz}")
            try:
                list(map(float, tok))
            except ValueError as exc:
                raise MacFormatError(f"{path}: non-numeric entry in row {i}") from exc
    p = table[np.fromiter(map(index.__getitem__, rows), np.intp, len(rows))]
    try:
        return Mac(na, nb, nz, p.reshape(na, nb, nz))
    except ValueError as exc:
        raise MacFormatError(f"{path}: {exc}") from exc
