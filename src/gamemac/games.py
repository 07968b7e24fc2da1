"""Finite two-player non-local games: construction and exact classical analysis.

A game couples two players who each receive a question and return an answer
without communicating; a boolean table decides which question/answer tuples
win.  Games are stored promise-free: every question pair is allowed.  A game
that is asked only on a promise, a boolean table of question pairs, becomes
one through :func:`promise_free`: the pairs outside the promise win
automatically.  The constructors build CHSH, the magic square, and the
agreement games of binary linear systems and of 3-CNF formulas; the last two
are promise games.
"""

from __future__ import annotations

import dataclasses
import itertools
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import Sequence

import numpy as np

DEFAULT_ENUMERATION_BUDGET = 10**8

_CHUNK = 8192


def _assignments(k: int, parity: int | None = None) -> tuple[tuple[int, ...], ...]:
    """The k-bit tuples in lexicographic order (first bit most significant),
    only those whose bit sum has parity ``parity`` if it is given."""
    bits = itertools.product((0, 1), repeat=k)
    return tuple(t for t in bits if parity is None or sum(t) % 2 == parity)


# Answer alphabets of the built-in magic square game.  Alice's answers are the
# four even-parity 3-bit strings, Bob's the four odd-parity ones, both indexed
# by their leading two bits (index 2*b0 + b1).
MAGIC_SQUARE_ALICE_ANSWERS = _assignments(3, 0)
MAGIC_SQUARE_BOB_ANSWERS = _assignments(3, 1)


class GameFormatError(ValueError):
    """Raised when a game file does not follow the expected format."""


class EnumerationBudgetError(ValueError):
    """Raised when a brute-force enumeration would exceed its budget.

    Attributes:
        required: Number of deterministic tables the brute force would
            enumerate: those of the player with fewer, ``min(ny1**nx1,
            ny2**nx2)``.
        budget: The configured limit that was exceeded.
    """

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"too large for brute force: {required} tables "
            f"exceed the budget of {budget}"
        )


def _frozen_bool(table, shape, what: str) -> np.ndarray:
    arr = np.asarray(table, dtype=bool).copy()
    if arr.shape != shape:
        raise ValueError(f"{what} has shape {arr.shape}, expected {shape}")
    arr.setflags(write=False)
    return arr


def _frozen_distributions(values, ndim: int, axis, tol: float, what: str) -> np.ndarray:
    """A read-only float copy of ``values``, a table of probability distributions.

    ``values`` must have ``ndim`` axes and finite nonnegative entries, and
    its sums along ``axis`` must lie within ``tol`` of 1.
    """
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{what} has {arr.ndim} axes, expected {ndim}")
    # a nan fails the first test; an inf entry makes its sum inf
    if not (arr.min() >= 0.0 and abs(arr.sum(axis=axis) - 1.0).max() <= tol):
        raise ValueError(
            f"{what} entries must be finite and nonnegative and sum to 1 along "
            f"axis {axis}"
        )
    arr.setflags(write=False)
    return arr


@dataclasses.dataclass(frozen=True)
class Game:
    """A promise-free two-player game.

    Attributes:
        nx1, nx2: Question alphabet sizes for Alice and Bob.
        ny1, ny2: Answer alphabet sizes for Alice and Bob.
        win: Boolean table indexed ``[x1, x2, y1, y2]``; True entries win.
    """

    nx1: int
    nx2: int
    ny1: int
    ny2: int
    win: np.ndarray

    def __post_init__(self):
        for name in ("nx1", "nx2", "ny1", "ny2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        shape = (self.nx1, self.nx2, self.ny1, self.ny2)
        object.__setattr__(self, "win", _frozen_bool(self.win, shape, "win table"))


@dataclasses.dataclass(frozen=True)
class ProductStrategy:
    """A pair of local stochastic answer rules with their question marginals.

    Attributes:
        p_y1_given_x1: Stochastic matrix of shape ``(ny1, nx1)``; column ``x1``
            is Alice's answer distribution for question ``x1``.
        p_y2_given_x2: Same for Bob, shape ``(ny2, nx2)``.
        pi_x1, pi_x2: Question marginals (probability vectors).
    """

    p_y1_given_x1: np.ndarray
    p_y2_given_x2: np.ndarray
    pi_x1: np.ndarray
    pi_x2: np.ndarray

    def __post_init__(self):
        ndims = {"p_y1_given_x1": 2, "p_y2_given_x2": 2, "pi_x1": 1, "pi_x2": 1}
        for name, ndim in ndims.items():
            table = _frozen_distributions(getattr(self, name), ndim, 0, 1e-12, name)
            object.__setattr__(self, name, table)

    @property
    def ny1(self) -> int:
        return self.p_y1_given_x1.shape[0]

    @property
    def nx1(self) -> int:
        return self.p_y1_given_x1.shape[1]

    @property
    def ny2(self) -> int:
        return self.p_y2_given_x2.shape[0]

    @property
    def nx2(self) -> int:
        return self.p_y2_given_x2.shape[1]


@dataclasses.dataclass(frozen=True)
class BruteForceResult:
    """Exact uniform-question value of a game with one maximizing strategy.

    Attributes:
        value: Winning probability as an exact rational ``wins / (nx1*nx2)``.
        alice: Deterministic answer table for Alice, ``alice[x1] = y1``.
        bob: Deterministic answer table for Bob, ``bob[x2] = y2``.
    """

    value: Fraction
    alice: tuple[int, ...]
    bob: tuple[int, ...]


def promise_free(g: Game, promise) -> Game:
    """The promise-free game equivalent to ``g`` asked only on ``promise``.

    ``promise`` is a boolean ``(nx1, nx2)`` table of the question pairs that
    are ever asked; it must hold at least one pair, and ``g`` must win
    nowhere outside it, else ValueError.  Question pairs outside the promise
    become automatic wins for every answer pair; promised pairs keep their
    win entries.  A full promise returns ``g``'s win table unchanged.
    """
    promise = _frozen_bool(promise, (g.nx1, g.nx2), "promise table")
    outside = ~promise[:, :, None, None]
    if not promise.any():
        raise ValueError("promise must contain at least one question pair")
    if (g.win & outside).any():
        raise ValueError("win entries defined outside the promise")
    return Game(g.nx1, g.nx2, g.ny1, g.ny2, g.win | outside)


def _check_strategy_shape(g: Game, s, pi_x1: np.ndarray, pi_x2: np.ndarray) -> None:
    """Raise ValueError unless strategy ``s`` has ``g``'s alphabet sizes and
    the question marginals, validated vectors, have ``g``'s question counts."""
    if (s.nx1, s.nx2, s.ny1, s.ny2) != (g.nx1, g.nx2, g.ny1, g.ny2):
        raise ValueError(
            f"strategy alphabets ({s.nx1},{s.nx2},{s.ny1},{s.ny2}) do not match "
            f"game ({g.nx1},{g.nx2},{g.ny1},{g.ny2})"
        )
    if pi_x1.shape != (g.nx1,) or pi_x2.shape != (g.nx2,):
        raise ValueError("question marginal lengths do not match the game")


def winning_probability(g: Game, s: ProductStrategy) -> float:
    """Probability that strategy ``s`` wins ``g`` under its question marginals.

    Computes sum over winning tuples of
    ``pi1(x1) pi2(x2) p(y1|x1) p(y2|x2)``.
    """
    _check_strategy_shape(g, s, s.pi_x1, s.pi_x2)
    val = np.einsum(
        "ijkl,i,j,ki,lj->",
        g.win,
        s.pi_x1,
        s.pi_x2,
        s.p_y1_given_x1,
        s.p_y2_given_x2,
    )  # every index lies on the win table, so one pass beats a contraction path
    return float(min(max(val, 0.0), 1.0))


def losing_probability(g: Game, s: ProductStrategy) -> float:
    """Complement of :func:`winning_probability`."""
    return 1.0 - winning_probability(g, s)


def _index_table(values, shape: tuple[int, ...], high: int, what: str) -> np.ndarray:
    """``values`` as an array of ``shape`` whose entries are integers in ``[0, high)``.

    Raises ValueError otherwise; a float table is refused even where it holds
    whole numbers, so that nothing is truncated or wrapped around silently.
    """
    table = np.asarray(values)
    if table.shape != shape:
        raise ValueError(f"{what} has shape {table.shape}, expected {shape}")
    if table.dtype.kind not in "iu" or table.min() < 0 or table.max() >= high:
        raise ValueError(f"{what} entries must be integers in [0, {high})")
    return table


def deterministic_strategy(
    g: Game, alice: Sequence[int], bob: Sequence[int]
) -> ProductStrategy:
    """Wrap deterministic answer tables as a ProductStrategy with uniform questions.

    ``alice[x1]`` and ``bob[x2]`` are answer indices; a table with a wrong
    length or an entry that is not an answer index raises ValueError.
    """
    p1 = np.zeros((g.ny1, g.nx1))
    p1[_index_table(alice, (g.nx1,), g.ny1, "alice"), np.arange(g.nx1)] = 1.0
    p2 = np.zeros((g.ny2, g.nx2))
    p2[_index_table(bob, (g.nx2,), g.ny2, "bob"), np.arange(g.nx2)] = 1.0
    return ProductStrategy(
        p1, p2, np.full(g.nx1, 1.0 / g.nx1), np.full(g.nx2, 1.0 / g.nx2)
    )


def _best_in_chunk(win: np.ndarray, start: int, stop: int, transposed: bool):
    """Best (wins, alice, bob) over tables start..stop-1 of the axis-1 player.

    The enumerated player sits on axes 1 and 3 of ``win``: Bob, or Alice
    when ``transposed``.  For each of its tables the other player's best
    reply decomposes per question, so the inner maximization is a
    per-question argmax; ties take the lowest answer, hence the lowest reply
    table.  Tables are returned as tuples of answers, never packed into one
    integer, since the reply side's table count need not fit in int64;
    comparing tables lexicographically is the same as comparing their
    indices.  Of this chunk's maxima the lowest (Alice, Bob) pair is returned.
    """
    nx1, nx2, ny1, ny2 = win.shape
    idx = np.arange(start, stop, dtype=np.int64)
    table = np.empty((nx2, len(idx)), dtype=np.int64)
    rem = idx.copy()
    for x2 in range(nx2 - 1, -1, -1):  # table[0] is the most significant digit
        table[x2] = rem % ny2
        rem //= ny2
    counts = np.zeros((nx1, ny1, len(idx)), dtype=np.int64)
    for x2 in range(nx2):
        counts += win[:, x2, :, :][:, :, table[x2]]
    reply = counts.argmax(axis=1)  # (nx1, k); first max = lowest answer
    wins = np.take_along_axis(counts, reply[:, None, :], axis=1)[:, 0, :].sum(axis=0)
    top = int(wins.max())
    cand = np.nonzero(wins == top)[0]
    if transposed:
        # Alice's table is enumerated: its lowest index wins, Bob replies
        j = cand[0]
        return top, tuple(table[:, j].tolist()), tuple(reply[:, j].tolist())
    # lexsort's last key is primary: Alice's question 0, then her later
    # questions, then Bob's index
    j = cand[np.lexsort(np.vstack((idx[cand], reply[::-1, cand])))[0]]
    return top, tuple(reply[:, j].tolist()), tuple(table[:, j].tolist())


def omega_uniform_bruteforce(
    g: Game,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    workers: int = 1,
) -> BruteForceResult:
    """Exact maximal winning probability under uniform questions.

    Enumerates the deterministic tables of the player with fewer of them,
    ``min(ny1**nx1, ny2**nx2)`` (Bob's on a tie), and derives the other
    player's best response per question, which is exhaustive because the
    uniform-question win count is additive over each player's questions.
    The result is exact; among maximizing pairs the one with the lowest
    (alice index, bob index) is returned, where a table's index reads its
    answers as base-``ny`` digits with question 0 most significant.

    Args:
        g: The game to solve.
        budget: Maximum number of tables to enumerate, on the smaller side,
            before refusing.  The other side costs no enumeration: its best
            reply is a per-question argmax.
        workers: Worker threads for partitioning the enumerated tables.  The
            result is independent of the worker count.

    Raises:
        EnumerationBudgetError: If the smaller table count exceeds ``budget``.
    """
    transposed = g.ny1**g.nx1 < g.ny2**g.nx2
    win = g.win.transpose(1, 0, 3, 2) if transposed else g.win
    n_tables = win.shape[3] ** win.shape[1]
    if n_tables > budget:
        raise EnumerationBudgetError(n_tables, budget)
    spans = [(s, min(s + _CHUNK, n_tables)) for s in range(0, n_tables, _CHUNK)]
    if workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(lambda sp: _best_in_chunk(win, *sp, transposed), spans)
            )
    else:
        results = [_best_in_chunk(win, *sp, transposed) for sp in spans]
    wins, alice, bob = min(results, key=lambda r: (-r[0], r[1], r[2]))
    return BruteForceResult(Fraction(wins, g.nx1 * g.nx2), alice, bob)


def chsh_game() -> Game:
    """The CHSH game: binary questions and answers, win iff y1 XOR y2 = x1 AND x2."""
    win = np.zeros((2, 2, 2, 2), dtype=bool)
    for x1, x2, y1, y2 in np.ndindex(2, 2, 2, 2):
        win[x1, x2, y1, y2] = (y1 ^ y2) == (x1 & x2)
    return Game(2, 2, 2, 2, win)


def magic_square_game() -> Game:
    """The magic square game over parity-valid answer alphabets.

    Alice receives a row index and answers one of the four even-parity 3-bit
    strings; Bob receives a column index and answers one of the four
    odd-parity strings.  They win iff the strings agree on the shared cell:
    Alice's bit at the column position equals Bob's bit at the row position.
    """
    win = np.zeros((3, 3, 4, 4), dtype=bool)
    for r, c, a, b in np.ndindex(3, 3, 4, 4):
        s = MAGIC_SQUARE_ALICE_ANSWERS[a]
        t = MAGIC_SQUARE_BOB_ANSWERS[b]
        win[r, c, a, b] = s[c] == t[r]
    return Game(3, 3, 4, 4, win)


def _agreement_game(scopes, answers, n_vars: int) -> Game:
    """Constraint/variable agreement game, promise-free.

    Alice's answer ``y`` to constraint ``j`` is the bit tuple ``answers[j][y]``
    over the variables ``scopes[j]``; ``None``, or a padding index past the
    list, loses on every promised pair.  Bob answers a bit for one of
    ``n_vars`` variables.  A promised pair (his variable is in her scope) wins
    iff the two bits for that variable agree; other pairs win automatically.
    """
    m = len(scopes)
    ny1 = max(len(ans) for ans in answers)
    promise = np.zeros((m, n_vars), dtype=bool)
    win = np.zeros((m, n_vars, ny1, 2), dtype=bool)
    for j, (scope, ans) in enumerate(zip(scopes, answers)):
        promise[j, scope] = True
        for y, bits in enumerate(ans):
            if bits is not None:
                win[j, scope, y, bits] = True
    return promise_free(Game(m, n_vars, ny1, 2, win), promise)


def hastad_game(clauses: Sequence[Sequence[int]], n_vars: int | None = None) -> Game:
    """Clause/variable agreement game for a 3-CNF formula, promise-free.

    Alice receives a clause index and answers with one of the 8 assignments
    to that clause's three variables (in clause order, first variable in the
    most significant bit).  Bob receives a variable index and answers a
    truth value.  On promised pairs (Bob's variable occurs in Alice's
    clause) they win iff Alice's assignment satisfies the clause and agrees
    with Bob's value; other pairs win automatically.

    Args:
        clauses: Sequences of exactly three signed, distinct 1-based variable
            indices; a negative literal means the negated variable.
        n_vars: Total variable count; defaults to the largest index used.
    """
    parsed = []
    for c in clauses:
        lits = tuple(int(l) for l in c)
        if len(lits) != 3:
            raise ValueError(f"clause {lits!r} must have exactly 3 literals")
        if any(l == 0 for l in lits):
            raise ValueError("literals are nonzero signed variable indices")
        if len({abs(l) for l in lits}) != 3:
            raise ValueError(f"clause {lits!r} repeats a variable")
        parsed.append(lits)
    if not parsed:
        raise ValueError("formula needs at least one clause")
    max_var = max(abs(l) for c in parsed for l in c)
    n = max_var if n_vars is None else int(n_vars)
    if n < max_var:
        raise ValueError(f"n_vars={n} but a clause mentions variable {max_var}")
    scopes = [[abs(l) - 1 for l in lits] for lits in parsed]
    # the one assignment that violates a clause makes each of its literals false
    violated = [tuple(int(l < 0) for l in lits) for lits in parsed]
    answers = [[t if t != v else None for t in _assignments(3)] for v in violated]
    return _agreement_game(scopes, answers, n)


def linear_system_game(a_matrix, b_vector) -> Game:
    """Row/variable agreement game for a binary linear system, promise-free.

    Alice receives a row index ``i`` and answers an assignment to the
    variables of that row whose parity matches the right-hand side; Bob
    receives a variable index and answers a bit.  On promised pairs (the
    variable occurs in the row) they win iff the assignments agree; other
    pairs win automatically.  Alice's answers are indexed by enumerating the
    row's assignments in lexicographic order (lowest variable index in the
    most significant bit) and keeping the parity-valid ones; rows with fewer
    valid assignments than the widest row are padded with answers that lose
    on every promised pair.

    Args:
        a_matrix: m x n bool or integer matrix, read mod 2; no row may be zero.
        b_vector: Right-hand side of length m, entries as in ``a_matrix``.
    """
    a, b = np.asarray(a_matrix), np.asarray(b_vector)
    for arr, what in ((a, "a_matrix"), (b, "b_vector")):
        if arr.size and arr.dtype.kind not in "biu":
            raise ValueError(f"{what} entries must be bool or integers")
    a, b = a % 2, b % 2
    if a.ndim != 2:
        raise ValueError("coefficient matrix must be two-dimensional")
    m, n = a.shape
    if m == 0:
        raise ValueError("system needs at least one equation")
    if b.shape != (m,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({m},)")
    supports = []
    for i in range(m):
        sup = np.nonzero(a[i])[0]
        if len(sup) == 0:
            raise ValueError(f"row {i} of the system is zero")
        supports.append(sup)
    answers = [_assignments(len(sup), int(b[i])) for i, sup in enumerate(supports)]
    return _agreement_game(supports, answers, n)


BUILTIN_GAMES = {
    "magicsquare": magic_square_game,
    "chsh": chsh_game,
}


def _text_lines(path, error: type[ValueError]) -> list[str]:
    """The stripped non-blank lines of a UTF-8 file; raises ``error`` otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [ln for ln in map(str.strip, fh) if ln]
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None


def load_game_file(path) -> Game:
    """Load a game from its text format, applying promise-free conversion.

    Format: a header line ``game nx1 nx2 ny1 ny2``, optionally followed by a
    section of ``promise x1 x2`` lines, followed by one ``x1 x2 y1 y2`` line
    per winning tuple (0-based indices).  Absent tuples lose; question pairs
    outside a listed promise win automatically.
    """
    lines = _text_lines(path, GameFormatError)
    if not lines:
        raise GameFormatError(f"{path}: empty game file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "game":
        raise GameFormatError(f"{path}: expected header 'game nx1 nx2 ny1 ny2'")
    try:
        nx1, nx2, ny1, ny2 = (int(tok) for tok in head[1:])
    except ValueError as exc:
        raise GameFormatError(f"{path}: non-integer alphabet size") from exc
    if min(nx1, nx2, ny1, ny2) < 1:
        raise GameFormatError(f"{path}: alphabet sizes must be >= 1")

    promise = np.zeros((nx1, nx2), dtype=bool)
    win = np.zeros((nx1, nx2, ny1, ny2), dtype=bool)
    seen_tuple = False
    for ln in lines[1:]:
        tok = ln.split()
        if tok[0] == "promise":
            if seen_tuple:
                raise GameFormatError(f"{path}: promise lines must precede win tuples")
            if len(tok) != 3:
                raise GameFormatError(f"{path}: bad promise line {ln!r}")
            try:
                x1, x2 = int(tok[1]), int(tok[2])
            except ValueError as exc:
                raise GameFormatError(f"{path}: bad promise line {ln!r}") from exc
            if not (0 <= x1 < nx1 and 0 <= x2 < nx2):
                raise GameFormatError(f"{path}: promise indices out of range in {ln!r}")
            promise[x1, x2] = True
            continue
        if len(tok) != 4:
            raise GameFormatError(f"{path}: bad win tuple line {ln!r}")
        try:
            x1, x2, y1, y2 = (int(t) for t in tok)
        except ValueError as exc:
            raise GameFormatError(f"{path}: bad win tuple line {ln!r}") from exc
        if not (0 <= x1 < nx1 and 0 <= x2 < nx2 and 0 <= y1 < ny1 and 0 <= y2 < ny2):
            raise GameFormatError(f"{path}: indices out of range in {ln!r}")
        win[x1, x2, y1, y2] = True
        seen_tuple = True

    g = Game(nx1, nx2, ny1, ny2, win)
    if not promise.any():
        return g
    try:
        return promise_free(g, promise)
    except ValueError as exc:
        raise GameFormatError(f"{path}: {exc}") from exc
