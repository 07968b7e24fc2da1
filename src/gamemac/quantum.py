"""Finite-dimensional quantum strategies and the correlations they induce.

Two players share a pure state and measure their halves with POVMs selected
by their questions; the joint outcome statistics form a non-signaling
conditional distribution that can feed classical channels.

Tensor-product convention: Alice's index is the major (slow) index of the
joint state vector, so amplitude ``psi[i * d_b + j]`` belongs to Alice basis
state ``i`` and Bob basis state ``j``.  Every operator product written
``L (x) M`` follows this ordering.

A strategy's correlation is contracted with two matrix products: the stacked
``psi^dagger L psi`` over Alice's elements, then one GEMM of those
``d_b x d_b`` blocks against Bob's elements.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Sequence

import numpy as np

from .channel import Encoding
from .games import (
    MAGIC_SQUARE_ALICE_ANSWERS, MAGIC_SQUARE_BOB_ANSWERS, Game, _check_strategy_shape,
    _frozen_distributions, _index_table,
)

_NORM_TOL = 1e-10
_HERM_TOL = 1e-10
_PSD_TOL = -1e-10
_SUM_TOL = 1e-10
_IMAG_TOL = 1e-10


@dataclasses.dataclass(frozen=True)
class PureState:
    """A shared pure state of two local systems.

    Attributes:
        amplitudes: Finite complex vector of length ``d_a * d_b``, Alice-major.
        d_a, d_b: Local dimensions, each at least 1.
    """

    amplitudes: np.ndarray
    d_a: int
    d_b: int

    def __post_init__(self):
        if self.d_a < 1 or self.d_b < 1:
            raise ValueError("local dimensions must be positive")
        vec = np.asarray(self.amplitudes, dtype=complex).copy()
        if not np.isfinite(vec).all():
            raise ValueError("amplitudes must be finite")
        if vec.shape != (self.d_a * self.d_b,):
            raise ValueError(
                f"amplitude vector has length {vec.size}, expected "
                f"{self.d_a * self.d_b}"
            )
        if abs(np.vdot(vec, vec).real - 1.0) > _NORM_TOL:
            raise ValueError("state is not normalized")
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)

    def as_matrix(self) -> np.ndarray:
        """The amplitudes reshaped to ``(d_a, d_b)``."""
        return self.amplitudes.reshape(self.d_a, self.d_b)


@dataclasses.dataclass(frozen=True)
class Povm:
    """A positive operator-valued measure on one local system.

    Elements must be finite, at least 1 x 1 and Hermitian within ``1e-10``;
    each ``E + 1e-10 I`` must be positive definite (every eigenvalue of ``E``
    above ``-1e-10``, tested by one Cholesky factorization of the stack); and
    the elements must sum to the identity within ``1e-10`` entrywise.

    Attributes:
        elements: Read-only complex array of shape ``(k, d, d)``;
            ``elements[y]`` is the element of outcome ``y``.
    """

    elements: np.ndarray

    def __init__(self, elements: Sequence[np.ndarray]):
        try:
            stack = np.array(elements, dtype=complex)
        except ValueError as exc:
            raise ValueError("POVM elements must be square and same-sized") from exc
        if len(stack) == 0:
            raise ValueError("a POVM needs at least one element")
        if stack.ndim != 3 or not 0 < stack.shape[1] == stack.shape[2]:
            raise ValueError("POVM elements must be square, same-sized and at least 1 x 1")
        if not np.isfinite(stack).all():
            raise ValueError("POVM elements must be finite")
        if np.abs(stack - stack.conj().transpose(0, 2, 1)).max() > _HERM_TOL:
            raise ValueError("POVM element is not Hermitian")
        eye = np.eye(stack.shape[1])
        try:
            np.linalg.cholesky(stack - _PSD_TOL * eye)
        except np.linalg.LinAlgError:
            raise ValueError("POVM element is not positive semidefinite") from None
        if np.abs(stack.sum(axis=0) - eye).max() > _SUM_TOL:
            raise ValueError("POVM elements do not sum to the identity")
        stack.setflags(write=False)
        object.__setattr__(self, "elements", stack)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)


@dataclasses.dataclass(frozen=True)
class QuantumStrategy:
    """A shared state plus one POVM per question for each player."""

    state: PureState
    alice_povms: tuple[Povm, ...]
    bob_povms: tuple[Povm, ...]

    def __init__(self, state: PureState, alice_povms, bob_povms):
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "alice_povms", tuple(alice_povms))
        object.__setattr__(self, "bob_povms", tuple(bob_povms))
        if not self.alice_povms or not self.bob_povms:
            raise ValueError("each player needs at least one POVM")
        for name, povms, dim in (
            ("Alice", self.alice_povms, state.d_a), ("Bob", self.bob_povms, state.d_b)
        ):
            for p in povms:
                if p.dim != dim:
                    raise ValueError(f"{name} POVM dimension does not match the state")
                if p.n_outcomes != povms[0].n_outcomes:
                    raise ValueError(f"{name} POVMs must share one outcome alphabet")

    @property
    def nx1(self) -> int:
        return len(self.alice_povms)

    @property
    def nx2(self) -> int:
        return len(self.bob_povms)

    @property
    def ny1(self) -> int:
        return self.alice_povms[0].n_outcomes

    @property
    def ny2(self) -> int:
        return self.bob_povms[0].n_outcomes

    @functools.cached_property
    def _correlation(self) -> np.ndarray:
        # kept only once the table passes its checks, so a bad one raises each time
        psi = self.state.as_matrix()  # (d_a, d_b)
        alice = np.stack([p.elements for p in self.alice_povms])  # (nx1, ny1, d_a, d_a)
        bob = np.stack([p.elements for p in self.bob_povms])  # (nx2, ny2, d_b, d_b)
        # left[x, p, j, l] = sum_ik conj(psi[i, j]) L[x, p, i, k] psi[k, l]
        left = psi.conj().T @ alice @ psi
        vals = left.reshape(self.nx1 * self.ny1, -1) @ bob.reshape(self.nx2 * self.ny2, -1).T
        vals = vals.reshape(self.nx1, self.ny1, self.nx2, self.ny2).transpose(0, 2, 1, 3)
        residue = np.abs(vals.imag).max()
        if residue > _IMAG_TOL:
            raise ValueError(f"correlation entry has imaginary residue {residue!r}")
        if vals.real.min() < -_IMAG_TOL:
            raise ValueError(f"correlation entry is negative: {vals.real.min()!r}")
        table = np.maximum(vals.real, 0.0)
        sums = table.sum(axis=(2, 3))
        off = np.argwhere(np.abs(sums - 1.0) > _SUM_TOL)
        if len(off):
            x1, x2 = off[0]
            raise ValueError(f"correlation slice ({x1}, {x2}) sums to {sums[x1, x2]!r}")
        table.setflags(write=False)
        return table


def correlation(qs: QuantumStrategy) -> np.ndarray:
    """Joint outcome distribution ``P[x1, x2, y1, y2] = P(y1, y2 | x1, x2)``.

    Each entry is ``<psi| L^(x1)_y1 (x) M^(x2)_y2 |psi>``; the Born rule makes
    these real and nonnegative, so any imaginary residue beyond ``1e-10``
    raises and small negative noise is clamped to 0.  Each ``(x1, x2)`` slice
    sums to 1 within ``1e-10``.  The table is computed once per strategy, on
    the first call whose table passes these checks, and is read-only.
    """
    return qs._correlation


_PAULIS = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
}

# The Mermin–Peres square of two-qubit observables, shape (row, column, 4, 4),
# first qubit major.  Observables sharing a row or column commute; each row
# multiplies to +I and each column to -I.
_MERMIN_PERES = np.array(
    [
        [
            (-1 if op[0] == "-" else 1) * np.kron(_PAULIS[op[-2]], _PAULIS[op[-1]])
            for op in row.split()
        ]
        for row in ("XI IX XX", "IZ ZI ZZ", "-XZ -ZX YY")
    ],
    dtype=complex,
)


def _context_povms(contexts: np.ndarray, answers) -> list[Povm]:
    """Joint measurements of three commuting ``+-1`` observables per question.

    ``contexts[q, k]`` is the ``k``-th observable of question ``q``.  Bit
    ``b`` of an answer stands for the eigenvalue ``(-1)^b``, so answer ``y``
    has the element ``prod_k (I + (-1)^answers[y][k] O_k) / 2``.
    """
    signs = 1 - 2 * np.array(answers)  # (n_answers, 3)
    eye = np.eye(contexts.shape[-1])
    f = (eye + signs[:, :, None, None] * contexts[:, None]) / 2
    return [Povm(e) for e in f[:, :, 0] @ f[:, :, 1] @ f[:, :, 2]]


@functools.cache
def magic_square_strategy() -> QuantumStrategy:
    """The perfect strategy for the magic square game, built once and shared.

    The players share two Bell pairs, the ququart state ``sum_i |i>|i> / 2``.
    On row ``r`` Alice measures row ``r`` of the Mermin–Peres square
    ``XI IX XX / IZ ZI ZZ / -XZ -ZX YY``; on column ``c`` Bob measures the
    complex conjugates of column ``c``.  Answer bit ``b`` is the eigenvalue
    ``(-1)^b`` of the cell's observable, with answers indexed as in
    ``games.MAGIC_SQUARE_ALICE_ANSWERS`` / ``MAGIC_SQUARE_BOB_ANSWERS``: rows
    multiply to +I (even parity), columns to -I (odd parity).  Since
    ``O (x) conj(O)`` has expectation 1 on this state, both players read the
    same bit in the shared cell and every question pair wins with probability
    exactly 1.
    """
    state = PureState(np.eye(4).ravel() / 2, 4, 4)
    alice = _context_povms(_MERMIN_PERES, MAGIC_SQUARE_ALICE_ANSWERS)
    columns = _MERMIN_PERES.swapaxes(0, 1).conj()
    bob = _context_povms(columns, MAGIC_SQUARE_BOB_ANSWERS)
    return QuantumStrategy(state, alice, bob)


def strategy_winning_probability(
    g: Game, qs: QuantumStrategy, pi_x1, pi_x2
) -> float:
    """Winning probability of a quantum strategy under given question marginals.

    Each marginal must be a probability vector over the game's questions.
    """
    pi1 = _frozen_distributions(pi_x1, 1, 0, 1e-12, "pi_x1")
    pi2 = _frozen_distributions(pi_x2, 1, 0, 1e-12, "pi_x2")
    _check_strategy_shape(g, qs)
    if pi1.shape != (g.nx1,) or pi2.shape != (g.nx2,):
        raise ValueError("question marginal lengths do not match the game")
    corr = correlation(qs)
    val = np.einsum("ijkl,ijkl,i,j->", g.win, corr, pi1, pi2)  # one pass is optimal
    return float(min(max(val, 0.0), 1.0))


def identity_post(n_questions: int, n_outcomes: int) -> np.ndarray:
    """Post-processing that pairs question and outcome into one composite symbol.

    Returns the table ``f[x, y] = x * n_outcomes + y`` matching the x-major
    input pairing of compiled game channels.
    """
    return (
        np.arange(n_questions)[:, None] * n_outcomes + np.arange(n_outcomes)[None, :]
    )


def to_classical_channel(
    qs: QuantumStrategy, post1, post2, na: int, nb: int
) -> Encoding:
    """Classical encoding channel induced by measuring and post-processing.

    Args:
        qs: The quantum strategy generating outcomes.
        post1: Integer table of shape ``(nx1, ny1)``; ``post1[a1, y1]`` is the
            first sender's channel input.  Must be total with integer values
            in ``[0, na)``; anything else raises ValueError.
        post2: Same for the second sender, values in ``[0, nb)``.
        na, nb: Input alphabet sizes of the downstream channel.

    Returns:
        The encoding ``E(a, b | a1, b1) = sum over outcomes mapped to (a, b)``
        of the strategy's correlation.
    """
    f1 = _index_table(post1, (qs.nx1, qs.ny1), na, "post1")
    f2 = _index_table(post2, (qs.nx2, qs.ny2), nb, "post2")
    corr = correlation(qs)
    a1, b1, y1, y2 = np.indices(corr.shape, sparse=True)
    table = np.zeros((qs.nx1, qs.nx2, na, nb))
    np.add.at(table, (a1, b1, f1[a1, y1], f2[b1, y2]), corr)
    return Encoding(qs.nx1, qs.nx2, na, nb, table)
