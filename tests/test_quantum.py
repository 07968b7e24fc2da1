"""Tests for quantum strategies, POVM validation, and induced correlations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gamemac import (
    Povm,
    PureState,
    QuantumStrategy,
    chsh_game,
    correlation,
    deterministic_strategy,
    identity_post,
    magic_square_game,
    magic_square_strategy,
    strategy_winning_probability,
    to_classical_channel,
    winning_probability,
)
from gamemac.quantum import _MERMIN_PERES
from conftest import random_quantum_strategy as random_strategy


def computational_povm(d: int) -> Povm:
    eye = np.eye(d)
    return Povm([np.outer(eye[k], eye[k]) for k in range(d)])


def measurement_unitary(povm: Povm) -> np.ndarray:
    """Basis change ``U`` with row ``k`` the bra of rank-1 element ``k``."""
    rows = []
    for el in povm.elements:
        _, vecs = np.linalg.eigh(el)
        rows.append(vecs[:, -1].conj())
    return np.array(rows)


def constant_answer_povm(d: int, n_outcomes: int, answer: int) -> Povm:
    """Degenerate POVM that reports ``answer`` with certainty."""
    els = [np.zeros((d, d), dtype=complex) for _ in range(n_outcomes)]
    els[answer] = np.eye(d, dtype=complex)
    return Povm(els)


class TestValidation:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0, 0.0, 0.0]), 2, 2)

    def test_povm_sum_deviation_rejected(self):
        eye = np.eye(2)
        bad = [np.outer(eye[0], eye[0]) * (1 + 1e-6), np.outer(eye[1], eye[1])]
        with pytest.raises(ValueError, match="do not sum to the identity"):
            Povm(bad)

    def test_povm_negative_element_rejected(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])

    def test_povm_non_hermitian_rejected(self):
        el = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="not Hermitian"):
            Povm([el, np.eye(2) - el])

    @pytest.mark.parametrize(
        "elements, match",
        [
            ([], "at least one element"),
            ([np.eye(2), np.zeros((3, 3))], "square and same-sized"),
            ([np.eye(2, 3)], "square, same-sized"),
            ([np.zeros((0, 0))], "at least 1 x 1"),
        ],
        ids=["empty", "mixed_sizes", "non_square", "zero_dim"],
    )
    def test_povm_malformed_element_list_rejected(self, elements, match):
        with pytest.raises(ValueError, match=match):
            Povm(elements)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 8),
        delta=st.one_of(st.floats(0.0, 5e-11), st.floats(2e-10, 1e-3)),
    )
    def test_povm_psd_slack_boundary(self, seed, d, delta):
        """``U diag(-delta, ...) U^H`` passes at delta <= 5e-11, fails at >= 2e-10."""
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        lam = np.concatenate([[-delta], rng.uniform(0.0, 1.0, d - 1)])
        el = (u * lam) @ u.conj().T
        stack = [el, np.eye(d) - el][:: rng.choice([1, -1])]
        accepted = np.linalg.eigvalsh(np.array(stack)).min() >= -1e-10
        assert accepted == (delta <= 5e-11)
        if accepted:
            Povm(stack)
        else:
            with pytest.raises(ValueError, match="not positive semidefinite"):
                Povm(stack)

    @pytest.mark.parametrize(
        "amplitudes, d_a, d_b",
        [([np.nan, 0, 0, 0], 2, 2), ([1, 0, 0, 1j * np.nan], 2, 2), (np.ones(4) / 2, -2, -2)],
        ids=["nan", "nan_imaginary", "negative_dims"],
    )
    def test_state_must_be_finite_with_positive_dims(self, amplitudes, d_a, d_b):
        with pytest.raises(ValueError):
            PureState(np.array(amplitudes, dtype=complex), d_a, d_b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_povm_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Povm([np.diag([bad, 1.0]), np.diag([1.0, 0.0])])

    def test_mismatched_outcome_counts_rejected(self):
        state = PureState(np.array([1, 0, 0, 0], dtype=complex), 2, 2)
        with pytest.raises(ValueError):
            QuantumStrategy(
                state,
                [computational_povm(2), constant_answer_povm(2, 3, 0)],
                [computational_povm(2)],
            )


class TestCorrelation:
    def test_product_state_computational_basis(self):
        state = PureState(np.array([1, 0, 0, 0], dtype=complex), 2, 2)
        qs = QuantumStrategy(state, [computational_povm(2)], [computational_povm(2)])
        corr = correlation(qs)
        assert corr[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert corr[0, 0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_maximally_entangled_diagonal(self):
        # (|00> + |11>)/sqrt(2), both measure the computational basis:
        # outcomes agree and each diagonal entry carries probability 1/2.
        amp = np.zeros(4, dtype=complex)
        amp[0] = amp[3] = 1 / np.sqrt(2)
        qs = QuantumStrategy(
            PureState(amp, 2, 2), [computational_povm(2)], [computational_povm(2)]
        )
        corr = correlation(qs)[0, 0]
        expected = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert np.abs(corr - expected).max() < 1e-12

    def test_magic_square_supported_on_winning_tuples(self):
        g = magic_square_game()
        corr = correlation(magic_square_strategy())
        assert corr[~g.win].max() < 1e-12

    def test_slices_normalized(self, rng):
        corr = correlation(random_strategy(rng, 2, 3, 2, 4))
        assert np.abs(corr.sum(axis=(2, 3)) - 1.0).max() < 1e-10

    def test_non_signaling(self, rng):
        for _ in range(5):
            corr = correlation(random_strategy(rng, 3, 2, 2, 3))
            alice_marg = corr.sum(axis=3)  # (x1, x2, y1)
            spread = alice_marg.max(axis=1) - alice_marg.min(axis=1)
            assert spread.max() < 1e-10
            bob_marg = corr.sum(axis=2)  # (x1, x2, y2)
            spread = bob_marg.max(axis=0) - bob_marg.min(axis=0)
            assert spread.max() < 1e-10

    def test_magic_square_elements_are_rank_one_projectors(self):
        qs = magic_square_strategy()
        for povm in qs.alice_povms + qs.bob_povms:
            for el in povm.elements:
                assert np.abs(el @ el - el).max() < 1e-12
                assert np.trace(el) == pytest.approx(1.0, abs=1e-12)

    def test_projective_povms_match_amplitudes(self):
        # rank-1 projective measurements reproduce |<k l| U (x) V |psi>|^2
        qs = magic_square_strategy()
        psi = qs.state.amplitudes
        for r, alice in enumerate(qs.alice_povms):
            for c, bob in enumerate(qs.bob_povms):
                u, v = measurement_unitary(alice), measurement_unitary(bob)
                rotated = np.kron(u, v) @ psi
                direct = (np.abs(rotated) ** 2).reshape(4, 4)
                corr = correlation(qs)[r, c]
                assert np.abs(corr - direct).max() < 1e-12


class TestMagicSquareStrategy:
    def test_state_shape_and_norm(self):
        qs = magic_square_strategy()
        assert (qs.state.d_a, qs.state.d_b) == (4, 4)
        assert np.vdot(qs.state.amplitudes, qs.state.amplitudes).real == pytest.approx(
            1.0, abs=1e-12
        )

    def test_unitaries_are_unitary(self):
        qs = magic_square_strategy()
        for povm in qs.alice_povms + qs.bob_povms:
            u = measurement_unitary(povm)
            assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12

    def test_table_is_an_operator_solution(self):
        eye = np.eye(4)
        for o in _MERMIN_PERES.reshape(9, 4, 4):
            assert np.abs(o - o.conj().T).max() < 1e-12
            assert np.abs(o @ o - eye).max() < 1e-12
        columns = _MERMIN_PERES.swapaxes(0, 1)
        for lines, product in ((_MERMIN_PERES, eye), (columns, -eye)):
            for a, b, c in lines:
                for x, y in ((a, b), (a, c), (b, c)):
                    assert np.abs(x @ y - y @ x).max() < 1e-12
                assert np.abs(a @ b @ c - product).max() < 1e-12

    def test_wins_every_question_pair(self):
        g = magic_square_game()
        corr = correlation(magic_square_strategy())
        table = np.einsum("ijkl,ijkl->ij", g.win, corr)
        assert table.min() > 1 - 1e-9

    def test_wins_every_cell_exactly(self):
        # the elements and the state are dyadic, so no rounding enters
        g = magic_square_game()
        corr = correlation(magic_square_strategy())
        assert (np.einsum("ijkl,ijkl->ij", g.win, corr) == 1.0).all()

    def test_uniform_winning_probability_is_one(self):
        g = magic_square_game()
        val = strategy_winning_probability(
            g, magic_square_strategy(), np.full(3, 1 / 3), np.full(3, 1 / 3)
        )
        assert val > 1 - 1e-9

    def test_swapping_bob_breaks_perfection(self):
        qs = magic_square_strategy()
        povms = list(qs.bob_povms)
        povms[0], povms[2] = povms[2], povms[0]
        broken = QuantumStrategy(qs.state, qs.alice_povms, povms)
        g = magic_square_game()
        table = np.einsum("ijkl,ijkl->ij", g.win, correlation(broken))
        assert table.min() < 1 - 1e-3


class TestStrategyWinningProbability:
    def test_all_win_game(self, rng):
        qs = random_strategy(rng, 2, 2, 2, 2)
        g = chsh_game()
        win = np.ones_like(g.win)
        from gamemac import Game

        assert strategy_winning_probability(
            Game(2, 2, 2, 2, win), qs, [0.5, 0.5], [0.5, 0.5]
        ) == pytest.approx(1.0, abs=1e-10)

    def test_chsh_constant_answers_give_three_quarters(self):
        # degenerate POVMs that always answer 0 reproduce the classical value
        qs = QuantumStrategy(
            PureState(np.array([1, 0, 0, 0], dtype=complex), 2, 2),
            [constant_answer_povm(2, 2, 0)] * 2,
            [constant_answer_povm(2, 2, 0)] * 2,
        )
        val = strategy_winning_probability(chsh_game(), qs, [0.5, 0.5], [0.5, 0.5])
        assert val == pytest.approx(0.75, abs=1e-12)

    def test_alphabet_mismatch_rejected(self, rng):
        qs = random_strategy(rng, 2, 2, 3, 2)
        with pytest.raises(ValueError, match="strategy alphabets"):
            strategy_winning_probability(chsh_game(), qs, [0.5, 0.5], [0.5, 0.5])

    def test_marginal_lengths_must_match(self):
        g, qs = magic_square_game(), magic_square_strategy()
        uniform = np.full(3, 1 / 3)
        with pytest.raises(ValueError, match="question marginal lengths"):
            strategy_winning_probability(g, qs, [0.5, 0.5], uniform)

    @pytest.mark.parametrize("bad", [[np.nan, 0.5, 0.5], [1.0, 1.0, 1.0]])
    def test_marginals_must_be_distributions(self, bad):
        # a nan marginal gave a nan value, and [1, 1, 1] on both sides gave 1.0
        g, qs = magic_square_game(), magic_square_strategy()
        uniform = np.full(3, 1 / 3)
        with pytest.raises(ValueError, match="pi_x1 entries"):
            strategy_winning_probability(g, qs, bad, uniform)
        with pytest.raises(ValueError, match="pi_x2 entries"):
            strategy_winning_probability(g, qs, uniform, bad)


class TestToClassicalChannel:
    def test_constant_post_processing_is_point_mass(self, rng):
        qs = random_strategy(rng, 2, 2, 2, 2)
        post1 = np.zeros((2, 2), dtype=int)
        post2 = np.zeros((2, 2), dtype=int)
        enc = to_classical_channel(qs, post1, post2, 3, 3)
        assert enc.p[:, :, 0, 0] == pytest.approx(np.ones((2, 2)), abs=1e-12)

    def test_identity_post_on_magic_square_supported_on_wins(self):
        qs = magic_square_strategy()
        enc = to_classical_channel(
            qs, identity_post(3, 4), identity_post(3, 4), 12, 12
        )
        g = magic_square_game()
        win_pairs = g.win.transpose(0, 2, 1, 3).reshape(12, 12)
        for r in range(3):
            for c in range(3):
                support = enc.p[r, c] > 1e-12
                # every used input pair must win for its own question pair
                rows, cols = np.nonzero(support)
                assert all(row // 4 == r for row in rows)
                assert all(col // 4 == c for col in cols)
                assert win_pairs[support].all()

    def test_chsh_deterministic_povms_match_games_module(self):
        # POVMs answering 0 deterministically + identity post reproduce the
        # channel of the corresponding deterministic classical strategy
        qs = QuantumStrategy(
            PureState(np.array([1, 0, 0, 0], dtype=complex), 2, 2),
            [constant_answer_povm(2, 2, 0)] * 2,
            [constant_answer_povm(2, 2, 0)] * 2,
        )
        enc = to_classical_channel(qs, identity_post(2, 2), identity_post(2, 2), 4, 4)
        g = chsh_game()
        s = deterministic_strategy(g, [0, 0], [0, 0])
        # encoding must put all mass on ((x1, 0), (x2, 0))
        for x1 in range(2):
            for x2 in range(2):
                expected = np.zeros((4, 4))
                expected[x1 * 2, x2 * 2] = 1.0
                assert np.abs(enc.p[x1, x2] - expected).max() < 1e-12
        assert winning_probability(g, s) == pytest.approx(0.75, abs=1e-15)

    def test_non_total_post_rejected(self, rng):
        qs = random_strategy(rng, 2, 2, 2, 2)
        bad = np.array([[0, 1], [2, 5]])
        with pytest.raises(ValueError):
            to_classical_channel(qs, bad, np.zeros((2, 2), int), 4, 4)

    @pytest.mark.parametrize("shift", [0.9, -1], ids=["non_integer", "negative"])
    def test_post_must_be_inputs_of_the_channel(self, shift):
        qs = magic_square_strategy()
        bad, good = identity_post(3, 4) + shift, identity_post(3, 4)
        with pytest.raises(ValueError):
            to_classical_channel(qs, bad, good, 12, 12)
        with pytest.raises(ValueError):
            to_classical_channel(qs, good, bad, 12, 12)


# Random strategies with unequal local dimensions, so that a transposed state
# or swapped players cannot pass by symmetry.
unequal_dims = st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(
    lambda dims: dims[0] != dims[1]
)
alphabet_sizes = st.tuples(*[st.integers(1, 3)] * 4)  # nx1, nx2, ny1, ny2


class TestQuantumProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dims=unequal_dims, sizes=alphabet_sizes)
    def test_correlation_is_kronecker_born_rule(self, seed, dims, sizes):
        rng = np.random.default_rng(seed)
        qs = random_strategy(rng, *sizes, d=dims[0], d_b=dims[1])
        corr = correlation(qs)
        psi = qs.state.amplitudes
        for x1, x2, y1, y2 in np.ndindex(corr.shape):
            el_a = qs.alice_povms[x1].elements[y1]
            el_b = qs.bob_povms[x2].elements[y2]
            op = np.kron(el_a, el_b)
            assert abs(corr[x1, x2, y1, y2] - np.vdot(psi, op @ psi)) < 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dims=unequal_dims, sizes=alphabet_sizes)
    def test_encoding_sums_correlation_over_post_preimages(self, seed, dims, sizes):
        rng = np.random.default_rng(seed)
        nx1, nx2, ny1, ny2 = sizes
        qs = random_strategy(rng, *sizes, d=dims[0], d_b=dims[1])
        # fewer inputs than (question, outcome) pairs: the tables cannot be
        # injective once a player has two or more such pairs
        na = max(1, nx1 * ny1 - 1)
        nb = max(1, nx2 * ny2 - 1)
        post1 = rng.integers(0, na, size=(nx1, ny1))
        post2 = rng.integers(0, nb, size=(nx2, ny2))
        enc = to_classical_channel(qs, post1, post2, na, nb)
        corr = correlation(qs)
        expected = np.zeros((nx1, nx2, na, nb))
        for a1, b1, y1, y2 in np.ndindex(corr.shape):
            expected[a1, b1, post1[a1, y1], post2[b1, y2]] += corr[a1, b1, y1, y2]
        # the encoding adds the same terms in the same (C) order: bit-identical
        assert np.array_equal(enc.p, expected)
