"""Tests for game representation, evaluation, exact brute force, and the
linear-system and clause/variable game constructors."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gamemac import (
    BruteForceResult,
    EnumerationBudgetError,
    Game,
    GameFormatError,
    ProductStrategy,
    chsh_game,
    deterministic_strategy,
    hastad_game,
    linear_system_game,
    load_game_file,
    losing_probability,
    magic_square_game,
    omega_uniform_bruteforce,
    promise_free,
    winning_probability,
)
from conftest import random_game, random_strategy


def all_win_game(nx1=2, nx2=2, ny1=2, ny2=2) -> Game:
    return Game(nx1, nx2, ny1, ny2, np.ones((nx1, nx2, ny1, ny2), dtype=bool))


def uniform_strategy(g: Game) -> ProductStrategy:
    return ProductStrategy(
        np.full((g.ny1, g.nx1), 1.0 / g.ny1),
        np.full((g.ny2, g.nx2), 1.0 / g.ny2),
        np.full(g.nx1, 1.0 / g.nx1),
        np.full(g.nx2, 1.0 / g.nx2),
    )


def brute_force_oracle(g: Game) -> BruteForceResult:
    """Plain full enumeration over all deterministic pairs, no best-response.

    ``ndindex`` runs through Alice's tables, and Bob's for each, in index
    order, so keeping the first strict improvement returns the maximizing
    pair with the lowest (Alice index, Bob index).
    """
    best = (-1, None, None)
    for a_flat in np.ndindex(*([g.ny1] * g.nx1)):
        for b_flat in np.ndindex(*([g.ny2] * g.nx2)):
            wins = sum(
                bool(g.win[x1, x2, a_flat[x1], b_flat[x2]])
                for x1 in range(g.nx1)
                for x2 in range(g.nx2)
            )
            if wins > best[0]:
                best = (wins, a_flat, b_flat)
    return BruteForceResult(Fraction(best[0], g.nx1 * g.nx2), *best[1:])


class TestPromiseFree:
    def test_full_promise_is_identity(self):
        g = chsh_game()
        assert np.array_equal(promise_free(g, np.ones((2, 2), dtype=bool)).win, g.win)

    def test_excluded_pair_wins_automatically(self):
        promise = np.ones((2, 2), dtype=bool)
        promise[1, 1] = False
        win = np.zeros((2, 2, 2, 2), dtype=bool)
        g = promise_free(Game(2, 2, 2, 2, win), promise)
        assert g.win[1, 1].all()
        assert not g.win[0, 0].any()

    def test_idempotent(self, rng):
        for _ in range(20):
            g = random_game(rng)
            again = promise_free(g, np.ones((g.nx1, g.nx2), dtype=bool))
            assert np.array_equal(again.win, g.win)

    def test_never_decreases_winning_probability(self, rng):
        for _ in range(20):
            g = random_game(rng, max_size=3)
            s = random_strategy(rng, g)
            promise = rng.random((g.nx1, g.nx2)) < 0.7
            promise[0, 0] = True
            win = g.win & promise[:, :, None, None]
            restricted = Game(g.nx1, g.nx2, g.ny1, g.ny2, win)
            converted = promise_free(restricted, promise)
            assert winning_probability(converted, s) >= winning_probability(
                restricted, s
            ) - 1e-15

    def test_win_outside_promise_rejected(self):
        promise = np.zeros((2, 2), dtype=bool)
        promise[0, 0] = True
        win = np.zeros((2, 2, 2, 2), dtype=bool)
        win[1, 1, 0, 0] = True
        with pytest.raises(ValueError, match="win entries defined outside the promise"):
            promise_free(Game(2, 2, 2, 2, win), promise)

    def test_empty_promise_rejected(self):
        g = Game(2, 2, 2, 2, np.zeros((2, 2, 2, 2), bool))
        with pytest.raises(ValueError, match="at least one question pair"):
            promise_free(g, np.zeros((2, 2), bool))

    @pytest.mark.parametrize("shape", [(2,), (2, 3), (3, 2), (2, 2, 1)])
    def test_promise_of_the_wrong_shape_rejected(self, shape):
        g = Game(2, 2, 2, 2, np.zeros((2, 2, 2, 2), bool))
        with pytest.raises(ValueError, match=r"promise table has shape .*expected \(2, 2\)"):
            promise_free(g, np.ones(shape, bool))


class TestWinningProbability:
    def test_all_win_game_gives_one(self, rng):
        g = all_win_game()
        assert winning_probability(g, random_strategy(rng, g)) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_chsh_always_zero_answers(self):
        g = chsh_game()
        s = deterministic_strategy(g, [0, 0], [0, 0])
        # direct oracle: both answer 0, so they win iff x1 AND x2 == 0
        oracle = sum(
            0.25 for x1 in range(2) for x2 in range(2) if (x1 & x2) == 0
        )
        assert oracle == 0.75
        assert winning_probability(g, s) == pytest.approx(0.75, abs=1e-15)
        assert losing_probability(g, s) == pytest.approx(0.25, abs=1e-15)

    def test_magic_square_best_deterministic(self):
        g = magic_square_game()
        best = omega_uniform_bruteforce(g)
        s = deterministic_strategy(g, best.alice, best.bob)
        assert winning_probability(g, s) == pytest.approx(8.0 / 9.0, abs=1e-15)

    def test_perfect_strategy_loses_nothing(self, rng):
        g = all_win_game()
        assert losing_probability(g, random_strategy(rng, g)) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_dimension_mismatch_rejected(self, rng):
        g = chsh_game()
        bigger = random_strategy(rng, all_win_game(3, 2, 2, 2))
        with pytest.raises(ValueError, match="strategy alphabets"):
            winning_probability(g, bigger)

    def test_marginal_lengths_must_match(self):
        g = chsh_game()
        s = ProductStrategy(np.full((2, 2), 0.5), np.full((2, 2), 0.5), [1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="question marginal lengths"):
            winning_probability(g, s)

    def test_marginals_required(self):
        with pytest.raises(TypeError):
            ProductStrategy(np.full((2, 2), 0.5), np.full((2, 2), 0.5))

    def test_nan_entries_rejected(self):
        half = np.full((2, 2), 0.5)
        with pytest.raises(ValueError):
            ProductStrategy(
                np.array([[np.nan, 0.5], [np.nan, 0.5]]), half, [0.5, 0.5], [0.5, 0.5]
            )
        with pytest.raises(ValueError):
            ProductStrategy(half, half, [np.nan, 1.0], [0.5, 0.5])

    @pytest.mark.parametrize(
        "table",
        [[-1, 0, 0], [0.7, 0, 0], [4, 0, 0], [1.0, 0, 0], [0, 0]],
        ids=["negative", "fraction", "beyond_answers", "float", "short"],
    )
    def test_deterministic_tables_must_be_answer_indices(self, table):
        g = magic_square_game()  # 3 questions and 4 answers a player
        with pytest.raises(ValueError):
            deterministic_strategy(g, table, [0, 0, 0])
        with pytest.raises(ValueError):
            deterministic_strategy(g, [0, 0, 0], table)

    def test_affine_in_strategy_mixture(self, rng):
        for _ in range(20):
            g = random_game(rng)
            s1 = random_strategy(rng, g)
            s2 = ProductStrategy(
                rng.dirichlet(np.ones(g.ny1), size=g.nx1).T,
                s1.p_y2_given_x2,
                s1.pi_x1,
                s1.pi_x2,
            )
            lam = rng.random()
            mixed = ProductStrategy(
                lam * s1.p_y1_given_x1 + (1 - lam) * s2.p_y1_given_x1,
                s1.p_y2_given_x2,
                s1.pi_x1,
                s1.pi_x2,
            )
            expect = lam * winning_probability(g, s1) + (1 - lam) * winning_probability(
                g, s2
            )
            assert winning_probability(g, mixed) == pytest.approx(expect, abs=1e-12)


class TestBruteForce:
    def test_magic_square_exact(self):
        result = omega_uniform_bruteforce(magic_square_game())
        assert result.value == Fraction(8, 9)

    def test_chsh_exact_and_matches_full_enumeration(self):
        g = chsh_game()
        result = omega_uniform_bruteforce(g)
        assert result.value == Fraction(3, 4)
        assert brute_force_oracle(g) == result

    def test_all_win(self):
        assert omega_uniform_bruteforce(all_win_game()).value == 1

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(*[st.integers(1, 3)] * 4),
        density=st.sampled_from([0.1, 0.5, 0.9, 1.0]),
    )
    def test_matches_full_enumeration_on_random_games(self, seed, shape, density):
        # either side may be the smaller one; dense tables tie often, so
        # this checks the lowest (alice, bob) pair as well as the value
        win = np.random.default_rng(seed).random(shape) < density
        g = Game(*shape, win)
        assert omega_uniform_bruteforce(g) == brute_force_oracle(g)

    def test_certificate_achieves_value(self, rng):
        for _ in range(25):
            g = random_game(rng, max_size=3)
            result = omega_uniform_bruteforce(g)
            s = deterministic_strategy(g, result.alice, result.bob)
            assert abs(winning_probability(g, s) - float(result.value)) < 1e-15

    def test_dominates_random_deterministic_strategies(self, rng):
        for _ in range(10):
            g = random_game(rng, max_size=3)
            best = omega_uniform_bruteforce(g).value
            for _ in range(20):
                alice = rng.integers(0, g.ny1, size=g.nx1)
                bob = rng.integers(0, g.ny2, size=g.nx2)
                s = deterministic_strategy(g, alice, bob)
                assert winning_probability(g, s) <= float(best) + 1e-15

    def test_budget_exceeded(self):
        g = magic_square_game()
        with pytest.raises(EnumerationBudgetError) as info:
            omega_uniform_bruteforce(g, budget=10)
        assert info.value.required == 4**3  # both players have 4**3 tables
        assert info.value.budget == 10
        # two clauses over 16 variables: Alice's 8**2 tables are enumerated,
        # not Bob's 2**16
        g = hastad_game([(1, 2, 3), (-4, 5, 16)])
        assert omega_uniform_bruteforce(g, budget=64).value == 1
        with pytest.raises(EnumerationBudgetError) as info:
            omega_uniform_bruteforce(g, budget=63)
        assert info.value.required == 8**2

    def test_worker_count_does_not_change_result(self, rng):
        games = [random_game(rng, max_size=3) for _ in range(5)]
        # five clauses over 16 variables: Alice's 8**5 tables span 4 chunks
        clauses = [(1, 2, 3), (-3, 4, 5), (6, -7, 8), (9, 10, -11), (-12, 15, 16)]
        games.append(hastad_game(clauses, n_vars=16))
        for g in games:
            seq = omega_uniform_bruteforce(g, workers=1)
            par = omega_uniform_bruteforce(g, workers=4)
            assert seq == par

    def test_tie_break_lowest_indices(self):
        # all-win game: every pair is maximal, so both tables must be all
        # zeros, whichever side is enumerated (Bob's, then Alice's)
        for g in (all_win_game(), all_win_game(nx1=2, nx2=3, ny1=2, ny2=3)):
            result = omega_uniform_bruteforce(g)
            assert result.alice == (0,) * g.nx1
            assert result.bob == (0,) * g.nx2

    def test_alice_table_beyond_int64(self, rng):
        # 8**22 = 2**66 Alice tables: her table index does not fit in int64.
        # Both Bob tables win the same count; they differ only in Alice's
        # best answer to question 0 (0 against Bob's 0, 7 against his 1), so
        # the lowest Alice table decides between them.
        nx1, ny1 = 22, 8
        win = np.zeros((nx1, 1, ny1, 2), dtype=bool)
        win[:, 0, :, 0] = rng.random((nx1, ny1)) < 0.5
        win[:, 0, :, 1] = win[:, 0, :, 0]
        win[0, 0, :, 0] = np.arange(ny1) == 0
        win[0, 0, :, 1] = np.arange(ny1) == ny1 - 1
        g = Game(nx1, 1, ny1, 2, win)
        result = omega_uniform_bruteforce(g)
        wins = sum(win[x1, 0, y1, result.bob[0]] for x1, y1 in enumerate(result.alice))
        assert result.value == Fraction(int(wins), nx1)
        replies = [tuple(win[:, 0, :, b].argmax(axis=1).tolist()) for b in (0, 1)]
        assert result.alice == replies[0] == min(replies)
        assert result.bob == (0,)


class TestHastadGame:
    def test_satisfiable_formula_is_perfect(self):
        g = hastad_game([(1, 2, 3)])
        assert omega_uniform_bruteforce(g).value == 1

    def test_malformed_clauses_rejected(self):
        with pytest.raises(ValueError):
            hastad_game([(1, 1, 2)])
        with pytest.raises(ValueError):
            hastad_game([(1, 2)])
        with pytest.raises(ValueError):
            hastad_game([(0, 1, 2)])

    def test_unsatisfiable_eight_clause_formula(self):
        # all eight sign patterns over three variables: any assignment
        # violates exactly one clause, so the best strategy agrees with a
        # fixed assignment except on one bit of the violated clause
        clauses = []
        for signs in np.ndindex(2, 2, 2):
            clauses.append(
                tuple((v + 1) * (1 if s == 0 else -1) for v, s in enumerate(signs))
            )
        g = hastad_game(clauses)
        assert (g.nx1, g.nx2, g.ny1, g.ny2) == (8, 3, 8, 2)
        result = omega_uniform_bruteforce(g)
        assert result.value < 1
        assert result.value == Fraction(23, 24)

    def test_ten_clause_formula_solves_under_default_budget(self):
        # 8**10 * 2**6 (about 6.9e10) strategy pairs, but the brute force
        # only enumerates Bob's 2**6 tables; the eight sign patterns over
        # variables 1-3 make it unsatisfiable, so exactly one of the 60
        # question pairs is lost
        clauses = [
            tuple((v + 1) * (1 if s == 0 else -1) for v, s in enumerate(signs))
            for signs in np.ndindex(2, 2, 2)
        ] + [(4, 5, 6), (-4, -5, 6)]
        g = hastad_game(clauses)
        assert (g.nx1, g.nx2, g.ny1, g.ny2) == (10, 6, 8, 2)
        assert omega_uniform_bruteforce(g).value == Fraction(59, 60)

    def test_promise_free_conversion_applied(self):
        g = hastad_game([(1, 2, 3)], n_vars=5)
        # variables 4 and 5 are outside the clause: automatic win
        assert g.win[0, 3].all()
        assert g.win[0, 4].all()


class TestLinearSystemGame:
    def test_consistent_system_is_perfect(self):
        a = [[1, 1, 0], [0, 1, 1]]
        b = [0, 1]
        g = linear_system_game(a, b)
        assert omega_uniform_bruteforce(g).value == 1

    def test_single_equation(self):
        g = linear_system_game([[1]], [1])
        assert (g.nx1, g.nx2, g.ny1, g.ny2) == (1, 1, 1, 2)
        assert omega_uniform_bruteforce(g).value == 1

    def test_magic_square_parity_system(self):
        # 3 row sums even, 3 column sums odd over a 3x3 grid of bits
        a = np.zeros((6, 9), dtype=int)
        for r in range(3):
            a[r, 3 * r : 3 * r + 3] = 1
        for c in range(3):
            a[3 + c, c::3] = 1
        b = [0, 0, 0, 1, 1, 1]
        g = linear_system_game(a, b)
        assert (g.nx1, g.nx2, g.ny1, g.ny2) == (6, 9, 4, 2)
        result = omega_uniform_bruteforce(g)
        assert result.value < 1
        assert result.value == Fraction(53, 54)

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            linear_system_game([[0, 0], [1, 1]], [0, 0])

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError, match="at least one equation"):
            linear_system_game(np.zeros((0, 3), int), [])

    def test_non_integer_entries_rejected(self):
        # truncated, 0.7 would drop variable 0 and 0.6 would act as 0
        with pytest.raises(ValueError, match="a_matrix"):
            linear_system_game([[0.7, 1.0]], [1])
        with pytest.raises(ValueError, match="b_vector"):
            linear_system_game([[1, 1]], [0.6])
        g = linear_system_game([[True, True]], [np.uint8(3)])  # read mod 2
        assert (g.nx1, g.nx2, g.ny1, g.ny2) == (1, 2, 2, 2)

    def test_padded_answers_always_lose_on_promise(self):
        # rows of different support sizes force padding on the narrow row
        a = [[1, 1, 1], [1, 1, 0]]
        b = [0, 0]
        g = linear_system_game(a, b)
        assert g.ny1 == 4
        # second row has only 2 valid assignments; pads 2..3 lose on support
        assert not g.win[1, 0, 2, :].any()
        assert not g.win[1, 0, 3, :].any()
        # but win automatically outside the promise
        assert g.win[1, 2].all()


class TestAgreementDefinition:
    """Every win entry of the two constructors against the game's definition.

    An unpromised pair wins; a promised pair wins iff Alice's answer is a
    valid assignment whose bit at Bob's variable equals Bob's answer.
    """

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5), n=st.integers(3, 8))
    def test_hastad_win_table(self, seed, m, n):
        rng = np.random.default_rng(seed)
        clauses = []
        for _ in range(m):
            variables = rng.choice(n, size=3, replace=False) + 1
            signs = rng.choice([-1, 1], size=3)
            clauses.append(tuple(int(v * s) for v, s in zip(variables, signs)))
        g = hastad_game(clauses, n_vars=n)
        assert (g.nx1, g.nx2, g.ny1, g.ny2) == (m, n, 8, 2)
        for j, v, y1, y2 in np.ndindex(g.win.shape):
            lits = clauses[j]
            scope = [abs(l) - 1 for l in lits]
            bits = [(y1 >> 2) & 1, (y1 >> 1) & 1, y1 & 1]  # first variable first
            if v not in scope:
                expected = True
            else:
                satisfied = any(bit == (l > 0) for bit, l in zip(bits, lits))
                expected = satisfied and bits[scope.index(v)] == y2
            assert g.win[j, v, y1, y2] == expected

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5), n=st.integers(1, 6))
    def test_linear_system_win_table(self, seed, m, n):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2, size=(m, n))
        a[np.arange(m), rng.integers(0, n, size=m)] = 1  # no zero row
        b = rng.integers(0, 2, size=m)
        g = linear_system_game(a, b)
        scopes = [[v for v in range(n) if a[i, v]] for i in range(m)]
        valid = []  # per row: parity-valid assignments, lowest variable first
        for i, scope in enumerate(scopes):
            k = len(scope)
            codes = [c for c in range(2**k) if bin(c).count("1") % 2 == b[i]]
            valid.append([[(c >> (k - 1 - pos)) & 1 for pos in range(k)] for c in codes])
        assert (g.nx1, g.nx2, g.ny2) == (m, n, 2)
        assert g.ny1 == max(len(rows) for rows in valid)
        for i, v, y1, y2 in np.ndindex(g.win.shape):
            if v not in scopes[i]:
                expected = True
            else:
                expected = y1 < len(valid[i]) and valid[i][y1][scopes[i].index(v)] == y2
            assert g.win[i, v, y1, y2] == expected


class TestGameFile:
    def write(self, tmp_path, text):
        path = tmp_path / "game.txt"
        path.write_text(text)
        return path

    def test_round_trip_chsh(self, tmp_path):
        g = chsh_game()
        lines = ["game 2 2 2 2"]
        for x1, x2, y1, y2 in np.argwhere(g.win):
            lines.append(f"{x1} {x2} {y1} {y2}")
        loaded = load_game_file(self.write(tmp_path, "\n".join(lines) + "\n"))
        assert np.array_equal(loaded.win, g.win)

    def test_promise_section_applies_conversion(self, tmp_path):
        text = "game 2 2 2 2\npromise 0 0\n0 0 0 0\n"
        g = load_game_file(self.write(tmp_path, text))
        assert g.win[0, 0, 0, 0]
        assert not g.win[0, 0, 1, 1]
        assert g.win[0, 1].all() and g.win[1, 0].all() and g.win[1, 1].all()

    def test_absent_tuples_lose(self, tmp_path):
        g = load_game_file(self.write(tmp_path, "game 1 1 2 2\n0 0 1 1\n"))
        assert g.win.sum() == 1

    def test_bad_header(self, tmp_path):
        with pytest.raises(GameFormatError):
            load_game_file(self.write(tmp_path, "match 2 2 2 2\n"))

    def test_out_of_range_tuple(self, tmp_path):
        with pytest.raises(GameFormatError):
            load_game_file(self.write(tmp_path, "game 2 2 2 2\n0 0 0 5\n"))

    def test_win_outside_promise(self, tmp_path):
        path = self.write(tmp_path, "game 2 2 2 2\npromise 0 0\n1 1 0 0\n")
        with pytest.raises(GameFormatError) as err:
            load_game_file(path)
        assert str(err.value) == f"{path}: win entries defined outside the promise"

    def test_promise_after_tuples(self, tmp_path):
        with pytest.raises(GameFormatError):
            load_game_file(self.write(tmp_path, "game 2 2 2 2\n0 0 0 0\npromise 0 0\n"))
