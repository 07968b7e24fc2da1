"""Tests for the game-to-channel compiler and entropic rate quantities."""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gamemac import (
    Encoding,
    Mac,
    MacFormatError,
    ProductInput,
    chsh_game,
    compose,
    deterministic_strategy,
    hastad_game,
    identity_post,
    load_mac_file,
    losing_probability,
    mac_from_game,
    magic_square_game,
    magic_square_strategy,
    omega_uniform_bruteforce,
    pentagon,
    strategy_input,
    sum_rate_identity_check,
    to_classical_channel,
    write_mac_file,
)
from gamemac import channel
from gamemac.games import Game, ProductStrategy
from conftest import (
    random_game, random_quantum_strategy, random_strategy, shifted_workspace,
    sparse_distributions,
)


def all_win_game(nx1=2, nx2=2, ny1=2, ny2=2) -> Game:
    return Game(nx1, nx2, ny1, ny2, np.ones((nx1, nx2, ny1, ny2), dtype=bool))


def all_lose_game(nx1=2, nx2=2, ny1=2, ny2=2) -> Game:
    return Game(nx1, nx2, ny1, ny2, np.zeros((nx1, nx2, ny1, ny2), dtype=bool))


def uniform_input(n: Mac) -> ProductInput:
    return ProductInput(np.full(n.na, 1.0 / n.na), np.full(n.nb, 1.0 / n.nb))


def h(p) -> float:
    """Shannon entropy in bits of the probabilities in ``p``, any shape."""
    p = np.asarray(p)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def reference_pentagon(n: Mac, q: ProductInput) -> tuple[float, float, float]:
    """``(r1_max, r2_max, sum_max)`` from seven entropies of the joint p(a, b, z).

    ``I(A;Z|B) = H(AB) + H(BZ) - H(B) - H(ABZ)``, ``I(B;Z|A)`` likewise, and
    ``I(A,B;Z) = H(AB) + H(Z) - H(ABZ)``, each clamped at 0: a second route
    to the rates that shares no code with :func:`pentagon`.
    """
    j = q.p_a[:, None, None] * q.p_b[None, :, None] * n.p
    h_abz, h_ab, h_az, h_bz = h(j), h(j.sum(axis=2)), h(j.sum(axis=1)), h(j.sum(axis=0))
    h_a, h_b, h_z = h(j.sum(axis=(1, 2))), h(j.sum(axis=(0, 2))), h(j.sum(axis=(0, 1)))
    return (
        max(h_ab + h_bz - h_b - h_abz, 0.0),
        max(h_ab + h_az - h_a - h_abz, 0.0),
        max(h_ab + h_z - h_abz, 0.0),
    )


def looped_game_channel(g: Game) -> np.ndarray:
    """The table of ``mac_from_game(g)``, one winning row at a time."""
    nz = g.nx1 * g.nx2
    p = np.full((g.nx1 * g.ny1, g.nx2 * g.ny2, nz), 1.0 / nz)
    for x1, x2, y1, y2 in zip(*np.nonzero(g.win)):
        row = p[x1 * g.ny1 + y1, x2 * g.ny2 + y2]
        row[:] = 0.0
        row[x1 * g.nx2 + x2] = 1.0
    return p


def uniform_strategy(g: Game) -> ProductStrategy:
    return ProductStrategy(
        np.full((g.ny1, g.nx1), 1.0 / g.ny1),
        np.full((g.ny2, g.nx2), 1.0 / g.ny2),
        np.full(g.nx1, 1.0 / g.nx1),
        np.full(g.nx2, 1.0 / g.nx2),
    )


class TestMacValidation:
    def test_rows_must_normalize(self):
        p = np.full((2, 2, 2), 0.4)
        with pytest.raises(ValueError):
            Mac(2, 2, 2, p)

    def test_negative_entries_rejected(self):
        p = np.zeros((1, 1, 2))
        p[0, 0] = [1.5, -0.5]
        with pytest.raises(ValueError):
            Mac(1, 1, 2, p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        # nan slips past both `< 0` and the row-sum test unless finiteness
        # is required; an inf next to a -inf could cancel in a sum
        with pytest.raises(ValueError):
            Mac(1, 1, 2, [[[bad, 1.0]]])
        with pytest.raises(ValueError):
            Mac(1, 1, 2, [[[bad, bad]]])
        with pytest.raises(ValueError):
            Encoding(1, 1, 1, 2, [[[[bad, 1.0]]]])
        with pytest.raises(ValueError):
            ProductInput([bad, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            ProductInput([0.5, 0.5], [bad, bad])


class TestMacFromGame:
    def test_all_win_is_noiseless(self):
        g = all_win_game()
        n = mac_from_game(g)
        assert (n.na, n.nb, n.nz) == (4, 4, 4)
        for a in range(4):
            for b in range(4):
                z = (a // 2) * 2 + (b // 2)
                assert n.p[a, b, z] == 1.0

    def test_magic_square_dimensions_and_uniform_rows(self):
        n = mac_from_game(magic_square_game())
        assert (n.na, n.nb, n.nz) == (12, 12, 9)
        losing = n.p.max(axis=2) < 1.0
        assert losing.any()
        assert (n.p[losing] == 1.0 / 9.0).all()  # bit-exact uniform rows

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), density=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    def test_matches_row_by_row_reference(self, seed, density):
        g = random_game(np.random.default_rng(seed), max_size=4, win_density=density)
        n = mac_from_game(g)
        ref = looped_game_channel(g)
        assert n.p.shape == ref.shape and n.p.tobytes() == ref.tobytes()

    def test_all_lose_has_zero_capacity(self):
        n = mac_from_game(all_lose_game())
        pent = pentagon(n, uniform_input(n))
        assert pent.sum_max == pytest.approx(0.0, abs=1e-12)
        assert pent.r1_max == pytest.approx(0.0, abs=1e-12)


class TestCompose:
    def test_identity_is_bit_exact(self, rng):
        g = random_game(rng)
        n = mac_from_game(g)
        ident = np.eye(n.na * n.nb).reshape(n.na, n.nb, n.na, n.nb)
        same = compose(n, Encoding(n.na, n.nb, n.na, n.nb, ident))
        assert (same.p == n.p).all()

    def test_magic_square_quantum_encoding_noiseless(self):
        n = mac_from_game(magic_square_game())
        enc = to_classical_channel(
            magic_square_strategy(), identity_post(3, 4), identity_post(3, 4), 12, 12
        )
        total = compose(n, enc)
        assert (total.na, total.nb, total.nz) == (3, 3, 9)
        for r in range(3):
            for c in range(3):
                assert total.p[r, c, r * 3 + c] > 1 - 1e-9

    def test_all_lose_absorbs_any_encoding(self, rng):
        n = mac_from_game(all_lose_game())
        enc = to_classical_channel(
            random_quantum_strategy(rng, 2, 2, 2, 2),
            identity_post(2, 2),
            identity_post(2, 2),
            4,
            4,
        )
        total = compose(n, enc)
        assert np.abs(total.p - 0.25).max() < 1e-12

    def test_encoding_rows_within_its_tolerance_are_accepted(self):
        """An encoding row off by 5e-11 is valid, so the composition is a channel."""
        n = mac_from_game(chsh_game())
        near = np.eye(16).reshape(4, 4, 4, 4)
        near[0, 0, 0, 0] += 5e-11
        total = compose(n, Encoding(4, 4, 4, 4, near))
        assert np.abs(total.p - n.p).max() < 1e-10
        assert (total.p[1:] == n.p[1:]).all()

    def test_magic_square_entangled_channel_bytes(self):
        n = mac_from_game(magic_square_game())
        enc = to_classical_channel(
            magic_square_strategy(), identity_post(3, 4), identity_post(3, 4), 12, 12
        )
        total = compose(n, enc)
        assert hashlib.sha256(total.p.tobytes()).hexdigest()[:12] == "7de2c42cc329"
        uniform = ProductInput(np.full(3, 1 / 3), np.full(3, 1 / 3))
        assert pentagon(total, uniform).sum_max == 3.169925001442312

    def test_alphabet_mismatch_rejected(self):
        n = mac_from_game(all_win_game())
        with pytest.raises(ValueError):
            compose(n, Encoding(3, 4, 3, 4, np.eye(12).reshape(3, 4, 3, 4)))


class TestPentagon:
    def test_noiseless_question_channel(self):
        # all-win game restricted to question inputs: Z = (A, B) exactly
        g = all_win_game(3, 2, 1, 1)
        n = mac_from_game(g)
        pent = pentagon(n, uniform_input(n))
        assert pent.r1_max == pytest.approx(math.log2(3), abs=1e-12)
        assert pent.r2_max == pytest.approx(math.log2(2), abs=1e-12)
        assert pent.sum_max == pytest.approx(math.log2(6), abs=1e-12)

    def test_magic_square_two_code_paths(self):
        g = magic_square_game()
        n = mac_from_game(g)
        s = uniform_strategy(g)
        pent = pentagon(n, uniform_input(n))
        j = uniform_input(n).p_a[:, None, None] * uniform_input(n).p_b[None, :, None]
        p_z = (j * n.p).sum(axis=(0, 1))
        expected = h(p_z) - losing_probability(g, s) * math.log2(9)
        assert pent.sum_max == pytest.approx(expected, abs=1e-10)

    def test_point_mass_input_kills_r1(self, rng):
        g = random_game(rng)
        n = mac_from_game(g)
        p_a = np.zeros(n.na)
        p_a[0] = 1.0
        pent = pentagon(n, ProductInput(p_a, np.full(n.nb, 1.0 / n.nb)))
        assert pent.r1_max == pytest.approx(0.0, abs=1e-12)

    def test_sum_below_individual_sum(self, rng):
        for _ in range(20):
            g = random_game(rng)
            n = mac_from_game(g)
            q = ProductInput(
                rng.dirichlet(np.ones(n.na)), rng.dirichlet(np.ones(n.nb))
            )
            pent = pentagon(n, q)
            assert pent.sum_max <= pent.r1_max + pent.r2_max + 1e-9
            assert pent.r1_max <= pent.sum_max + 1e-12
            assert pent.r2_max <= pent.sum_max + 1e-12

    def test_sum_capped_by_output_and_input_entropy(self, rng):
        for _ in range(20):
            g = random_game(rng)
            n = mac_from_game(g)
            q = ProductInput(
                rng.dirichlet(np.ones(n.na)), rng.dirichlet(np.ones(n.nb))
            )
            pent = pentagon(n, q)
            j = q.p_a[:, None, None] * q.p_b[None, :, None] * n.p
            h_z = h(j.sum(axis=(0, 1)))
            h_inputs = h(q.p_a) + h(q.p_b)
            assert pent.sum_max <= min(h_z, h_inputs) + 1e-10

    def test_dimension_mismatch(self):
        n = mac_from_game(all_win_game())
        with pytest.raises(ValueError):
            pentagon(n, ProductInput([0.5, 0.5], [0.5, 0.5]))

    def test_rates_outside_the_pentagon_are_refused(self):
        # on the noiseless Z = (A, B) channel the shifted rates are
        # r1 = r2 = 0.5 and sum = 1.5 > r1 + r2
        n = mac_from_game(all_win_game(2, 2, 1, 1))
        with mock.patch.object(channel, "_Workspace", shifted_workspace):
            with pytest.raises(ValueError, match="row 0: pentagon rates"):
                pentagon(n, uniform_input(n))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_seven_entropy_reference(self, seed):
        # channels up to 6 x 6 -> 6 whose rows are sparse or deterministic,
        # at inputs with zero-mass entries or point masses
        rng = np.random.default_rng(seed)
        na, nb, nz = (int(k) for k in rng.integers(1, 7, size=3))
        n = Mac(na, nb, nz, sparse_distributions(rng, na * nb, nz).reshape(na, nb, nz))
        q = ProductInput(*(sparse_distributions(rng, 1, k)[0] for k in (na, nb)))
        pent = pentagon(n, q)
        got = [pent.r1_max, pent.r2_max, pent.sum_max]
        assert np.abs(np.subtract(got, reference_pentagon(n, q))).max() <= 1e-12


class TestSumRateIdentity:
    def test_perfect_strategy_gives_output_entropy(self):
        g = all_win_game()
        s = uniform_strategy(g)
        lhs, rhs = sum_rate_identity_check(g, s)
        assert lhs == pytest.approx(2.0, abs=1e-12)
        assert rhs == pytest.approx(2.0, abs=1e-12)

    def test_magic_square_optimal_classical(self):
        g = magic_square_game()
        best = omega_uniform_bruteforce(g)
        s = deterministic_strategy(g, best.alice, best.bob)
        lhs, rhs = sum_rate_identity_check(g, s)
        assert losing_probability(g, s) == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_random_instances(self, rng):
        for _ in range(200):
            g = random_game(rng, max_size=3)
            s = random_strategy(rng, g)
            lhs, rhs = sum_rate_identity_check(g, s)
            assert abs(lhs - rhs) < 1e-10

    def test_3sat_certificate_on_a_large_channel(self):
        # a satisfiable 10-variable, 30-clause formula: a 240 x 20 -> 300
        # channel, whose deterministic certificate reaches 30 x 10 of its rows
        rng = np.random.default_rng(1)
        clauses = [
            tuple(((rng.choice(10, 3, replace=False) + 1) * rng.choice([-1, 1], 3)).tolist())
            for _ in range(30)
        ]
        g = hastad_game(clauses, 10)
        best = omega_uniform_bruteforce(g)
        assert best.value == 1
        n = mac_from_game(g)
        assert (n.na, n.nb, n.nz) == (240, 20, 300)
        s = deterministic_strategy(g, best.alice, best.bob)
        rate = pentagon(n, strategy_input(s)).sum_max
        assert rate == pytest.approx(math.log2(300), abs=1e-12)
        lhs, rhs = sum_rate_identity_check(g, s)
        assert lhs == rate
        assert rhs == pytest.approx(lhs, abs=1e-10)


class TestStrategyInput:
    def test_matches_joint_distribution(self, rng):
        g = random_game(rng)
        s = random_strategy(rng, g)
        q = strategy_input(s)
        for x1 in range(g.nx1):
            for y1 in range(g.ny1):
                assert q.p_a[x1 * g.ny1 + y1] == pytest.approx(
                    s.pi_x1[x1] * s.p_y1_given_x1[y1, x1], abs=1e-15
                )

    def test_requires_marginals(self):
        with pytest.raises(TypeError):
            ProductStrategy(np.full((2, 2), 0.5), np.full((2, 2), 0.5))

    @pytest.mark.parametrize("short", [[1.0], [0.5, 0.5]], ids=["length_1", "length_2"])
    def test_marginal_of_wrong_length_is_refused(self, short):
        """A marginal shorter than its 3 questions is refused when the strategy
        is built, before strategy_input or sum_rate_identity_check broadcast it."""
        s = uniform_strategy(all_win_game(3, 3))
        match = "^question marginal lengths do not match"
        with pytest.raises(ValueError, match=match):
            ProductStrategy(s.p_y1_given_x1, s.p_y2_given_x2, short, s.pi_x2)
        with pytest.raises(ValueError, match=match):
            ProductStrategy(s.p_y1_given_x1, s.p_y2_given_x2, s.pi_x1, short)


def reference_mac_text(n: Mac) -> str:
    """The channel file, formatted one entry at a time."""
    lines = [f"mac {n.na} {n.nb} {n.nz}\n"]
    for a in range(n.na):
        for b in range(n.nb):
            lines.append(" ".join("%.17g" % v for v in n.p[a, b]) + "\n")
    return "".join(lines)


def check_mac_file(path, n: Mac) -> None:
    """Written bytes match the reference; loading gives the table bit for bit."""
    write_mac_file(path, n)
    assert path.read_text(encoding="utf-8") == reference_mac_text(n)
    again = load_mac_file(path)
    assert (again.na, again.nb, again.nz) == (n.na, n.nb, n.nz)
    assert again.p.tobytes() == n.p.tobytes()


class TestMacFile:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        for g in (magic_square_game(), random_game(rng)):
            check_mac_file(tmp_path / "chan.txt", mac_from_game(g))

    def test_composed_channel_round_trip(self, tmp_path):
        n = mac_from_game(magic_square_game())
        enc = to_classical_channel(
            magic_square_strategy(), identity_post(3, 4), identity_post(3, 4), 12, 12
        )
        check_mac_file(tmp_path / "total.txt", compose(n, enc))

    def test_values_whose_17_digits_differ_from_repr(self, tmp_path):
        third = 1.0 / 3.0
        assert "%.17g" % 0.1 != repr(0.1) and "%.17g" % third != repr(third)
        rows = [
            [0.1, 0.2, 0.7],
            [third, third, 1.0 - 2 * third],
            [0.1, 0.2, 0.7],
            [0.0, 0.5, 0.5],
            [-0.0, 0.5, 0.5],  # bit-distinct from the row above
            [1e-300, 0.5, 0.5 - 1e-300],
        ]
        check_mac_file(tmp_path / "chan.txt", Mac(2, 3, 3, np.reshape(rows, (2, 3, 3))))

    def test_random_channels_with_repeated_rows(self, tmp_path, rng):
        for _ in range(5):
            na, nb, nz = rng.integers(1, 6, size=3)
            p = rng.random((na, nb, nz)) ** 4
            p[rng.random((na, nb)) < 0.3] = p[0, 0]
            p /= p.sum(axis=2, keepdims=True)
            check_mac_file(tmp_path / "chan.txt", Mac(na, nb, nz, p))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("channel 2 2 2\n")
        with pytest.raises(MacFormatError):
            load_mac_file(path)

    def test_not_utf8_text(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"mac 1 1 1\n\xff\xfe\n")
        with pytest.raises(MacFormatError, match="bad.txt: not UTF-8 text"):
            load_mac_file(path)

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("mac 2 2 2\n0.5 0.5\n")
        with pytest.raises(MacFormatError):
            load_mac_file(path)

    def test_unnormalized_row(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("mac 1 1 2\n0.6 0.6\n")
        with pytest.raises(MacFormatError):
            load_mac_file(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty channel file"),
            ("\n  \n", "empty channel file"),
            ("mac 2 x 2\n", "non-integer alphabet size"),
            ("mac 1 0 2\n", "alphabet sizes must be >= 1"),
            ("mac 1 2 2\n0.5 0.5\n1\n", "row 1 has 1 entries, expected 2"),
            ("mac 1 2 2\n0.5 0.5\n1 0 0\n", "row 1 has 3 entries, expected 2"),
            ("mac 2 1 2\n0.5 0.5\n0.5 abc\n", "non-numeric entry in row 1"),
            # the first bad row is named, whatever is wrong with later ones
            ("mac 3 1 2\n1 0\n0.5 x\n1\n", "non-numeric entry in row 1"),
            ("mac 3 1 2\n1 0\n1\n0.5 x\n", "row 1 has 1 entries, expected 2"),
            # a bad row repeated after a repeated good row is named where it first appears
            ("mac 4 1 2\n1 0\n1 0\n0.5 x\n0.5 x\n", "non-numeric entry in row 2"),
            ("mac 4 1 2\n1 0\n1 0\n1\n1\n", "row 2 has 1 entries, expected 2"),
            ("mac 1 1 2\nnan nan\n", "finite"),
            ("mac 1 1 2\nnan 1\n", "finite"),
            ("mac 1 1 2\ninf 0\n", "finite"),
        ],
    )
    def test_malformed_file(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(MacFormatError, match=message):
            load_mac_file(path)

