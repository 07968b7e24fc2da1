"""Tests for sum-rate bounds, inner bounds, and linear-system game rates."""

import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gamemac import (
    Mac,
    binary_entropy,
    binary_rel_entropy,
    chsh_game,
    inner_bound,
    lsg_rates,
    mac_from_game,
    magic_square_game,
    omega_uniform_bruteforce,
    pentagon,
    solve_eps_star,
    sum_capacity_lower_bound,
    sum_rate_upper_bound,
    upper_bound_curve,
    write_region_dat,
    write_upper_bound_curve,
)
from gamemac import capacity
from gamemac.capacity import (
    LsgRates,
    _alternate,
    _ascend_block,
    _BlockContext,
    _extrapolate,
    _rates,
    _vertex_coeffs,
    _Workspace,
)
from gamemac.channel import ProductInput
from conftest import random_game, sparse_distributions

LOG9 = math.log2(9)
STEPS = capacity._BA_STEPS


def all_win_game(nx1=2, nx2=2, ny1=1, ny2=1):
    from gamemac import Game

    return Game(nx1, nx2, ny1, ny2, np.ones((nx1, nx2, ny1, ny2), dtype=bool))


def all_lose_game(nx1=2, nx2=2, ny1=2, ny2=2):
    from gamemac import Game

    return Game(nx1, nx2, ny1, ny2, np.zeros((nx1, nx2, ny1, ny2), dtype=bool))


def loss_divergence(e, omega):
    """``d(e || 1 - omega)`` in bits for ``0 < e < 1``, from ``omega`` itself.

    ``1 - (1 - omega)`` would lose the low digits of a small ``omega``.
    """
    nats = e * math.log(e / (1 - omega)) + (1 - e) * (math.log1p(-e) - math.log(omega))
    return nats / math.log(2)


def xor_mac() -> Mac:
    p = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            p[a, b, a ^ b] = 1.0
    return Mac(2, 2, 2, p)


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints_vanish(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_rel_entropy_vanishes_on_diagonal(self):
        for x in (0.01, 0.25, 0.5, 0.9):
            assert binary_rel_entropy(x, x) == pytest.approx(0.0, abs=1e-15)

    def test_rel_entropy_value(self):
        # direct formula evaluation at the operating point of the headline game
        x, y = 0.0104, 1.0 / 9.0
        expected = x * math.log2(x / y) + (1 - x) * math.log2((1 - x) / (1 - y))
        assert expected == pytest.approx(0.117692, abs=1e-6)
        assert binary_rel_entropy(x, y) == pytest.approx(expected, abs=1e-15)

    def test_rel_entropy_infinite_off_boundary(self):
        assert binary_rel_entropy(0.5, 0.0) == math.inf
        assert binary_rel_entropy(0.5, 1.0) == math.inf
        assert binary_rel_entropy(0.0, 0.0) == 0.0
        assert binary_rel_entropy(1.0, 1.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)
        with pytest.raises(ValueError):
            binary_rel_entropy(-0.1, 0.5)
        with pytest.raises(ValueError):
            binary_rel_entropy(0.5, 1.2)


class TestSolveEpsStar:
    def test_headline_operating_point(self):
        eps = solve_eps_star(0.03299, 8.0 / 9.0)
        assert eps > 0
        assert eps == pytest.approx(0.01040, abs=1e-4)

    def test_residual_of_the_defining_equation(self):
        for delta in (0.001, 0.01, 0.03299, 0.1):
            eps = solve_eps_star(delta, 8.0 / 9.0)
            lhs = (delta + binary_entropy(eps)) / (1 - eps)
            rhs = binary_rel_entropy(eps, 1.0 / 9.0)
            assert abs(lhs - rhs) < 1e-9

    def test_grid_scan_oracle(self):
        # independent check: dense scan for the sign change of lhs - rhs
        delta, omega = 0.05, 0.75
        eps = solve_eps_star(delta, omega)
        grid = np.arange(1e-7, 0.25, 1e-7)
        h = -grid * np.log2(grid) - (1 - grid) * np.log2(1 - grid)
        lhs = (delta + h) / (1 - grid)
        rhs = grid * np.log2(grid / 0.25) + (1 - grid) * np.log2((1 - grid) / 0.75)
        crossing = grid[np.argmax(lhs >= rhs)]
        assert abs(eps - crossing) < 1e-6

    def test_monotone_decreasing_in_delta(self):
        values = [
            solve_eps_star(d, 8.0 / 9.0) for d in (0.0, 0.02, 0.05, 0.1, 0.15)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_vanishes_at_the_right_endpoint(self):
        d_max = -math.log2(8.0 / 9.0)
        assert 0 < solve_eps_star(d_max - 1e-9, 8.0 / 9.0) < 1e-6
        assert solve_eps_star(d_max + 1e-6, 8.0 / 9.0) == 0.0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        omega=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        frac=st.floats(0.0, 2.0),
    )
    @example(omega=5e-324, frac=1.5)  # 1 - omega rounds to 1
    @example(omega=1e-10, frac=1 - 6e-11)  # 2e-9 below the end of the range
    def test_root_exists_exactly_below_the_end_of_the_range(self, omega, frac):
        d_max = -math.log2(omega)
        delta = frac * d_max
        assume(abs(delta - d_max) >= 1e-9)
        eps = solve_eps_star(delta, omega)
        assert (eps > 0) == (delta < d_max)
        if eps > 0:
            lhs = (delta + binary_entropy(eps)) / (1 - eps)
            assert lhs == pytest.approx(loss_divergence(eps, omega), rel=1e-9, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            solve_eps_star(-0.01, 0.9)
        with pytest.raises(ValueError):
            solve_eps_star(0.01, 1.0)
        with pytest.raises(ValueError, match="delta"):
            solve_eps_star(float("nan"), 0.5)


class TestSumRateUpperBound:
    def test_magic_square_headline_numbers(self):
        g = magic_square_game()
        res = sum_rate_upper_bound(g, Fraction(8, 9))
        assert res.delta_star == pytest.approx(0.03299, abs=1e-3)
        assert res.eps_star == pytest.approx(0.01040, abs=1e-4)
        assert res.bound == pytest.approx(3.13694, abs=1e-4)
        assert res.bound <= LOG9

    def test_bound_approaches_log_d_as_omega_tends_to_one(self):
        g = magic_square_game()
        res = sum_rate_upper_bound(g, 1 - 1e-6)
        assert LOG9 - res.bound < 1e-4
        assert res.bound <= LOG9

    @pytest.mark.parametrize("omega", [1 - 1e-14, 1 - 1e-15, 1 - 2**-52, 1 - 2**-53])
    def test_omega_within_rounding_of_one(self, omega):
        g = magic_square_game()
        res = sum_rate_upper_bound(g, omega)
        assert sum_rate_upper_bound(g, 1 - 1e-9).bound <= res.bound <= LOG9

    def test_omega_whose_complement_rounds_to_one(self):
        # 1 - 1e-20 rounds to 1.0; a relative entropy taken from it put eps*
        # at 1 and the bound at 0
        res = sum_rate_upper_bound(magic_square_game(), 1e-20)
        e = res.eps_star
        lhs = (res.delta_star + binary_entropy(e)) / (1 - e)
        assert lhs == pytest.approx(loss_divergence(e, 1e-20), rel=1e-9)
        assert 0 < res.bound < LOG9

    def test_omega_one_rejected(self):
        with pytest.raises(ValueError):
            sum_rate_upper_bound(magic_square_game(), Fraction(1, 1))

    def test_one_question_pair_rejected(self):
        # d = 1: every slack gives the bound 0, so there is no optimum to report
        with pytest.raises(ValueError, match="1 x 1"):
            sum_rate_upper_bound(all_lose_game(1, 1), 0.5)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        nx1=st.integers(2, 9),
        nx2=st.integers(2, 9),
        omega=st.floats(0.05, 1 - 1e-6),
    )
    def test_optimum_against_sampled_curve(self, nx1, nx2, omega):
        # oracle: no sampled slack beats the optimum, and eps* is the slack
        # equation's own root at the reported delta*
        g = all_lose_game(nx1, nx2)
        res = sum_rate_upper_bound(g, omega)
        assert res.bound <= upper_bound_curve(g, omega, 400)[:, 1].min() + 1e-12
        eps = solve_eps_star(res.delta_star, omega)
        assert eps == pytest.approx(res.eps_star, rel=1e-9)

    def test_bound_at_optimum_balances_branches(self):
        # the minimum of max{rising, falling} sits where the branches meet
        g = magic_square_game()
        res = sum_rate_upper_bound(g, 8.0 / 9.0)
        assert res.eps_star * LOG9 == pytest.approx(res.delta_star, abs=1e-6)

    def test_curve_shape(self):
        g = magic_square_game()
        curve = upper_bound_curve(g, 8.0 / 9.0, points=200)
        d, u = curve[:, 0], curve[:, 1]
        assert d[0] == 0.0
        assert d[-1] == pytest.approx(math.log2(9.0 / 8.0), abs=1e-12)
        assert u[0] == pytest.approx(LOG9, abs=1e-9)
        assert u[-1] == pytest.approx(LOG9, abs=1e-9)
        diffs = np.diff(u)
        signs = np.sign(diffs[np.abs(diffs) > 1e-12])
        flips = np.count_nonzero(np.diff(signs) != 0)
        assert flips == 1  # unimodal: decreasing then increasing
        assert u.min() == pytest.approx(3.13694, abs=1e-3)


def _block(seed, mu, transposed, rows=4):
    """A random small channel's block at weight ``mu``, and a start batch.

    Returns ``block`` and the batch; ``block(idx)`` is the block context of
    the batch rows ``idx`` alone, all of them by default.  ``transposed``
    selects the second sender's block, optimized with the first sender
    frozen, as the alternating driver does.
    """
    rng = np.random.default_rng(seed)
    n = mac_from_game(random_game(rng, max_size=3))
    ws = _Workspace(n)
    coeffs = _vertex_coeffs(np.full(rows, mu))
    pa = rng.dirichlet(np.ones(n.na), size=rows)
    pb = rng.dirichlet(np.ones(n.nb), size=rows)
    own, other = (pb, pa) if transposed else (pa, pb)

    def block(idx=slice(None)):
        return _BlockContext(other[idx], ws, [c[idx] for c in coeffs], transposed)

    return block, own


class TestOptimizerInternals:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mu=st.floats(0.0, 1.0),
        transposed=st.booleans(),
    )
    def test_block_update_never_lowers_objective(self, seed, mu, transposed):
        block, p = _block(seed, mu, transposed)
        ctx = block()
        before = ctx.objective(p)
        p, _ = _ascend_block(p.copy(), ctx, np.zeros(len(p), dtype=bool), steps=1)
        assert np.allclose(p.sum(axis=1), 1.0) and (p >= 0.0).all()
        assert (ctx.objective(p) >= before - 1e-12).all()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mu=st.floats(0.0, 1.0),
        transposed=st.booleans(),
        hold=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    def test_held_rows_come_back_bit_identical(self, seed, mu, transposed, hold):
        # the BA loop runs on the whole batch, but a held row within _GAP_TOL
        # is not written back: it returns bit for bit as its gap was measured;
        # the rows that move match the same rows moved in a batch of their own
        block, p = _block(seed, mu, transposed, rows=6)
        ctx = block()
        # near-exact solves of four rows put some gaps within _GAP_TOL
        p[:4] = _ascend_block(p, ctx, np.zeros(len(p), dtype=bool), steps=500)[0][:4]
        hold = np.array(hold)
        out, gap = _ascend_block(p.copy(), ctx, hold, STEPS)
        kept = hold & (gap <= capacity._GAP_TOL)
        assert (out[kept] == p[kept]).all()
        moved = np.nonzero(~kept)[0]
        alone, _ = _ascend_block(p[moved], block(moved), hold[moved], STEPS)
        assert np.abs(alone - out[moved]).max(initial=0.0) <= 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), transposed=st.booleans())
    def test_linear_block_moves_to_best_vertex(self, seed, transposed):
        # the first sender is silenced at mu = 0, the second at mu = 1: their
        # blocks are linear, and the update jumps straight to a vertex; on a
        # linear block the Frank–Wolfe gap is exactly what that jump gains
        block, p = _block(seed, 1.0 if transposed else 0.0, transposed)
        ctx = block()
        assert (ctx.weight == 0.0).all()
        before = ctx.objective(p)
        p, gap = _ascend_block(p.copy(), ctx, np.zeros(len(p), dtype=bool), STEPS)
        assert ((p == 0.0) | (p == 1.0)).all() and (p.sum(axis=1) == 1.0).all()
        f = ctx.objective(p)
        assert np.abs(f - before - gap).max() <= 1e-12
        for vertex in np.eye(p.shape[1]):
            assert (f >= ctx.objective(np.tile(vertex, (len(p), 1)))).all()

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_subnormal_weight_moves_without_warnings(self, seed):
        # at mu = 5e-324 the first sender's block weight is subnormal and the
        # BA exponent overflows to -inf; the second sender's weight is about 1
        for transposed in (False, True):
            block, p = _block(seed, 5e-324, transposed)
            ctx = block()
            before = ctx.objective(p)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                p, _ = _ascend_block(p.copy(), ctx, np.zeros(len(p), dtype=bool), STEPS)
            assert (p >= 0.0).all() and np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12
            assert (ctx.objective(p) >= before - 1e-12).all()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mus=st.lists(st.floats(0.0, 1.0), max_size=5),
        transposed=st.booleans(),
    )
    def test_batched_gradient_matches_each_row_alone(self, seed, mus, transposed):
        # each entropy term runs only on the rows where its coefficient is
        # nonzero; every row must read the gradient of a batch of its own
        rng = np.random.default_rng(seed)
        n = mac_from_game(random_game(rng, max_size=3))
        ws = _Workspace(n)
        mus = rng.permutation([0.0, 0.5, 1.0, *mus])
        pa = rng.dirichlet(np.ones(n.na), size=len(mus))
        pb = rng.dirichlet(np.ones(n.nb), size=len(mus))
        own, other = (pb, pa) if transposed else (pa, pb)
        ctx = _BlockContext(other, ws, _vertex_coeffs(mus), transposed)
        grad = ctx.gradient(own)
        for r, mu in enumerate(mus):
            alone = _BlockContext(
                other[r : r + 1], ws, _vertex_coeffs(np.array([mu])), transposed
            )
            assert np.abs(grad[r] - alone.gradient(own[r : r + 1])[0]).max() <= 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mus=st.lists(st.floats(0.0, 1.0), max_size=5),
        transposed=st.booleans(),
    )
    def test_blind_rows_match_a_block_of_their_own(self, seed, mus, transposed):
        # blind reads its rows' coefficients and frozen batch out of the whole
        # batch's block; inputs at zero mass give it blind inputs to find
        rng = np.random.default_rng(seed)
        n = mac_from_game(random_game(rng, max_size=3))
        ws = _Workspace(n)
        mus = rng.permutation([0.0, 0.5, 1.0, *mus])
        coeffs = _vertex_coeffs(mus)
        pa = sparse_distributions(rng, len(mus), n.na)
        pb = sparse_distributions(rng, len(mus), n.nb)
        own, other = (pb, pa) if transposed else (pa, pb)
        ctx = _BlockContext(other, ws, coeffs, transposed)
        rows = rng.permutation(len(mus))[: rng.integers(1, len(mus) + 1)]
        alone = _BlockContext(other[rows], ws, [c[rows] for c in coeffs], transposed)
        expect = alone.blind(own[rows], np.arange(len(rows)))
        assert (ctx.blind(own[rows], rows) == expect).all()

    def test_gradient_is_a_new_array(self, rng):
        # a gradient taken earlier stays as it was through later gradient,
        # objective and blind calls on the same context
        n = mac_from_game(random_game(rng, max_size=3))
        mus = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        pa = rng.dirichlet(np.ones(n.na), size=len(mus))
        pb = rng.dirichlet(np.ones(n.nb), size=len(mus))
        ctx = _BlockContext(pb, _Workspace(n), _vertex_coeffs(mus))
        grad = ctx.gradient(pa)
        held = grad.copy()
        moved = rng.dirichlet(np.ones(n.na), size=len(mus))
        later = ctx.gradient(moved)
        ctx.objective(moved)
        ctx.blind(moved, np.arange(len(mus)))
        assert (grad == held).all() and not (later == held).all()

    def test_gradient_matches_finite_differences(self, rng):
        g = random_game(rng, max_size=3)
        n = mac_from_game(g)
        ws = _Workspace(n)
        for coeffs in [(1, 0, 0, 1), (0.25, 0, 0.5, 0.75), (0.3, 0.4, 0, 0.7)]:
            pa = rng.dirichlet(np.ones(n.na), size=3)
            pb = rng.dirichlet(np.ones(n.nb), size=3)
            ctx = _BlockContext(pb, ws, [np.full(3, float(c)) for c in coeffs])
            grad = ctx.gradient(pa)
            eps = 1e-7
            for r in range(3):
                for a in range(n.na):
                    hi = pa.copy()
                    hi[r, a] += eps
                    lo = pa.copy()
                    lo[r, a] -= eps
                    fd = (ctx.objective(hi)[r] - ctx.objective(lo)[r]) / (2 * eps)
                    assert grad[r, a] == pytest.approx(fd, abs=1e-5)

    def test_transposed_objective_matches(self, rng):
        # the transposed block, with its coefficients swapped, is the same function
        g = random_game(rng, max_size=3)
        n = mac_from_game(g)
        ws = _Workspace(n)
        coeffs = [np.full(4, c) for c in (0.3, 0.45, 0.0, 0.75)]
        pa = rng.dirichlet(np.ones(n.na), size=4)
        pb = rng.dirichlet(np.ones(n.nb), size=4)
        direct = _BlockContext(pb, ws, coeffs)
        swapped = _BlockContext(pa, ws, coeffs, transposed=True)
        assert np.abs(direct.objective(pa) - swapped.objective(pb)).max() < 1e-12


def _block_gaps(ws, pa, pb, coeffs):
    """Frank–Wolfe gaps of both blocks at ``(pa, pb)``, from the gradients."""
    grad_a = _BlockContext(pb, ws, coeffs).gradient(pa)
    grad_b = _BlockContext(pa, ws, coeffs, transposed=True).gradient(pb)
    return [g.max(axis=1) - (p * g).sum(axis=1) for p, g in ((pa, grad_a), (pb, grad_b))]


class TestGapCertificate:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), restarts=st.integers(1, 3))
    def test_converged_witnesses_have_certified_gaps(self, seed, restarts):
        # the reported gap is the larger block gap at the witness itself
        rng = np.random.default_rng(seed)
        n = mac_from_game(random_game(rng, max_size=3))
        ws = _Workspace(n)
        mus = np.linspace(0.0, 1.0, 5)
        region = inner_bound(n, restarts=restarts, seed=seed, mu_points=5)
        assert any(w.converged for w in region.witnesses)
        for w in region.witnesses:
            if not w.converged:
                continue
            pa, pb = w.input.p_a[None, :], w.input.p_b[None, :]
            coeffs = _vertex_coeffs(mus[w.mu_index : w.mu_index + 1])
            worst = max(g[0] for g in _block_gaps(ws, pa, pb, coeffs))
            assert worst <= capacity._GAP_TOL
            assert worst == pytest.approx(w.gap, rel=0, abs=1e-12)
            # no zero-mass input hides an infinite slope behind a finite gap
            assert not _BlockContext(pb, ws, coeffs).blind(pa, [0]).any()
            assert not _BlockContext(pa, ws, coeffs, transposed=True).blind(pb, [0]).any()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        na=st.integers(2, 4),
        nb=st.integers(2, 4),
        mu=st.floats(0.05, 0.95),
    )
    def test_starved_best_input_is_revived(self, seed, na, nb, mu):
        # a noisy identity channel needs every input (the optimum is uniform),
        # and an input at exactly zero mass reaches the least likely outputs,
        # so it has the largest gradient; BA alone never brings it back
        nz = na * nb
        chan = np.full((na, nb, nz), 0.1 / nz)
        chan[np.arange(na)[:, None], np.arange(nb), np.arange(nz).reshape(na, nb)] += 0.9
        ws = _Workspace(Mac(na, nb, nz, chan))
        rng = np.random.default_rng(seed)
        pa = rng.dirichlet(np.ones(na), size=1)
        pa[0, 0] = 0.0
        pa /= pa.sum()
        pb = rng.dirichlet(np.ones(nb), size=1)
        coeffs = _vertex_coeffs(np.array([mu]))
        assert np.argmax(_BlockContext(pb, ws, coeffs).gradient(pa)) == 0
        with mock.patch.object(capacity, "_MAX_SWEEPS", 200):
            pa, pb, gap = _alternate(pa, pb, ws, coeffs)
        assert gap[0] <= capacity._GAP_TOL and pa[0, 0] > 0.0
        assert max(g[0] for g in _block_gaps(ws, pa, pb, coeffs)) <= capacity._GAP_TOL

    @pytest.mark.parametrize("mu", [0.5, 1.0])
    def test_input_reaching_an_unused_output_is_revived(self, mu):
        # noiseless 2 x 2 channel, from pa = [0, 1]: outputs 0 and 1 have
        # probability 0 and only input 0 reaches them, so its true slope is
        # +inf, through H(Z) at mu = 0.5 and H(Z|B) at mu = 1; with log2 0
        # taken as 0 it reads finite, and the start (0.5) looked certified
        ws = _Workspace(Mac(2, 2, 4, np.eye(4).reshape(2, 2, 4)))
        coeffs = _vertex_coeffs(np.array([mu]))
        pa, pb = np.array([[0.0, 1.0]]), np.array([[0.5, 0.5]])
        ctx = _BlockContext(pb, ws, coeffs)
        moved, gap_a = _ascend_block(pa.copy(), ctx, np.ones(1, dtype=bool), STEPS)
        assert gap_a[0] == np.inf and moved[0, 0] > 0.0  # open even when held
        pa, pb, gap = _alternate(pa, pb, ws, coeffs)
        objective = _BlockContext(pb, ws, coeffs).objective(pa)
        assert objective[0] >= 1.0 - 1e-6
        worst = max(g[0] for g in _block_gaps(ws, pa, pb, coeffs))
        assert worst <= capacity._GAP_TOL
        assert worst == pytest.approx(gap[0], rel=0, abs=1e-12)


class TestExtrapolation:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mus=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    )
    def test_jump_stays_feasible_and_never_lowers_objective(self, seed, mus):
        # every extrapolating sweep pair of a run, against the same two
        # sweeps without the jump (the state the jump starts from)
        rng = np.random.default_rng(seed)
        n = mac_from_game(random_game(rng, max_size=3))
        ws, na, nb = _Workspace(n), n.na, n.nb
        coeffs = _vertex_coeffs(np.array(mus))
        pa = rng.dirichlet(np.ones(na), size=len(mus))
        pb = rng.dirichlet(np.ones(nb), size=len(mus))
        squarem = capacity._squarem

        def checked(x0, x1, pa, pb, ws, coeffs, before):
            at_x2 = _BlockContext(pb, ws, coeffs).objective(pa)
            assert np.abs(before - at_x2).max(initial=0.0) <= 1e-12
            xa, xb, jumped = squarem(x0, x1, pa.copy(), pb.copy(), ws, coeffs, before)
            stayed = np.setdiff1d(np.arange(len(pa)), jumped)
            assert (xa[stayed] == pa[stayed]).all() and (xb[stayed] == pb[stayed]).all()
            for p in (xa, xb):
                assert (p >= 0.0).all()
                assert np.abs(p.sum(axis=1) - 1.0).max(initial=0.0) <= 1e-12
            after = _BlockContext(xb, ws, coeffs).objective(xa)
            assert (after >= before - 1e-12).all()
            return xa, xb, jumped

        # a weight within about 1e-4 of 0 or 1 can leave a row open for every
        # sweep; 100 sweeps still give such a row 50 extrapolating pairs
        with (
            mock.patch.object(capacity, "_squarem", checked),
            mock.patch.object(capacity, "_MAX_SWEEPS", 100),
        ):
            _alternate(pa, pb, ws, coeffs)


    @staticmethod
    def loop_extrapolate(x0, x1, x2):
        # the step-length search as a loop: halve alpha toward -1 on the rows
        # with a negative entry, at most 10 times, then give up at -1
        r = x1 - x0
        v = x2 - x1 - r
        norm_v = np.linalg.norm(v, axis=1)
        alpha = -np.linalg.norm(r, axis=1) / np.where(norm_v > 0.0, norm_v, np.inf)
        alpha = np.minimum(alpha, -1.0)[:, None]
        x = x0 - 2.0 * alpha * r + alpha**2 * v
        halvings = np.zeros(len(x0), dtype=int)
        for _ in range(10):
            neg = (x < 0.0).any(axis=1)
            if not neg.any():
                break
            halvings += neg
            alpha[neg] = 0.5 * (alpha[neg] - 1.0)
            x[neg] = x0[neg] - 2.0 * alpha[neg] * r[neg] + alpha[neg] ** 2 * v[neg]
        alpha[(x < 0.0).any(axis=1)] = -1.0
        return alpha[:, 0], x, halvings

    @pytest.mark.parametrize("seed", range(5))
    def test_one_shot_step_matches_the_halving_loop(self, seed):
        # in the first 100 rows, an entry at 0 in x2 and above 0 in x1 is
        # negative at every alpha < -1 near -1: such a row never becomes feasible
        rng = np.random.default_rng(seed)
        x0, x1, x2 = (rng.dirichlet(np.ones(6), size=400) for _ in range(3))
        x2[rng.random(x2.shape) < 0.15] = 0.0
        x1[:100] = x2[:100] + rng.normal(0.0, 0.05, (100, 6))
        # nearly straight runs, |v| < |r|: alpha starts at about -2.5 or -5000
        for rows, noise in ((slice(100, 200), 1e-5), (slice(200, 300), 0.02)):
            step = rng.normal(0.0, 0.05, (100, 6))
            x1[rows] = x2[rows] - step
            x0[rows] = x1[rows] - step + rng.normal(0.0, noise, (100, 6))
        alpha, x = _extrapolate(x0, x1, x2)
        ref_alpha, ref_x, halvings = self.loop_extrapolate(x0, x1, x2)
        assert (alpha == ref_alpha).all()
        jump = alpha < -1.0
        assert (x[jump] == ref_x[jump]).all() and (x[jump] >= 0.0).all()
        # the draws reach every branch: no halving, some, and giving up
        assert (jump & (halvings == 0)).any() and (jump & (halvings > 0)).any()
        assert ((halvings == 10) & ~jump).any()


class TestBatchedSolve:
    @staticmethod
    def scalar_coeffs(mu):
        if mu >= 0.5:
            return (1.0 - mu, 2.0 * mu - 1.0, 0.0, mu)
        return (mu, 0.0, 1.0 - 2.0 * mu, 1.0 - mu)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), restarts=st.integers(1, 3))
    @example(seed=57065, restarts=2)  # a 9 x 6 -> 9 game whose mu = 0.75 row zigzags
    def test_mixed_weight_batch_matches_each_weight_alone(self, seed, restarts):
        # every row's weighted optimum is the same whether its weight shares
        # the batch with other weights or is solved alone
        rng = np.random.default_rng(seed)
        n = mac_from_game(random_game(rng, max_size=3))
        ws, na, nb = _Workspace(n), n.na, n.nb
        mus = np.repeat([0.0, 0.25, 0.5, 0.75, 1.0], restarts)
        pa = rng.dirichlet(np.ones(na), size=len(mus))
        pb = rng.dirichlet(np.ones(nb), size=len(mus))
        coeffs = _vertex_coeffs(mus)
        assert all(c.shape == mus.shape for c in coeffs)
        for row, mu in enumerate(mus):
            assert tuple(c[row] for c in coeffs) == self.scalar_coeffs(mu)

        def value(pa, pb, coeffs):
            return _BlockContext(pb, ws, coeffs).objective(pa)

        ba, bb, gap = _alternate(pa.copy(), pb.copy(), ws, coeffs)
        assert (gap <= capacity._GAP_TOL).all()  # every row certified, none capped
        batched = value(ba, bb, coeffs)
        for mu in np.unique(mus):
            rows = np.nonzero(mus == mu)[0]
            alone = tuple(np.full(len(rows), c) for c in self.scalar_coeffs(mu))
            sa, sb, gap = _alternate(pa[rows].copy(), pb[rows].copy(), ws, alone)
            assert (gap <= capacity._GAP_TOL).all()
            assert np.abs(value(sa, sb, alone) - batched[rows]).max() <= 1e-9

    def test_chsh_witnesses_converge(self):
        # every run ends with both block gaps certified within _GAP_TOL
        region = inner_bound(mac_from_game(chsh_game()), restarts=4, seed=1,
                             mu_points=9)
        assert all(w.converged for w in region.witnesses)

    def test_exact_block_solves_only_in_the_first_two_sweeps(self):
        # sweeps 0 and 1 give each block 20 BA steps, every later sweep 5
        n = mac_from_game(magic_square_game())
        rng = np.random.default_rng(0)
        pa = rng.dirichlet(np.ones(n.na), size=10)
        pb = rng.dirichlet(np.ones(n.nb), size=10)
        ascend, steps = capacity._ascend_block, []

        def spy(pa, ctx, hold, count):
            steps.append(count)
            return ascend(pa, ctx, hold, count)

        with mock.patch.object(capacity, "_ascend_block", spy):
            _alternate(pa, pb, _Workspace(n), _vertex_coeffs(np.linspace(0.0, 1.0, 10)))
        assert len(steps) > 4
        assert steps == [20] * 4 + [5] * (len(steps) - 4)

    def test_magic_region_converges_and_restarts_agree(self):
        # the benchmark's region: every witness certified, and at least 88 % of
        # the (weight, restart) solves within 1e-6 of their weight's best
        region = inner_bound(
            mac_from_game(magic_square_game()), restarts=16, mu_points=17, seed=0
        )
        assert all(w.converged for w in region.witnesses)
        mus = np.linspace(0.0, 1.0, 17)
        value = np.full((17, 16), -np.inf)
        for w in region.witnesses:
            v = mus[w.mu_index] * w.r1 + (1.0 - mus[w.mu_index]) * w.r2
            value[w.mu_index, w.restart] = max(value[w.mu_index, w.restart], v)
        assert (value >= value.max(axis=1, keepdims=True) - 1e-6).mean() >= 0.88

    def test_iteration_caps_are_reported(self):
        # certifying a row takes a sweep that holds both blocks, which the
        # first sweep never does: every run stops at the cap, uncertified
        n = mac_from_game(chsh_game())
        with mock.patch.object(capacity, "_MAX_SWEEPS", 1):
            region = inner_bound(n, restarts=4, seed=1, mu_points=9)
        assert not any(w.converged for w in region.witnesses)
        assert all(w.gap == math.inf for w in region.witnesses)

    def test_rejects_empty_weight_grid(self):
        n = mac_from_game(chsh_game())
        with pytest.raises(ValueError, match="mu_points"):
            inner_bound(n, restarts=2, mu_points=0)


class TestBatchedRates:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6))
    def test_rates_match_pentagon_row_by_row(self, seed, rows):
        # pentagon is _rates on one row, so a row of a batch must agree with
        # the row alone; inputs at zero mass in every row, and a last row of
        # point masses, which on a winning pair reaches one output and leaves
        # the rest at 0
        rng = np.random.default_rng(seed)
        n = mac_from_game(random_game(rng, max_size=3))
        pa = rng.dirichlet(np.ones(n.na), size=rows)
        pb = rng.dirichlet(np.ones(n.nb), size=rows)
        for p in (pa, pb):
            p[rng.random(p.shape) < 0.4] = 0.0
            p[np.arange(rows), rng.integers(0, p.shape[1], rows)] += 0.5
            p[-1] = np.eye(p.shape[1])[rng.integers(0, p.shape[1])]
            p /= p.sum(axis=1, keepdims=True)
        rates = _rates(_Workspace(n), pa, pb)
        assert rates.shape == (rows, 3) and (rates >= 0.0).all()
        for r in range(rows):
            pent = pentagon(n, ProductInput(pa[r], pb[r]))
            expect = [pent.r1_max, pent.r2_max, pent.sum_max]
            assert np.abs(rates[r] - expect).max() <= 1e-12


_COORD = st.floats(0.0, 4.0)
_JITTER = st.floats(-1e-10, 1e-10)


@st.composite
def corner_sets(draw):
    """Rate pairs like a region's corners: near-duplicates within 1e-10, a
    collinear run, and points on both axes."""
    pts = draw(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=10))
    pts += [(x, 0.0) for x in draw(st.lists(_COORD, max_size=3))]
    pts += [(0.0, y) for y in draw(st.lists(_COORD, max_size=3))]
    (ax, ay), (bx, by) = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
    run = draw(st.lists(st.floats(0.0, 1.0), max_size=5))
    pts += [(ax + t * (bx - ax), ay + t * (by - ay)) for t in run]
    for x, y in draw(st.lists(st.sampled_from(pts), max_size=5)):
        dx, dy = draw(_JITTER), draw(_JITTER)
        pts.append((max(x + dx, 0.0), max(y + dy, 0.0)))
    return pts


class TestBoundaryChain:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(points=corner_sets())
    @example(points=[(0.0, 0.0)] * 3)
    # a vertex 1e-8 outside the chord of two short segments: an absolute
    # turn test dropped it
    @example(
        points=[(1.0, 0.0), (0.99999001, 0.00001001), (0.99998, 0.00002), (0.0, 1.0)]
    )
    # each axis end shares a 9-decimal class with another point: merging a
    # whole class onto its smallest point put the R1 end above the R2 end
    @example(points=[(1.0, 1e-12), (0.0, 0.0), (1.0000000000006106, 1e-12)])
    def test_chain_is_the_upper_right_hull(self, points):
        chain = capacity._boundary_chain(points)
        # from the R1 axis to the R2 axis, up to the 9-decimal merge
        assert chain[0][1] < 1e-9 and chain[-1][0] < 1e-9
        for (r1a, r2a), (r1b, r2b) in zip(chain, chain[1:]):
            assert r1b <= r1a and r2b >= r2a
        ends = [(max(x for x, _ in points), 0.0), (0.0, max(y for _, y in points))]
        for v in chain:
            assert v in points or v in ends
            assert any(v[0] <= x and v[1] <= y for x, y in points)
        # same support function as the points in every nonnegative direction
        theta = np.linspace(0.0, np.pi / 2.0, 91)
        d = np.stack([np.cos(theta), np.sin(theta)])
        support = (np.array(chain) @ d).max(axis=0)
        assert np.abs(support - (np.array(points) @ d).max(axis=0)).max() <= 1e-9
        assert len({(round(x, 9), round(y, 9)) for x, y in chain}) == len(chain)


class TestStarts:
    @staticmethod
    def starts(restarts, mu_points):
        """The ``[weight, restart]`` starts that reach the optimizer."""
        seen = []

        def spy(pa, pb, ws, coeffs):
            seen.append((pa.copy(), pb.copy()))
            return pa, pb, np.zeros(len(pa))  # skip the optimizer

        n = mac_from_game(magic_square_game())
        with mock.patch.object(capacity, "_alternate", spy):
            inner_bound(n, restarts=restarts, seed=5, mu_points=mu_points)
        ((pa, pb),) = seen
        return pa.reshape(mu_points, restarts, -1), pb.reshape(mu_points, restarts, -1)

    def test_fewer_restarts_are_a_prefix(self):
        for few, many in zip(self.starts(8, 5), self.starts(16, 5)):
            assert np.array_equal(few, many[:, :8])

    def test_weight_index_keeps_its_starts(self):
        for coarse, fine in zip(self.starts(4, 5), self.starts(4, 9)):
            assert np.array_equal(coarse, fine[:5])
            assert not np.array_equal(fine[0], fine[1])

    def test_starts_are_positive_distributions(self):
        for p in self.starts(16, 9):
            assert (p > 0.0).all()
            assert np.abs(p.sum(axis=-1) - 1.0).max() <= 1e-12


class TestInnerBound:
    def test_noiseless_binary_channel_contains_one_one(self):
        g = all_win_game(2, 2, 1, 1)
        region = inner_bound(mac_from_game(g), restarts=4, seed=0, mu_points=5)
        assert any(
            r1 == pytest.approx(1.0, abs=1e-6) and r2 == pytest.approx(1.0, abs=1e-6)
            for r1, r2 in region.vertices
        )

    def test_all_lose_collapses_to_origin(self):
        region = inner_bound(mac_from_game(all_lose_game()), restarts=2, seed=0,
                             mu_points=5)
        assert region.vertices == ((0.0, 0.0),)

    def test_every_witness_is_achievable(self):
        n = mac_from_game(chsh_game())
        region = inner_bound(n, restarts=4, seed=7, mu_points=9)
        for w in region.witnesses:
            pent = pentagon(n, w.input)
            if w.corner == "r1-priority":
                again = (pent.r1_max, max(pent.sum_max - pent.r1_max, 0.0))
            else:
                again = (max(pent.sum_max - pent.r2_max, 0.0), pent.r2_max)
            assert w.r1 == pytest.approx(again[0], abs=1e-9)
            assert w.r2 == pytest.approx(again[1], abs=1e-9)

    def test_deterministic_for_fixed_seed_and_workers(self):
        n = mac_from_game(chsh_game())
        a = inner_bound(n, restarts=6, seed=3, mu_points=7)
        b = inner_bound(n, restarts=6, seed=3, mu_points=7)
        assert a.vertices == b.vertices
        assert [(w.r1, w.r2) for w in a.witnesses] == [
            (w.r1, w.r2) for w in b.witnesses
        ]

    def test_vertices_form_monotone_chain(self):
        region = inner_bound(mac_from_game(chsh_game()), restarts=4, seed=0,
                             mu_points=9)
        for (r1a, r2a), (r1b, r2b) in zip(region.vertices, region.vertices[1:]):
            assert r1b <= r1a + 1e-12
            assert r2b >= r2a - 1e-12

    def test_hull_vertices_trace_back_to_witnesses(self):
        # every hull vertex is achievable: the origin, or dominated
        # componentwise by a recorded corner (silencing a sender reaches
        # its axis projections), with no rounding slack
        region = inner_bound(mac_from_game(chsh_game()), restarts=4, seed=1,
                             mu_points=9)
        for r1, r2 in region.vertices:
            assert (r1, r2) == (0.0, 0.0) or any(
                r1 <= w.r1 and r2 <= w.r2 for w in region.witnesses
            )


class TestBoundOrdering:
    def test_upper_bound_dominates_lower_bound_on_random_games(self, rng):
        checked = 0
        while checked < 12:
            g = random_game(rng, max_size=3, win_density=0.75)
            omega = omega_uniform_bruteforce(g).value
            if omega == 1 or omega == 0:
                continue
            n = mac_from_game(g)
            lower, _ = sum_capacity_lower_bound(n, restarts=6, seed=0)
            upper = sum_rate_upper_bound(g, omega).bound
            assert upper >= lower - 1e-9
            checked += 1


class TestSumCapacityLowerBound:
    def test_xor_mac_reaches_one_bit(self):
        # oracle: I(A,B;Z) = H(Z) for this deterministic channel; a dense grid
        # over product inputs peaks at 1 bit with a uniform sender
        n = xor_mac()
        best_grid = 0.0
        for p in np.linspace(0, 1, 101):
            for q in np.linspace(0, 1, 101):
                pz0 = p * q + (1 - p) * (1 - q)
                h = 0.0
                for t in (pz0, 1 - pz0):
                    if t > 0:
                        h -= t * math.log2(t)
                best_grid = max(best_grid, h)
        assert best_grid == pytest.approx(1.0, abs=1e-12)
        val, q = sum_capacity_lower_bound(n, restarts=8, seed=0)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_noiseless_nine_output_channel(self):
        g = all_win_game(3, 3, 1, 1)
        val, q = sum_capacity_lower_bound(mac_from_game(g), restarts=4, seed=0)
        assert val == pytest.approx(LOG9, abs=1e-6)

    def test_returned_input_achieves_value(self):
        n = mac_from_game(chsh_game())
        val, q = sum_capacity_lower_bound(n, restarts=8, seed=0)
        assert pentagon(n, q).sum_max == val


class TestLsgRates:
    def test_zero_defects_give_logs_exactly(self):
        rates = lsg_rates(8, 8, 0.0, 0.0)
        assert rates.r1 == 3.0
        assert rates.r2 == 3.0
        rates = lsg_rates(5, 12, 0.0, 0.0)
        assert rates.r1 == math.log2(5)
        assert rates.r2 == math.log2(12)

    def test_plug_in_value(self):
        rates = lsg_rates(2, 2, 0.1, 0.0)
        expected = 0.9 - 0.05 * math.log2(3) - binary_entropy(0.1)
        assert rates.r1 == pytest.approx(expected, abs=1e-12)
        assert rates.r2 == pytest.approx(expected, abs=1e-12)

    @staticmethod
    def assert_decreasing_to_zero(values):
        # strictly decreasing while positive, then held at exactly 0
        positive = [v for v in values if v > 0.0]
        assert all(a > b for a, b in zip(positive, positive[1:]))
        assert values == positive + [0.0] * (len(values) - len(positive))

    def test_monotone_in_losing_probability(self):
        values = [lsg_rates(8, 8, pl, 0.0).r1 for pl in np.arange(0.0, 0.41, 0.01)]
        self.assert_decreasing_to_zero(values)

    def test_monotone_in_defect(self):
        values = [lsg_rates(8, 8, 0.0, fd).r1 for fd in np.arange(0.0, 0.51, 0.01)]
        self.assert_decreasing_to_zero(values)

    def test_rates_are_clamped_at_zero(self):
        # the formula gives -0.994 bits here; zero rate is always achievable
        rates = lsg_rates(8, 8, 0.5, 0.0)
        assert (rates.r1, rates.r2) == (0.0, 0.0)
        with pytest.raises(ValueError):
            LsgRates(8, 8, 0.5, 0.0, -0.1, 0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lsg_rates(1, 2, 0.0, 0.0)
        with pytest.raises(ValueError):
            lsg_rates(2, 2, 1.5, 0.0)
        with pytest.raises(ValueError):
            lsg_rates(2, 2, 0.0, -0.2)


class TestDataExports:
    def test_upper_bound_curve_file(self, tmp_path):
        g = magic_square_game()
        curve = upper_bound_curve(g, 8.0 / 9.0, points=50)
        path = tmp_path / "ub.dat"
        write_upper_bound_curve(path, curve)
        lines = path.read_text().splitlines()
        assert lines[0] == "d u"
        assert len(lines) == 51
        first = lines[1].split()
        assert first[0] == "0.000000"
        assert all(len(ln.split()) == 2 for ln in lines[1:])

    def test_region_dat_file(self, tmp_path):
        region = inner_bound(mac_from_game(all_lose_game()), restarts=2, seed=0,
                             mu_points=3)
        path = tmp_path / "cap_region.dat"
        write_region_dat(path, region)
        assert path.read_text() == "r1 r2\n0.000000 0.000000\n"
