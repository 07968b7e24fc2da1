"""Acceptance suite: every headline requirement at its stated tolerance.

Each test is one criterion; a conftest hook prints one pass/fail line per
criterion.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from gamemac import (
    chsh_game,
    compose,
    correlation,
    deterministic_strategy,
    hastad_game,
    identity_post,
    lsg_rates,
    mac_from_game,
    magic_square_game,
    magic_square_strategy,
    omega_uniform_bruteforce,
    pentagon,
    strategy_input,
    sum_capacity_lower_bound,
    sum_rate_identity_check,
    sum_rate_upper_bound,
    to_classical_channel,
)
from gamemac.channel import ProductInput
from gamemac.cli import main
from conftest import random_game, random_strategy

LOG3 = math.log2(3.0)
LOG9 = math.log2(9.0)


@pytest.fixture
def invoke(capsys):
    def run(*argv):
        start = time.perf_counter()
        code = main(list(argv))
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        return code, out, elapsed

    return run


def test_criterion_1_classical_magic_square_value(invoke):
    """Brute force returns exactly 8/9, in under a second."""
    code, out, elapsed = invoke("omega", "magicsquare")
    assert code == 0
    assert "omega_U = 8/9" in out
    assert omega_uniform_bruteforce(magic_square_game()).value == Fraction(8, 9)
    assert elapsed < 1.0


def test_criterion_2_perfect_quantum_strategy(invoke):
    """All nine question pairs won with probability >= 1 - 1e-9, under a second."""
    code, out, elapsed = invoke("quantum-verify", "magicsquare")
    assert code == 0
    table = np.array([ln.split() for ln in out.strip().splitlines()], dtype=float)
    assert table.shape == (3, 3)
    assert table.min() >= 1.0 - 1e-9
    assert elapsed < 1.0


def test_criterion_3_sum_rate_bound_reproduction(invoke, tmp_path):
    """delta* = 0.03299 +- 1e-3, eps* = 0.01040 +- 1e-4, bound = 3.13694 +- 1e-4."""
    curve_path = tmp_path / "ub.dat"
    code, out, elapsed = invoke(
        "sumrate-bound", "magicsquare", "--curve", str(curve_path)
    )
    assert code == 0
    fields = dict(tok.split("=") for tok in out.split())
    assert float(fields["delta*"]) == pytest.approx(0.03299, abs=1e-3)
    assert float(fields["eps*"]) == pytest.approx(0.01040, abs=1e-4)
    assert float(fields["bound"]) == pytest.approx(3.13694, abs=1e-4)
    assert elapsed < 5.0

    rows = curve_path.read_text().splitlines()
    assert rows[0] == "d u"
    curve = np.array([ln.split() for ln in rows[1:]], dtype=float)
    assert curve[0, 1] == pytest.approx(LOG9, abs=1e-5)  # 6-decimal file entries
    assert curve[-1, 1] == pytest.approx(LOG9, abs=1e-5)
    diffs = np.diff(curve[:, 1])
    signs = np.sign(diffs[np.abs(diffs) > 1e-12])
    assert np.count_nonzero(np.diff(signs) != 0) == 1  # unimodal dip


def test_criterion_4_inner_bound_sum_rate(invoke, tmp_path):
    """Region trace with 64 restarts reaches total rate >= 2.83 in under 5 min."""
    out_path = tmp_path / "cap_region.dat"
    code, out, elapsed = invoke(
        "region",
        "magicsquare",
        "--restarts",
        "64",
        "--seed",
        "0",
        "--out",
        str(out_path),
    )
    assert code == 0
    match = re.search(r"best sum rate = ([0-9.]+)", out)
    assert match is not None
    assert float(match.group(1)) >= 2.83
    assert elapsed < 300.0
    rows = out_path.read_text().splitlines()
    assert rows[0] == "r1 r2"
    assert len(rows) > 2


def test_criterion_5_sum_rate_identity_fuzz():
    """Both sum-rate code paths agree within 1e-10 on 1000 random instances."""
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(1000):
        g = random_game(rng, max_size=3)
        s = random_strategy(rng, g)
        lhs, rhs = sum_rate_identity_check(g, s)
        worst = max(worst, abs(lhs - rhs))
        assert abs(lhs - rhs) < 1e-10
    assert worst < 1e-10


def test_criterion_6_non_signaling_and_normalization():
    """Magic-square correlation is non-signaling and normalized to 1e-10."""
    corr = correlation(magic_square_strategy())
    slice_sums = corr.sum(axis=(2, 3))
    assert np.abs(slice_sums - 1.0).max() <= 1e-10
    alice_marginal = corr.sum(axis=3)
    assert (alice_marginal.max(axis=1) - alice_marginal.min(axis=1)).max() <= 1e-10
    bob_marginal = corr.sum(axis=2)
    assert (bob_marginal.max(axis=0) - bob_marginal.min(axis=0)).max() <= 1e-10


def test_criterion_7_chsh_value_and_noiseless_composition():
    """CHSH solves to exactly 3/4; the entangled encoding makes the
    magic-square channel a noiseless question channel achieving
    (log2 3, log2 3)."""
    assert omega_uniform_bruteforce(chsh_game()).value == Fraction(3, 4)

    n = mac_from_game(magic_square_game())
    enc = to_classical_channel(
        magic_square_strategy(), identity_post(3, 4), identity_post(3, 4), 12, 12
    )
    total = compose(n, enc)
    assert total.p.max(axis=2).min() >= 1.0 - 1e-9  # every row a point mass
    uniform = ProductInput(np.full(3, 1 / 3), np.full(3, 1 / 3))
    pent = pentagon(total, uniform)
    assert pent.r1_max >= LOG3 - 1e-9
    assert pent.r2_max >= LOG3 - 1e-9
    assert pent.sum_max >= 2 * LOG3 - 1e-9


def test_criterion_8_lsg_rates_exactness_and_monotonicity():
    """Zero-defect rates equal the logs exactly; 0.01-step sweeps of either
    defect parameter over [0, 0.5] never increase the rates."""
    for m, n in ((8, 8), (2, 2), (4, 16)):
        exact = lsg_rates(m, n, 0.0, 0.0)
        assert exact.r1 == math.log2(m)
        assert exact.r2 == math.log2(n)
    sweep = np.arange(0.0, 0.51, 0.01)
    for m, n in ((8, 8), (2, 3)):
        r1_by_pl = [lsg_rates(m, n, x, 0.0).r1 for x in sweep]
        r2_by_pl = [lsg_rates(m, n, x, 0.0).r2 for x in sweep]
        r1_by_fd = [lsg_rates(m, n, 0.0, x).r1 for x in sweep]
        r2_by_fd = [lsg_rates(m, n, 0.0, x).r2 for x in sweep]
        for series in (r1_by_pl, r2_by_pl, r1_by_fd, r2_by_fd):
            assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))


def test_criterion_9_ordering_sanity():
    """Numerical lower bound < analytic upper bound < unconstrained maximum."""
    g = magic_square_game()
    n = mac_from_game(g)
    lower, _ = sum_capacity_lower_bound(n, restarts=64, seed=0)
    upper = sum_rate_upper_bound(g, Fraction(8, 9)).bound
    assert 2.8 < lower < upper < LOG9
    assert lower == pytest.approx(2.84195, abs=5e-3)
    assert upper == pytest.approx(3.13694, abs=1e-4)
    assert LOG9 == pytest.approx(3.16993, abs=1e-5)


def test_criterion_10_capacity_decides_3sat():
    """The 3-SAT game of a satisfiable formula reaches log d; an unsatisfiable
    one has omega < 1 and an analytic bound below log d."""
    sat = hastad_game([(1, 2, 3), (-1, 2, 4), (1, -3, -4)])
    result = omega_uniform_bruteforce(sat)
    assert (sat.nx1, sat.nx2, result.value) == (3, 4, 1)
    n = mac_from_game(sat)
    witness = strategy_input(deterministic_strategy(sat, result.alice, result.bob))
    assert pentagon(n, witness).sum_max == pytest.approx(math.log2(12), abs=1e-12)
    lower, _ = sum_capacity_lower_bound(n, 64, 0)
    assert lower == pytest.approx(math.log2(12), abs=1e-9)

    all_signs = itertools.product((1, -1), repeat=3)
    unsat = hastad_game([(s1, 2 * s2, 3 * s3) for s1, s2, s3 in all_signs])
    omega = omega_uniform_bruteforce(unsat).value
    assert (unsat.nx1, unsat.nx2, omega) == (8, 3, Fraction(23, 24))
    upper = sum_rate_upper_bound(unsat, omega).bound
    lower, _ = sum_capacity_lower_bound(mac_from_game(unsat), 64, 0)
    assert lower < upper < math.log2(24)
    assert upper == pytest.approx(4.570620, abs=1e-6)
    assert lower == pytest.approx(4.437785, abs=1e-6)
