import numpy as np
import pytest

from gamemac import Game, Mac, ProductStrategy, Povm, PureState, QuantumStrategy
from gamemac.channel import _Workspace


def random_game(rng, max_size=3, win_density=0.5) -> Game:
    """A random small promise-free game."""
    nx1, nx2, ny1, ny2 = rng.integers(1, max_size + 1, size=4)
    win = rng.random((nx1, nx2, ny1, ny2)) < win_density
    return Game(int(nx1), int(nx2), int(ny1), int(ny2), win)


def random_strategy(rng, g: Game) -> ProductStrategy:
    """A random product strategy with random question marginals."""
    p1 = rng.dirichlet(np.ones(g.ny1), size=g.nx1).T
    p2 = rng.dirichlet(np.ones(g.ny2), size=g.nx2).T
    pi1 = rng.dirichlet(np.ones(g.nx1))
    pi2 = rng.dirichlet(np.ones(g.nx2))
    return ProductStrategy(p1, p2, pi1, pi2)


def sparse_distributions(rng, rows, k) -> np.ndarray:
    """Random distributions over ``k`` outcomes, many with zero-mass entries.

    About a third of the rows are point masses.
    """
    p = rng.dirichlet(np.ones(k), size=rows)
    p[rng.random(p.shape) < 0.4] = 0.0
    p[np.arange(rows), rng.integers(0, k, rows)] += 0.5
    point = rng.random(rows) < 0.3
    p[point] = np.eye(k)[rng.integers(0, k, point.sum())]
    return p / p.sum(axis=1, keepdims=True)


def shifted_workspace(n: Mac) -> _Workspace:
    """A workspace whose channel-row entropies are all 0.5 bit too high.

    A constant shift of ``H(Z|AB)`` moves no optimum, but lowers all three
    rates by 0.5, so ``sum > r1 + r2`` wherever both senders send a full bit.
    """
    ws = _Workspace(n)
    ws.rowent = tuple(r + 0.5 for r in ws.rowent)
    return ws


def random_quantum_strategy(
    rng, nx1, nx2, ny1, ny2, d=3, d_b=None
) -> QuantumStrategy:
    """Random state and POVMs; elements conjugated to sum to the identity.

    Alice's local dimension is ``d``; Bob's is ``d_b``, by default also ``d``.
    """
    d_b = d if d_b is None else d_b
    vec = rng.normal(size=d * d_b) + 1j * rng.normal(size=d * d_b)
    state = PureState(vec / np.linalg.norm(vec), d, d_b)

    def random_povm(n, d):
        raw = []
        for _ in range(n):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            raw.append(m @ m.conj().T)
        total = sum(raw)
        vals, vecs = np.linalg.eigh(total)
        inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
        return Povm([inv_sqrt @ m @ inv_sqrt for m in raw])

    return QuantumStrategy(
        state,
        [random_povm(ny1, d) for _ in range(nx1)],
        [random_povm(ny2, d_b) for _ in range(nx2)],
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Print one explicit pass/fail line per acceptance criterion."""
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.module.__name__ == "test_acceptance":
        status = "PASS" if report.passed else "FAIL"
        reporter = item.config.pluginmanager.get_plugin("terminalreporter")
        reporter.write_line(f"{item.name}: {status}")
