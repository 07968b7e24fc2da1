"""The benchmark workloads and the answer check behind every timed operation.

Each workload builds its inputs from the seed in :meth:`setup` and then runs
identical passes.  A pass is a list of operations; each operation is timed
on its own and then checked against its reference outside the timed region.
An operation that raises or fails its check counts as failed.

All calls go through module attributes looked up at call time
(``gm.pentagon``, ``gm.cli.main``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import time
from fractions import Fraction

import numpy as np

import gamemac as gm
import gamemac.cli  # noqa: F401  (makes gm.cli available to the operations)
from tracer import NullTracer

MAGIC_OMEGA = Fraction(8, 9)
CHSH_OMEGA = Fraction(3, 4)
PARITY_OMEGA = Fraction(53, 54)
MAGIC_BOUND = 3.13694
PARITY_BOUND = 5.74793
BOUND_TOL = 1e-4
REGION_FLOOR = 2.83
REGION_BEST = 2.84195
SUMCAP_BEST = 5.66446
BEST_TOL = 5e-3
IDENTITY_TOL = 1e-10
NONSIGNAL_TOL = 1e-10
MAGIC_WIN_TOL = 1e-9
HIT_TOL = 1e-6


class AnswerError(Exception):
    """An operation returned an answer that differs from its reference."""


def expect(cond, message: str) -> None:
    if not cond:
        raise AnswerError(message)


@dataclasses.dataclass
class Op:
    kind: str
    seconds: float
    error: str | None


@dataclasses.dataclass
class PassResult:
    ops: list[Op]
    answers: dict

    @property
    def seconds(self) -> float:
        """Time spent inside the operations, checks excluded."""
        return sum(op.seconds for op in self.ops)


class _Pass:
    """Collects the operations of one pass."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.ops: list[Op] = []
        self.answers: dict = {}

    def run(self, kind: str, call, check) -> None:
        """Time ``call()``, then run ``check(result)`` untimed and untraced."""
        self.tracer.op += 1
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a raising operation is a failed operation
            self.ops.append(Op(kind, time.perf_counter() - t0, repr(exc)))
            return
        seconds = time.perf_counter() - t0
        try:
            with self.tracer.suspended():
                check(result)
        except Exception as exc:  # a wrong answer is a failed operation
            self.ops.append(Op(kind, seconds, repr(exc)))
            return
        self.ops.append(Op(kind, seconds, None))

    def note(self, key: str, value) -> None:
        """Record an answer value, compared between traced and untraced runs."""
        self.answers.setdefault(key, []).append(value)

    def result(self) -> PassResult:
        return PassResult(self.ops, self.answers)


def parity_system_game() -> gm.Game:
    """Linear-system game of the magic-square parity constraints (6 x 9)."""
    a = np.zeros((6, 9), dtype=int)
    for r in range(3):
        a[r, 3 * r : 3 * r + 3] = 1
    for c in range(3):
        a[3 + c, c::3] = 1
    return gm.linear_system_game(a, [0, 0, 0, 1, 1, 1])


def _log_d(g: gm.Game) -> float:
    return math.log2(g.nx1 * g.nx2)


# ---------------------------------------------------------------------------
# region-magic


class RegionMagic:
    """Inner bound of the magic-square channel on a reduced weight grid."""

    name = "region-magic"

    def __init__(self, restarts: int = 16, mu_points: int = 17):
        self.restarts = restarts
        self.mu_points = mu_points

    def setup(self, seed: int, tmp_dir: str) -> None:
        self.seed = seed
        game = gm.magic_square_game()
        self.mac = gm.mac_from_game(game)
        self.log_d = _log_d(game)
        self.bound = gm.sum_rate_upper_bound(game, MAGIC_OMEGA).bound
        # warm-up on a fixed seed: its optimizer work must not vary with the seed
        gm.inner_bound(self.mac, restarts=1, mu_points=3, seed=0, workers=1)

    def run_pass(self, tracer) -> PassResult:
        p = _Pass(tracer)

        def call():
            return gm.inner_bound(
                self.mac,
                restarts=self.restarts,
                mu_points=self.mu_points,
                seed=self.seed,
                workers=1,
            )

        def check(region):
            best = max(w.r1 + w.r2 for w in region.witnesses)
            p.note("best_sum_rate_bits", best)
            p.note("best_hit_frac", _restart_agreement(region, self.mu_points))
            p.note("mid_hit_frac", _mid_agreement(region, self.mu_points))
            expect(best >= REGION_FLOOR, f"best sum rate {best} < {REGION_FLOOR}")
            expect(abs(best - REGION_BEST) <= BEST_TOL, f"best sum rate {best}")
            expect(best <= self.bound <= self.log_d, "lower <= bound <= log d")

        p.run("inner_bound", call, check)
        return p.result()

    @staticmethod
    def headline(answers: dict) -> dict:
        return {
            "best_sum_rate_bits": answers.get("best_sum_rate_bits", [0.0])[0],
            "best_hit_frac": answers.get("best_hit_frac", [0.0])[0],
        }


def _weighted_values(region, mu_points: int) -> np.ndarray:
    """``[mu, restart]`` weighted objective at each restart's better corner."""
    mus = np.linspace(0.0, 1.0, mu_points)
    restarts = 1 + max(w.restart for w in region.witnesses)
    vals = np.full((mu_points, restarts), -np.inf)
    for w in region.witnesses:
        mu = mus[w.mu_index]
        v = mu * w.r1 + (1.0 - mu) * w.r2
        vals[w.mu_index, w.restart] = max(vals[w.mu_index, w.restart], v)
    return vals


def _restart_agreement(region, mu_points: int) -> float:
    """Share of (weight, restart) solves within HIT_TOL of their weight's best."""
    vals = _weighted_values(region, mu_points)
    return float((vals >= vals.max(axis=1, keepdims=True) - HIT_TOL).mean())


def _mid_agreement(region, mu_points: int) -> float:
    """Share of the middle weight's restarts within HIT_TOL of its best."""
    row = _weighted_values(region, mu_points)[mu_points // 2]
    return float((row >= row.max() - HIT_TOL).mean())


# ---------------------------------------------------------------------------
# sumcap-lsg


class SumcapLsg:
    """Sum-capacity lower bound of the parity-system channel (24 x 18 -> 54).

    One operation is the whole set of calls, one per seed, so the latency
    percentiles cover the same work as ``wall_s``.
    """

    name = "sumcap-lsg"

    def __init__(self, restarts: int = 64, calls: int = 6):
        self.restarts = restarts
        self.calls = calls

    def setup(self, seed: int, tmp_dir: str) -> None:
        self.seeds = [seed + i for i in range(self.calls)]
        game = parity_system_game()
        self.mac = gm.mac_from_game(game)
        self.log_d = _log_d(game)
        omega = gm.omega_uniform_bruteforce(game).value
        expect(omega == PARITY_OMEGA, f"parity-system omega {omega}")
        self.bound = gm.sum_rate_upper_bound(game, omega).bound
        expect(abs(self.bound - PARITY_BOUND) <= BOUND_TOL, f"bound {self.bound}")
        gm.sum_capacity_lower_bound(self.mac, restarts=2, seed=0)  # warm-up

    def run_pass(self, tracer) -> PassResult:
        p = _Pass(tracer)

        def call():
            return [
                gm.sum_capacity_lower_bound(self.mac, restarts=self.restarts, seed=s)
                for s in self.seeds
            ]

        def check(results):
            for value, q in results:
                p.note("sum_rate", value)
                expect(gm.pentagon(self.mac, q).sum_max == value, "value not achieved")
                expect(abs(value - SUMCAP_BEST) <= BEST_TOL, f"sum rate {value}")
                expect(value <= self.bound <= self.log_d, "lower <= bound <= log d")

        p.run("sumcap", call, check)
        return p.result()

    @staticmethod
    def headline(answers: dict) -> dict:
        values = answers.get("sum_rate", [0.0])
        best = max(values)
        return {
            "best_sum_rate_bits": best,
            "best_hit_frac": sum(v >= best - HIT_TOL for v in values) / len(values),
        }


# ---------------------------------------------------------------------------
# analysis-mix

# Operations per pass.  The counts keep any one layer from dominating the
# pass time: the analytic bound (about 50 ms a call) and the 2^14..2^16-table
# brute forces (25..150 ms) are few, the millisecond operations are many.
# They also put the median and the 95th percentile inside large groups of
# operations of similar cost, not on the edge between two groups.
MIX = {
    "omega-magic": 15,
    "omega-chsh": 15,
    "omega-lsg": 50,
    "omega-hastad": 6,
    "certificate": 80,
    "bound": 5,
    "mac-io": 24,
    "quantum-d4": 100,
    "quantum-d8": 50,
    "quantum-magic": 30,
    "cli-omega": 25,
    "cli-quantum-verify": 25,
    "cli-sumrate-bound": 2,
    "cli-mac-export": 25,
    "cli-lsg-rates": 25,
}
# (variables, clauses) of the formulas, cycled so every seed does the same work
HASTAD_SHAPES = ((14, 2), (14, 3), (15, 2), (15, 3), (16, 2), (16, 3))
LSG_RATE_PARAMS = ((4, 4), (8, 8), (8, 16), (16, 16))


def _random_system(rng):
    """Random binary system: 3..5 rows over 6..9 variables, 2..3 per row."""
    m, n = int(rng.integers(3, 6)), int(rng.integers(6, 10))
    a = np.zeros((m, n), dtype=int)
    for i in range(m):
        a[i, rng.choice(n, size=int(rng.integers(2, 4)), replace=False)] = 1
    return a, rng.integers(0, 2, size=m)


def _gf2_consistent(a, b) -> bool:
    """Whether ``a x = b`` has a solution over GF(2)."""
    aug = np.concatenate([np.asarray(a) % 2, np.asarray(b)[:, None] % 2], axis=1)
    aug = aug.astype(np.uint8)
    row = 0
    for col in range(aug.shape[1] - 1):
        piv = np.nonzero(aug[row:, col])[0]
        if len(piv) == 0:
            continue
        aug[[row, row + piv[0]]] = aug[[row + piv[0], row]]
        others = np.nonzero(aug[:, col])[0]
        aug[others[others != row]] ^= aug[row]
        row += 1
        if row == aug.shape[0]:
            break
    return not any(r[:-1].sum() == 0 and r[-1] for r in aug)


def _random_formula(rng, n_vars: int, n_clauses: int):
    clauses = []
    for _ in range(n_clauses):
        v = rng.choice(n_vars, size=3, replace=False) + 1
        clauses.append(tuple(int(x) for x in v * rng.choice([-1, 1], size=3)))
    return clauses


def _satisfiable(clauses, n_vars: int) -> bool:
    bits = (np.arange(2**n_vars)[:, None] >> np.arange(n_vars)[None, :]) & 1
    sat = np.ones(2**n_vars, dtype=bool)
    for c in clauses:
        sat &= np.any([bits[:, abs(l) - 1] == (l > 0) for l in c], axis=0)
    return bool(sat.any())


def _random_povms(rng, n_povms: int, n_outcomes: int, d: int):
    """Element lists of random POVMs, normalized to sum to the identity."""
    out = []
    for _ in range(n_povms):
        raw = rng.normal(size=(n_outcomes, d, d)) + 1j * rng.normal(
            size=(n_outcomes, d, d)
        )
        raw = raw @ raw.conj().transpose(0, 2, 1)
        vals, vecs = np.linalg.eigh(raw.sum(axis=0))
        inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
        out.append([inv_sqrt @ m @ inv_sqrt for m in raw])
    return out


@dataclasses.dataclass
class _RandomStrategy:
    d: int
    state: np.ndarray
    alice: list
    bob: list
    mac: gm.Mac


@dataclasses.dataclass
class _GameCase:
    name: str
    game: gm.Game
    omega: Fraction
    alice: tuple
    bob: tuple
    mac: gm.Mac
    cert_rate: float
    ref_omega: Fraction | None = None
    ref_bound: float | None = None
    perfect: bool | None = None  # whether omega must be 1, when known


class AnalysisMix:
    """A seeded stream of non-optimizer operations over every layer."""

    name = "analysis-mix"

    def __init__(self, mix: dict | None = None):
        self.mix = dict(MIX if mix is None else mix)

    def setup(self, seed: int, tmp_dir: str) -> None:
        self.tmp_dir = tmp_dir
        rng = np.random.default_rng(seed)
        self.uniform3 = np.full(3, 1.0 / 3.0)
        self.magic = self._case("magicsquare", gm.magic_square_game(), MAGIC_OMEGA)
        self.magic.ref_bound = MAGIC_BOUND
        self.chsh = self._case("chsh", gm.chsh_game(), CHSH_OMEGA)
        self.parity = self._case("parity", parity_system_game(), PARITY_OMEGA)
        self.parity.ref_bound = PARITY_BOUND
        self.magic_bound = gm.sum_rate_upper_bound(self.magic.game, MAGIC_OMEGA)

        n_lsg = max(self.mix["omega-lsg"], 1)
        self.lsgs = []
        while len(self.lsgs) < n_lsg:
            a, b = _random_system(rng)
            case = self._case(f"lsg{len(self.lsgs)}", gm.linear_system_game(a, b))
            case.perfect = _gf2_consistent(a, b)
            self.lsgs.append(case)
        lossy = [c for c in self.lsgs if c.omega < 1] or [self.magic]
        self.bound_cases = [self.magic, self.parity, *lossy]
        self.fixed_cases = [self.magic, self.chsh, self.parity]
        self.small_cases = [*self.fixed_cases, *self.lsgs]

        self.hastad = []
        for i in range(self.mix["omega-hastad"]):
            n_vars, n_clauses = HASTAD_SHAPES[i % len(HASTAD_SHAPES)]
            clauses = _random_formula(rng, n_vars, n_clauses)
            self.hastad.append((gm.hastad_game(clauses, n_vars), clauses, n_vars))

        small_game_mac = gm.mac_from_game(
            gm.Game(4, 4, 4, 4, rng.random((4, 4, 4, 4)) < 0.5)
        )
        self.strategies = {
            "quantum-d4": [
                self._strategy(rng, 4, 3, 4, self.magic.mac)
                for _ in range(self.mix["quantum-d4"])
            ],
            "quantum-d8": [
                self._strategy(rng, 8, 4, 4, small_game_mac)
                for _ in range(self.mix["quantum-d8"])
            ],
        }
        self.lsg_rates = [
            (m, n, pl, fd, gm.lsg_rates(m, n, pl, fd))
            for m, n in LSG_RATE_PARAMS
            for pl, fd in ((0.01, 0.001), (0.02, 0.005))
        ]

        self.schedule = [
            (kind, i) for kind, count in self.mix.items() for i in range(count)
        ]
        rng.shuffle(self.schedule)
        # warm-up: one operation of every kind
        warm = _Pass(NullTracer())
        for kind in self.mix:
            self._op(warm, kind, 0)

    def _case(self, name, game, ref_omega=None) -> _GameCase:
        res = gm.omega_uniform_bruteforce(game)
        mac = gm.mac_from_game(game)
        q = gm.strategy_input(gm.deterministic_strategy(game, res.alice, res.bob))
        return _GameCase(
            name, game, res.value, res.alice, res.bob, mac,
            gm.pentagon(mac, q).sum_max, ref_omega,
        )

    @staticmethod
    def _strategy(rng, d, n_questions, n_outcomes, mac) -> _RandomStrategy:
        vec = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        return _RandomStrategy(
            d,
            vec / np.linalg.norm(vec),
            _random_povms(rng, n_questions, n_outcomes, d),
            _random_povms(rng, n_questions, n_outcomes, d),
            mac,
        )

    def run_pass(self, tracer) -> PassResult:
        p = _Pass(tracer)
        for kind, i in self.schedule:
            self._op(p, kind, i)
        return p.result()

    @staticmethod
    def headline(answers: dict) -> dict:
        """The entangled sum rate log2 9, and the share of exact certificates."""
        hits = answers.get("certificate_hit", [False])
        return {
            "best_sum_rate_bits": max(answers.get("entangled_sum_rate", [0.0])),
            "best_hit_frac": sum(hits) / len(hits),
        }

    # -- operations ---------------------------------------------------------

    def _op(self, p: _Pass, kind: str, i: int) -> None:
        if kind == "omega-magic":
            self._omega(p, kind, self.magic)
        elif kind == "omega-chsh":
            self._omega(p, kind, self.chsh)
        elif kind == "omega-lsg":
            self._omega(p, kind, self.lsgs[i % len(self.lsgs)])
        elif kind == "omega-hastad":
            self._omega_hastad(p, *self.hastad[i % len(self.hastad)])
        elif kind == "certificate":
            self._certificate(p, self.small_cases[i % len(self.small_cases)])
        elif kind == "bound":
            self._bound(p, self.bound_cases[i % len(self.bound_cases)])
        elif kind == "mac-io":
            self._mac_io(p, self.fixed_cases[i % len(self.fixed_cases)])
        elif kind in ("quantum-d4", "quantum-d8"):
            strategies = self.strategies[kind]
            self._quantum(p, kind, strategies[i % len(strategies)])
        elif kind == "quantum-magic":
            self._quantum_magic(p)
        elif kind.startswith("cli-"):
            self._cli(p, kind[4:], i)
        else:
            raise ValueError(f"unknown operation kind {kind!r}")

    def _omega(self, p: _Pass, kind: str, case: _GameCase) -> None:
        def check(res):
            p.note("omega", str(res.value))
            if case.ref_omega is not None:
                expect(res.value == case.ref_omega, f"{case.name}: omega {res.value}")
            if case.perfect is not None:
                expect((res.value == 1) == case.perfect, f"{case.name}: omega {res.value}")
            _check_certificate(p, case.game, res)

        p.run(kind, lambda: gm.omega_uniform_bruteforce(case.game), check)

    def _omega_hastad(self, p: _Pass, game, clauses, n_vars) -> None:
        def check(res):
            p.note("omega", str(res.value))
            expect(
                (res.value == 1) == _satisfiable(clauses, n_vars),
                f"omega {res.value} disagrees with satisfiability of {clauses}",
            )
            _check_certificate(p, game, res)

        p.run("omega-hastad", lambda: gm.omega_uniform_bruteforce(game), check)

    def _certificate(self, p: _Pass, case: _GameCase) -> None:
        strategy = gm.deterministic_strategy(case.game, case.alice, case.bob)

        def call():
            mac = gm.mac_from_game(case.game)
            pent = gm.pentagon(mac, gm.strategy_input(strategy))
            return mac, pent, gm.sum_rate_identity_check(case.game, strategy)

        def check(out):
            mac, pent, (lhs, rhs) = out
            p.note("identity", (lhs, rhs))
            expect(np.array_equal(mac.p, case.mac.p), f"{case.name}: channel changed")
            expect(abs(lhs - rhs) <= IDENTITY_TOL, f"identity {lhs} != {rhs}")
            expect(pent.sum_max == lhs, "pentagon and identity disagree")
            expect(pent.sum_max <= math.log2(mac.nz) + 1e-12, "sum rate above log d")

        p.run("certificate", call, check)

    def _bound(self, p: _Pass, case: _GameCase) -> None:
        def check(result):
            bound, log_d = result.bound, _log_d(case.game)
            p.note("bound", bound)
            if case.ref_bound is not None:
                expect(abs(bound - case.ref_bound) <= BOUND_TOL, f"bound {bound}")
            expect(
                case.cert_rate <= bound + 1e-12 and bound <= log_d + 1e-12,
                f"sandwich violated: {case.cert_rate} <= {bound} <= {log_d}",
            )

        p.run("bound", lambda: gm.sum_rate_upper_bound(case.game, case.omega), check)

    def _mac_io(self, p: _Pass, case: _GameCase) -> None:
        path = os.path.join(self.tmp_dir, "roundtrip.mac")

        def call():
            gm.write_mac_file(path, case.mac)
            return gm.load_mac_file(path)

        def check(mac):
            expect(
                (mac.na, mac.nb, mac.nz) == (case.mac.na, case.mac.nb, case.mac.nz)
                and np.array_equal(mac.p, case.mac.p),
                f"{case.name}: mac round trip is not bit-exact",
            )

        p.run("mac-io", call, check)

    def _quantum(self, p: _Pass, kind: str, s: _RandomStrategy) -> None:
        nx, ny = len(s.alice), len(s.alice[0])

        def call():
            with p.tracer.span("quantum.construct"):
                qs = gm.QuantumStrategy(
                    gm.PureState(s.state, s.d, s.d),
                    [gm.Povm(els) for els in s.alice],
                    [gm.Povm(els) for els in s.bob],
                )
            corr = gm.correlation(qs)
            post = gm.identity_post(nx, ny)
            enc = gm.to_classical_channel(qs, post, post, s.mac.na, s.mac.nb)
            composed = gm.compose(s.mac, enc)
            uniform = np.full(nx, 1.0 / nx)
            pent = gm.pentagon(composed, gm.ProductInput(uniform, uniform))
            return corr, enc, composed, pent

        def check(out):
            corr, enc, composed, pent = out
            p.note(kind, pent.sum_max)
            _check_correlation(corr, s)
            ref_enc = np.zeros_like(enc.p)
            a1, b1, y1, y2 = np.indices(corr.shape)
            ref_enc[a1, b1, a1 * ny + y1, b1 * ny + y2] = corr
            expect(np.array_equal(enc.p, ref_enc), "encoding differs from correlation")
            ref = np.einsum("abz,cdab->cdz", s.mac.p, enc.p)
            expect(np.abs(composed.p - ref).max() <= 1e-12, "composition is wrong")
            expect(
                0.0 <= pent.sum_max <= math.log2(composed.nz) + 1e-12,
                f"sum rate {pent.sum_max} outside [0, log nz]",
            )

        p.run(kind, call, check)

    def _quantum_magic(self, p: _Pass) -> None:
        case = self.magic

        def call():
            qs = gm.magic_square_strategy()
            win = gm.strategy_winning_probability(
                case.game, qs, self.uniform3, self.uniform3
            )
            post1, post2 = gm.identity_post(3, 4), gm.identity_post(3, 4)
            enc = gm.to_classical_channel(qs, post1, post2, case.mac.na, case.mac.nb)
            composed = gm.compose(case.mac, enc)
            inputs = gm.ProductInput(self.uniform3, self.uniform3)
            return win, gm.pentagon(composed, inputs).sum_max

        def check(out):
            win, rate = out
            p.note("entangled_sum_rate", rate)
            expect(win >= 1.0 - MAGIC_WIN_TOL, f"magic strategy wins {win}")
            expect(abs(rate - math.log2(9)) <= 1e-9, f"entangled sum rate {rate}")

        p.run("quantum-magic", call, check)

    def _cli(self, p: _Pass, command: str, i: int) -> None:
        game = ("magicsquare", "chsh")[i % 2]
        case = {"magicsquare": self.magic, "chsh": self.chsh}[game]
        out_path = os.path.join(self.tmp_dir, "export.mac")
        if command == "omega":
            argv = ["omega", game, "--threads", "1"]
        elif command == "quantum-verify":
            argv = ["quantum-verify", "magicsquare"]
        elif command == "sumrate-bound":
            argv = ["sumrate-bound", "magicsquare", "--omega", "8/9", "--threads", "1"]
        elif command == "mac-export":
            argv = ["mac-export", game, "--out", out_path]
        else:
            m, n, pl, fd, _ = self.lsg_rates[i % len(self.lsg_rates)]
            argv = ["lsg-rates", "--m", str(m), "--n", str(n),
                    "--pl", str(pl), "--fd", str(fd)]

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = gm.cli.main(argv)
            return code, out.getvalue().splitlines(), err.getvalue()

        def check(res):
            code, lines, err = res
            p.note(f"cli-{command}", (code, lines))
            expect(code == 0, f"{' '.join(argv)} exited {code}: {err.strip()}")
            if command == "omega":
                v = case.ref_omega
                expect(
                    lines[0] == f"omega_U = {v.numerator}/{v.denominator} "
                    f"(= {float(v):.6f})",
                    f"omega line {lines[0]!r}",
                )
                alice = tuple(int(t) for t in lines[1].split(":")[1].split())
                bob = tuple(int(t) for t in lines[2].split(":")[1].split())
                _check_certificate(p, case.game, gm.BruteForceResult(v, alice, bob))
            elif command == "quantum-verify":
                values = [float(t) for ln in lines for t in ln.split()]
                expect(len(values) == 9, f"expected 9 values, got {len(values)}")
                expect(min(values) >= 1.0 - MAGIC_WIN_TOL, f"min {min(values)}")
            elif command == "sumrate-bound":
                r = self.magic_bound
                expect(
                    lines == [f"delta*={r.delta_star:.6f} eps*={r.eps_star:.6f} "
                              f"bound={r.bound:.6f}"],
                    f"sumrate-bound printed {lines!r}",
                )
                expect(abs(r.bound - MAGIC_BOUND) <= BOUND_TOL, f"bound {r.bound}")
            elif command == "mac-export":
                mac = case.mac
                expect(
                    lines == [f"wrote {mac.na * mac.nb} rows x {mac.nz} outputs "
                              f"to {out_path}"],
                    f"mac-export printed {lines!r}",
                )
                expect(
                    np.array_equal(gm.load_mac_file(out_path).p, mac.p),
                    "exported channel is not bit-exact",
                )
            else:
                r = self.lsg_rates[i % len(self.lsg_rates)][4]
                expect(
                    lines == [f"R1 = {r.r1:.6f}", f"R2 = {r.r2:.6f}"],
                    f"lsg-rates printed {lines!r}",
                )

        p.run(f"cli-{command}", call, check)


def _check_certificate(p: _Pass, game: gm.Game, res) -> None:
    """The reported tables win exactly ``omega * nx1 * nx2`` question pairs."""
    wins = int(
        game.win[
            np.arange(game.nx1)[:, None],
            np.arange(game.nx2)[None, :],
            np.asarray(res.alice)[:, None],
            np.asarray(res.bob)[None, :],
        ].sum()
    )
    hit = Fraction(wins, game.nx1 * game.nx2) == res.value
    p.note("certificate_hit", hit)
    expect(hit, f"certificate wins {wins} pairs, omega is {res.value}")


def _check_correlation(corr: np.ndarray, s: _RandomStrategy) -> None:
    """Agreement with an einsum Born-rule reference, and non-signaling."""
    psi = s.state.reshape(s.d, s.d)
    a = np.asarray(s.alice)
    b = np.asarray(s.bob)
    ref = np.einsum("ij,xpik,yqjl,kl->xypq", psi.conj(), a, b, psi).real
    expect(np.abs(corr - ref).max() <= 1e-12, "correlation differs from reference")
    alice_marg = corr.sum(axis=3)
    bob_marg = corr.sum(axis=2)
    expect(
        np.abs(alice_marg - alice_marg[:, :1]).max() <= NONSIGNAL_TOL
        and np.abs(bob_marg - bob_marg[:1]).max() <= NONSIGNAL_TOL,
        "correlation is signaling",
    )


WORKLOADS = {w.name: w for w in (RegionMagic, SumcapLsg, AnalysisMix)}
