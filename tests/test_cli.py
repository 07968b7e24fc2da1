"""End-to-end tests of the command-line interface and its exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gamemac
from gamemac import cli, load_mac_file, mac_from_game, magic_square_game
from gamemac.cli import main


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    return invoke


@pytest.fixture
def workers_seen(monkeypatch):
    """The worker counts the CLI passes to the brute-force search, call by call."""
    seen = []
    real = cli.games.omega_uniform_bruteforce

    def spy(g, budget, workers):
        seen.append(workers)
        return real(g, budget=budget, workers=workers)

    monkeypatch.setattr(cli.games, "omega_uniform_bruteforce", spy)
    return seen


def write_game(tmp_path, text, name="game.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestOmega:
    def test_magicsquare_builtin(self, run):
        code, out, _ = run("omega", "magicsquare")
        assert code == 0
        assert "omega_U = 8/9" in out

    def test_chsh_builtin(self, run):
        code, out, _ = run("omega", "chsh")
        assert code == 0
        assert "omega_U = 3/4" in out

    def test_all_win_toy_file(self, run, tmp_path):
        lines = ["game 2 2 1 1"] + [f"{a} {b} 0 0" for a in range(2) for b in range(2)]
        path = write_game(tmp_path, "\n".join(lines) + "\n")
        code, out, _ = run("omega", path)
        assert code == 0
        assert "omega_U = 1/1" in out or "omega_U = 1 " in out

    def test_parse_error_exits_2(self, run, tmp_path):
        path = write_game(tmp_path, "junk\n")
        code, _, err = run("omega", path)
        assert code == 2
        assert err

    @pytest.mark.parametrize("command", ["omega", "sumrate-bound"])
    def test_nonpositive_budget_exits_2(self, command, capsys):
        # an input error, not an exceeded budget (exit 3)
        for value in ("0", "-1"):
            with pytest.raises(SystemExit) as exc:
                main([command, "chsh", "--budget", value])
            assert exc.value.code == 2
            assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["omega", "sumrate-bound"])
    def test_nonpositive_threads_exits_2(self, command, capsys):
        for value in ("0", "-2"):
            with pytest.raises(SystemExit) as exc:
                main([command, "chsh", "--threads", value])
            assert exc.value.code == 2
            assert "positive integer" in capsys.readouterr().err

    def test_threads_default_to_the_cpu_count(self, run, workers_seen):
        code, out, _ = run("omega", "chsh")
        assert code == 0 and "omega_U = 3/4" in out
        assert workers_seen == [os.cpu_count() or 1]


class TestQuantumVerify:
    def test_magicsquare_passes(self, run):
        code, out, _ = run("quantum-verify", "magicsquare")
        assert code == 0
        rows = [ln.split() for ln in out.strip().splitlines()]
        assert len(rows) == 3 and all(len(r) == 3 for r in rows)
        values = np.array(rows, dtype=float)
        assert (values >= 1 - 1e-9).all()
        assert "1.000000000" in out

    def test_swapped_bob_fails_with_exit_1(self, run):
        code, out, err = run("quantum-verify", "magicsquare", "--swap-bob", "0", "2")
        assert code == 1
        values = np.array(
            [ln.split() for ln in out.strip().splitlines()], dtype=float
        )
        assert values.min() < 1 - 1e-9

    @pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
    def test_swapped_columns_win_half_the_time(self, run, i, j):
        code, out, _ = run(
            "quantum-verify", "magicsquare", "--swap-bob", str(i), str(j)
        )
        assert code == 1
        cell = ["0.500000000" if c in (i, j) else "1.000000000" for c in range(3)]
        assert out == (" ".join(cell) + "\n") * 3


class TestSumrateBound:
    def test_magicsquare_headline(self, run):
        code, out, _ = run("sumrate-bound", "magicsquare")
        assert code == 0
        fields = dict(tok.split("=") for tok in out.split())
        assert float(fields["delta*"]) == pytest.approx(0.03299, abs=1e-3)
        assert float(fields["eps*"]) == pytest.approx(0.01040, abs=1e-4)
        assert float(fields["bound"]) == pytest.approx(3.13694, abs=1e-4)

    def test_supplied_omega_on_chsh(self, run):
        code, out, _ = run("sumrate-bound", "chsh", "--omega", "3/4")
        assert code == 0
        fields = dict(tok.split("=") for tok in out.split())
        assert float(fields["bound"]) < 2.0

    def test_omega_rounding_to_one_exits_4(self, run):
        omega = "99999999999999999/100000000000000000"
        code, _, _ = run("sumrate-bound", "magicsquare", "--omega", omega)
        assert code == 4

    def test_omega_near_one_gives_a_bound(self, run):
        omega = "99999999999999/100000000000000"
        code, out, _ = run("sumrate-bound", "magicsquare", "--omega", omega)
        assert code == 0
        assert out == "delta*=0.000000 eps*=0.000000 bound=3.169925\n"

    def test_bad_omega_exits_2(self, run):
        code, _, _ = run("sumrate-bound", "magicsquare", "--omega", "5/4")
        assert code == 2

    def test_curve_export(self, run, tmp_path):
        path = tmp_path / "ub.dat"
        code, _, _ = run(
            "sumrate-bound", "magicsquare", "--omega", "8/9", "--curve", str(path)
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "d u"
        assert len(lines) > 100


class TestRegion:
    def test_chsh_game_file_and_builtin_agree(self, run, tmp_path):
        code1, out1, _ = run("region", "chsh", "--restarts", "3", "--seed", "5")
        assert code1 == 0
        assert "best sum rate" in out1

    def test_all_lose_game_writes_origin(self, run, tmp_path):
        lines = ["game 2 2 2 2"]  # no winning tuples at all
        path = write_game(tmp_path, "\n".join(lines) + "\n")
        out_path = tmp_path / "cap.dat"
        code, out, _ = run(
            "region", path, "--restarts", "2", "--seed", "0", "--out", str(out_path)
        )
        assert code == 0
        assert out_path.read_text() == "r1 r2\n0.000000 0.000000\n"

    def test_fixed_seed_is_byte_deterministic(self, run, tmp_path):
        f1, f2 = tmp_path / "a.dat", tmp_path / "b.dat"
        code1, out1, _ = run(
            "region", "chsh", "--restarts", "3", "--seed", "9", "--out", str(f1)
        )
        code2, out2, _ = run(
            "region", "chsh", "--restarts", "3", "--seed", "9", "--out", str(f2)
        )
        assert code1 == code2 == 0
        assert out1 == out2
        assert f1.read_bytes() == f2.read_bytes()

    def test_best_input_follows_the_tie_rule(self, run, monkeypatch):
        # highest r1 + r2, then lowest weight index, then lowest restart; the
        # r1-priority corner comes before the r2-priority one, and both share
        # their row's input.  Rows 7, 8 and 15 (weight 2 restart 1, weight 2
        # restart 2, weight 5 restart 0) tie at the top sum 0.75.
        rows, restarts = 65 * 3, 3
        rng = np.random.default_rng(0)
        n = mac_from_game(gamemac.chsh_game())
        pa, pb = rng.dirichlet(np.ones(n.na), rows), rng.dirichlet(np.ones(n.nb), rows)
        rates = np.tile([0.25, 0.25, 0.375], (rows, 1))
        rates[[7, 8, 15]] = [0.5, 0.5, 0.75]
        monkeypatch.setattr(
            cli.capacity, "_solve", lambda *_: (pa, pb, rates, np.zeros(rows))
        )
        code, out, _ = run("region", "chsh", "--restarts", str(restarts))

        def line(name, p):
            return f"{name} = " + " ".join(f"{v:.6f}" for v in p)

        assert code == 0
        assert out.splitlines() == [
            "best sum rate = 0.750000", line("pA", pa[7]), line("pB", pb[7])
        ]
        assert len({line("pA", pa[r]) for r in (7, 8, 15)}) == 3

    def test_threads_flag_is_rejected(self):
        # the region is one batch in one process; --threads is for brute force
        with pytest.raises(SystemExit) as exc:
            main(["region", "chsh", "--threads", "2"])
        assert exc.value.code == 2

    def test_mac_file_input(self, run, tmp_path):
        mac = mac_from_game(magic_square_game())
        from gamemac import write_mac_file

        path = tmp_path / "ms.mac"
        write_mac_file(path, mac)
        code, out, _ = run("region", str(path), "--restarts", "2", "--seed", "0")
        assert code == 0

    @pytest.mark.parametrize("row", ["nan nan", "nan 1", "inf 0"])
    def test_non_finite_mac_file_exits_2(self, run, tmp_path, row):
        path = write_game(tmp_path, f"mac 1 1 2\n{row}\n", name="bad.mac")
        code, out, err = run("region", path, "--restarts", "1")
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_bad_header_exits_2(self, run, tmp_path):
        path = write_game(tmp_path, "nonsense 1 2\n")
        code, _, _ = run("region", path, "--restarts", "1")
        assert code == 2

    def test_zero_restarts_exits_2(self, run):
        code, _, err = run("region", "chsh", "--restarts", "0")
        assert code == 2
        assert "restarts must be >= 1" in err

    def test_negative_restarts_exits_2(self, run):
        code, out, err = run("region", "chsh", "--restarts", "-3")
        assert code == 2 and out == ""
        assert "restarts must be >= 1" in err

    def test_negative_seed_exits_2_naming_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["region", "chsh", "--restarts", "1", "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "nonnegative integer" in err


class TestMacExport:
    def test_magicsquare_dimensions_and_round_trip(self, run, tmp_path):
        path = tmp_path / "ms.mac"
        code, out, _ = run("mac-export", "magicsquare", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "mac 12 12 9"
        assert len(lines) == 1 + 144
        assert all(len(ln.split()) == 9 for ln in lines[1:])
        again = load_mac_file(path)
        assert (again.p == mac_from_game(magic_square_game()).p).all()

    def test_all_win_rows_are_point_masses(self, run, tmp_path):
        game_path = write_game(
            tmp_path,
            "game 2 2 1 1\n" + "\n".join(f"{a} {b} 0 0" for a in range(2) for b in range(2)) + "\n",
        )
        out_path = tmp_path / "toy.mac"
        code, _, _ = run("mac-export", game_path, "--out", out_path.as_posix())
        assert code == 0
        mac = load_mac_file(out_path)
        assert (mac.p.max(axis=2) == 1.0).all()


class TestLsgRates:
    def test_perfect_strategy_rates(self, run):
        code, out, _ = run(
            "lsg-rates", "--m", "8", "--n", "8", "--pl", "0", "--fd", "0"
        )
        assert code == 0
        assert "R1 = 3.000000" in out
        assert "R2 = 3.000000" in out

    def test_derived_value(self, run):
        import math

        from gamemac import binary_entropy

        code, out, _ = run(
            "lsg-rates", "--m", "2", "--n", "2", "--pl", "0.1", "--fd", "0"
        )
        assert code == 0
        expected = 0.9 - 0.05 * math.log2(3) - binary_entropy(0.1)
        r1 = float(out.splitlines()[0].split("=")[1])
        assert r1 == pytest.approx(expected, abs=1e-6)

    def test_domain_error_exits_2(self, run):
        code, _, err = run("lsg-rates", "--m", "2", "--n", "2", "--pl", "1.5",
                           "--fd", "0")
        assert code == 2


class TestExitCodes:
    """Every failure route through ``main``: exit code, stderr line and stdout."""

    MAGIC_BOUND = "delta*=0.032983 eps*=0.010405 bound=3.136942\n"

    @pytest.mark.parametrize(
        "argv, code, err, out",
        [
            ("omega {tmp}/none.txt", 2, "no such builtin or file: {tmp}/none.txt", ""),
            (
                "omega {tmp}/junk.game",
                2,
                "{tmp}/junk.game: expected header 'game nx1 nx2 ny1 ny2'",
                "",
            ),
            (
                "region {tmp}/junk.game --restarts 1",
                2,
                "{tmp}/junk.game: expected a 'game' or 'mac' header",
                "",
            ),
            (
                "region {tmp}/nan.mac --restarts 1",
                2,
                "{tmp}/nan.mac: channel table entries must be finite and "
                "nonnegative and sum to 1 along axis 2",
                "",
            ),
            ("omega {tmp}/latin1.game", 2, "{tmp}/latin1.game: not UTF-8 text", ""),
            (
                "region {tmp}/latin1.game --restarts 1",
                2,
                "{tmp}/latin1.game: not UTF-8 text",
                "",
            ),
            (
                "omega {tmp}/big.game --budget 10",
                3,
                "too large for brute force: 531441 tables exceed the budget of 10",
                "",
            ),
            (
                "omega magicsquare --budget 10",
                3,
                "too large for brute force: 64 tables exceed the budget of 10",
                "",
            ),
            (
                "sumrate-bound magicsquare --omega 1",
                4,
                "omega = 1: no nontrivial bound",
                "",
            ),
            (
                "sumrate-bound magicsquare --omega 1/1",
                4,
                "omega = 1: no nontrivial bound",
                "",
            ),
            (
                "sumrate-bound {tmp}/lose.game",
                4,
                "omega = 0: the game is never won, no bound",
                "",
            ),
            (
                "sumrate-bound magicsquare --omega 1/0",
                2,
                "cannot parse omega value '1/0'",
                "",
            ),
            (
                "sumrate-bound magicsquare --omega 5/4",
                2,
                "omega must lie in (0, 1], got 5/4",
                "",
            ),
            ("quantum-verify nosuchgame", 2, "unknown builtin strategy: nosuchgame", ""),
            (
                "quantum-verify magicsquare --swap-bob 0 7",
                2,
                "swap indices must be question indices",
                "",
            ),
            ("omega {tmp}", 5, "[Errno 21] Is a directory: '{tmp}'", ""),
            ("region {tmp} --restarts 1", 5, "[Errno 21] Is a directory: '{tmp}'", ""),
            (
                "region chsh --restarts 1 --out {tmp}/no/r.dat",
                5,
                "[Errno 2] No such file or directory: '{tmp}/no/r.dat'",
                "",
            ),
            (
                "sumrate-bound magicsquare --omega 8/9 --curve {tmp}/no/ub.dat",
                5,
                "[Errno 2] No such file or directory: '{tmp}/no/ub.dat'",
                MAGIC_BOUND,
            ),
            (
                "mac-export chsh --out {tmp}/no/x.mac",
                5,
                "[Errno 2] No such file or directory: '{tmp}/no/x.mac'",
                "",
            ),
        ],
    )
    def test_exit_code_and_message(self, run, tmp_path, argv, code, err, out):
        write_game(tmp_path, "junk\n", name="junk.game")
        write_game(tmp_path, "mac 1 1 2\nnan nan\n", name="nan.mac")
        write_game(tmp_path, "game 12 12 3 3\n", name="big.game")  # 3^12 tables
        write_game(tmp_path, "game 2 2 2 2\n", name="lose.game")  # no winning tuple
        (tmp_path / "latin1.game").write_bytes(b"\xff\xfe")
        got = run(*(tok.format(tmp=tmp_path) for tok in argv.split()))
        assert got == (code, out, f"error: {err.format(tmp=tmp_path)}\n")

    @pytest.mark.parametrize(
        "text",
        ["game 2 2 2 2\n0 0 0 0\n", "mac 1 1 2\n0.5 0.5\n"],
        ids=["game", "mac"],
    )
    def test_leading_blank_lines_are_skipped(self, run, tmp_path, text):
        # both file loaders skip blank lines, so the header sniff must too
        plain = write_game(tmp_path, text, name="plain")
        padded = write_game(tmp_path, "\n \n" + text, name="padded")
        code, out, err = run("region", padded, "--restarts", "2")
        assert (code, err) == (0, "")
        assert out == run("region", plain, "--restarts", "2")[1]


def child_env():
    """The parent's environment, importing the gamemac under test.

    The directory this suite imported gamemac from goes first on PYTHONPATH,
    so the child runs the same code whether or not gamemac is installed.
    """
    env = dict(os.environ)
    root = str(Path(gamemac.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gamemac", "omega", "chsh"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "omega_U = 3/4" in proc.stdout


class TestParserReuse:
    """``main`` reuses one parser; no call may see another call's arguments."""

    def test_swap_does_not_leak_into_the_next_call(self, run):
        code, _, _ = run("quantum-verify", "magicsquare", "--swap-bob", "0", "2")
        assert code == 1
        code, out, err = run("quantum-verify", "magicsquare")
        assert code == 0 and err == ""
        assert out == "1.000000000 1.000000000 1.000000000\n" * 3

    def test_threads_flag_reaches_the_brute_force(self, run, workers_seen):
        # a count other than the default, which the next call must get back
        threads = (os.cpu_count() or 1) + 1
        for argv in (("omega", "chsh"), ("sumrate-bound", "chsh")):
            code, _, _ = run(*argv, "--threads", str(threads))
            assert code == 0
        assert run("omega", "chsh")[0] == 0
        assert workers_seen == [threads, threads, os.cpu_count() or 1]
