"""Command-line front end.

Subcommands load or construct games and channels, run the analyses, and emit
reports (fixed 6 decimals) or machine-readable files (17 significant digits
for channels, 6 decimals for plot data).  Exit codes: 0 success,
1 verification failure, 2 input error, 3 enumeration budget exceeded,
4 degenerate bound, 5 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

import numpy as np

from . import capacity, channel, games, quantum

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_DEGENERATE = 4
EXIT_IO = 5

_PASS_TOLERANCE = 1e-9  # quantum-verify passes at winning probabilities >= 1 - this


def _int_at_least(text: str, low: int, kind: str) -> int:
    try:
        val = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if val < low:
        raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {val}")
    return val


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "positive")


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0, "nonnegative")


def _load_game(arg: str) -> games.Game:
    builder = games.BUILTIN_GAMES.get(arg)
    if builder is not None:
        return builder()
    if not os.path.exists(arg):
        raise ValueError(f"no such builtin or file: {arg}")
    return games.load_game_file(arg)


def _load_game_or_mac(arg: str) -> channel.Mac:
    if arg not in games.BUILTIN_GAMES and os.path.exists(arg):
        # the header is the first non-blank line, as both file loaders read it
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                kind = next(filter(None, map(str.split, fh)), [])[:1]
        except UnicodeDecodeError:
            raise ValueError(f"{arg}: not UTF-8 text") from None
        if kind == ["mac"]:
            return channel.load_mac_file(arg)
        if kind != ["game"]:
            raise ValueError(f"{arg}: expected a 'game' or 'mac' header")
    return channel.mac_from_game(_load_game(arg))


def _cmd_omega(args) -> int:
    g = _load_game(args.game)
    result = games.omega_uniform_bruteforce(g, budget=args.budget, workers=args.threads)
    val = result.value
    print(f"omega_U = {val.numerator}/{val.denominator} (= {float(val):.6f})")
    print("alice answers by question:", " ".join(str(y) for y in result.alice))
    print("bob answers by question:  ", " ".join(str(y) for y in result.bob))
    return EXIT_OK


def _cmd_quantum_verify(args) -> int:
    if args.builtin != "magicsquare":
        raise ValueError(f"unknown builtin strategy: {args.builtin}")
    qs = quantum.magic_square_strategy()
    if args.swap_bob is not None:
        i, j = args.swap_bob
        if not (0 <= i < qs.nx2 and 0 <= j < qs.nx2):
            raise ValueError("swap indices must be question indices")
        povms = list(qs.bob_povms)
        povms[i], povms[j] = povms[j], povms[i]
        qs = quantum.QuantumStrategy(qs.state, qs.alice_povms, povms)
    g = games.magic_square_game()
    corr = quantum.correlation(qs)
    table = np.einsum("ijkl,ijkl->ij", g.win, corr)
    for row in table:
        print(" ".join(f"{v:.9f}" for v in row))
    if table.min() < 1.0 - _PASS_TOLERANCE:
        print(
            f"verification FAILED: min winning probability {table.min():.9f}",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    return EXIT_OK


def _parse_omega(text: str) -> Fraction:
    try:
        val = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse omega value {text!r}") from exc
    if not 0 < val <= 1:
        raise ValueError(f"omega must lie in (0, 1], got {text}")
    return val


def _cmd_sumrate_bound(args) -> int:
    g = _load_game(args.game)
    if args.omega is not None:
        omega = _parse_omega(args.omega)
    else:
        omega = games.omega_uniform_bruteforce(
            g, budget=args.budget, workers=args.threads
        ).value
    if omega == 0:
        print("error: omega = 0: the game is never won, no bound", file=sys.stderr)
        return EXIT_DEGENERATE
    if float(omega) == 1.0:
        print("error: omega = 1: no nontrivial bound", file=sys.stderr)
        return EXIT_DEGENERATE
    result = capacity.sum_rate_upper_bound(g, omega)
    print(
        f"delta*={result.delta_star:.6f} eps*={result.eps_star:.6f} "
        f"bound={result.bound:.6f}"
    )
    if args.curve:
        curve = capacity.upper_bound_curve(g, omega)
        capacity.write_upper_bound_curve(args.curve, curve)
    return EXIT_OK


def _cmd_region(args) -> int:
    mac = _load_game_or_mac(args.input)
    region = capacity.inner_bound(mac, restarts=args.restarts, seed=args.seed)
    if args.out:
        capacity.write_region_dat(args.out, region)
    best = max(region.witnesses, key=lambda w: (w.r1 + w.r2, -w.mu_index, -w.restart))
    print(f"best sum rate = {best.r1 + best.r2:.6f}")
    print("pA =", " ".join(f"{v:.6f}" for v in best.input.p_a))
    print("pB =", " ".join(f"{v:.6f}" for v in best.input.p_b))
    return EXIT_OK


def _cmd_mac_export(args) -> int:
    g = _load_game(args.game)
    mac = channel.mac_from_game(g)
    channel.write_mac_file(args.out, mac)
    print(f"wrote {mac.na * mac.nb} rows x {mac.nz} outputs to {args.out}")
    return EXIT_OK


def _cmd_lsg_rates(args) -> int:
    rates = capacity.lsg_rates(args.m, args.n, args.pl, args.fd)
    print(f"R1 = {rates.r1:.6f}")
    print(f"R2 = {rates.r2:.6f}")
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once: parse_args keeps no state on the parser, and building it
    # costs more than most commands.
    threads = os.cpu_count() or 1
    parser = argparse.ArgumentParser(
        prog="gamemac",
        description="Analyze multiple access channels built from two-player games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("omega", help="exact classical value under uniform questions")
    p.add_argument("game", help="builtin name (magicsquare, chsh) or game file")
    p.add_argument(
        "--budget", type=_positive_int, default=games.DEFAULT_ENUMERATION_BUDGET
    )
    p.add_argument("--threads", type=_positive_int, default=threads)
    p.set_defaults(func=_cmd_omega)

    p = sub.add_parser("quantum-verify", help="check a built-in quantum strategy")
    p.add_argument("builtin", help="builtin strategy name (magicsquare)")
    p.add_argument(
        "--swap-bob",
        nargs=2,
        type=int,
        metavar=("I", "J"),
        help="negative control: swap Bob's measurements for questions I and J",
    )
    p.set_defaults(func=_cmd_quantum_verify)

    p = sub.add_parser("sumrate-bound", help="analytic sum-rate upper bound")
    p.add_argument("game", help="builtin name or game file")
    p.add_argument("--omega", help="classical value as a fraction, e.g. 8/9")
    p.add_argument("--curve", help="write the bound-vs-slack table to this file")
    p.add_argument(
        "--budget", type=_positive_int, default=games.DEFAULT_ENUMERATION_BUDGET
    )
    p.add_argument("--threads", type=_positive_int, default=threads)
    p.set_defaults(func=_cmd_sumrate_bound)

    p = sub.add_parser("region", help="inner bound on the capacity region")
    p.add_argument("input", help="builtin name, game file, or mac file")
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", help="write hull boundary rows to this file")
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("mac-export", help="compile a game and write its channel file")
    p.add_argument("game", help="builtin name or game file")
    p.add_argument("--out", required=True, help="output channel file")
    p.set_defaults(func=_cmd_mac_export)

    p = sub.add_parser("lsg-rates", help="achievable rates for linear-system games")
    p.add_argument("--m", type=int, required=True, help="number of equations")
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--pl", type=float, required=True, help="losing probability")
    p.add_argument("--fd", type=float, required=True, help="total-variation defect")
    p.set_defaults(func=_cmd_lsg_rates)
    return parser


def main(argv=None) -> int:
    """Run one command; the only place where an exception becomes an exit code."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, games.EnumerationBudgetError):
            return EXIT_BUDGET
        return EXIT_INPUT if isinstance(exc, ValueError) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
