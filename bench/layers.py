"""Which gamemac functions the traced run wraps, and the per-layer metrics.

Counts and times are per pass: totals over the traced passes divided by
their number, so runs with different pass counts stay comparable.
"""

from __future__ import annotations

import os
import statistics

import gamemac
from gamemac import capacity, channel, cli, games, quantum
from tracer import Tracer, summarize

MODULES = (gamemac, games, channel, quantum, capacity, cli)
CLI_COMMANDS = ("omega", "quantum-verify", "sumrate-bound", "mac-export", "lsg-rates")


def _bob_tables(tr, args, result):
    g = args["g"]
    tr.count("games.omega.bob_tables", g.ny2**g.nx2)


def _mac_bytes(tr, args, result):
    tr.count("channel.mac_io.bytes", os.path.getsize(args["path"]))


def _solves(tr, args, result):
    tr.count("capacity.inner_bound.solves", args["mu_points"] * args["restarts"])


def _restarts(tr, args, result):
    tr.count("capacity.sumcap.restarts", args["restarts"])


def _exit_code(tr, args, result):
    if result != 0:
        tr.count("cli.nonzero_exits")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer that the workloads reach."""
    tracer.install(
        MODULES,
        [
            (games.omega_uniform_bruteforce, "games.omega", _bob_tables),
            (quantum.correlation, "quantum.correlation", None),
            (quantum.to_classical_channel, "quantum.encoding", None),
            (quantum.magic_square_strategy, "quantum.construct", None),
            (channel.mac_from_game, "channel.compile", None),
            (channel.pentagon, "channel.pentagon", None),
            (channel.sum_rate_identity_check, "channel.identity", None),
            (channel.write_mac_file, "channel.mac_io", _mac_bytes),
            (channel.load_mac_file, "channel.mac_io", _mac_bytes),
            (capacity.sum_rate_upper_bound, "capacity.upper_bound", None),
            (capacity.inner_bound, "capacity.inner_bound", _solves),
            (capacity.sum_capacity_lower_bound, "capacity.sumcap", _restarts),
            (capacity.lsg_rates, "capacity.lsg_rates", None),
            (cli.main, lambda args: f"cli.{args['argv'][0]}", _exit_code),
        ],
    )


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("games.omega.calls", "count", "lower"),
    ("games.omega.busy_s", "s", "lower"),
    ("games.omega.p50_ms", "ms", "lower"),
    ("games.omega.bob_tables", "count", "lower"),
    ("games.omega.tables_per_s", "1/s", "higher"),
    ("quantum.correlation.calls", "count", "lower"),
    ("quantum.correlation.busy_s", "s", "lower"),
    ("quantum.correlation.p50_ms", "ms", "lower"),
    ("quantum.encoding.busy_s", "s", "lower"),
    ("quantum.construct.busy_s", "s", "lower"),
    ("channel.compile.busy_s", "s", "lower"),
    ("channel.pentagon.calls", "count", "lower"),
    ("channel.pentagon.busy_s", "s", "lower"),
    ("channel.identity.busy_s", "s", "lower"),
    ("channel.mac_io.busy_s", "s", "lower"),
    ("channel.mac_io.bytes", "B", "lower"),
    ("capacity.upper_bound.calls", "count", "lower"),
    ("capacity.upper_bound.busy_s", "s", "lower"),
    ("capacity.upper_bound.p50_ms", "ms", "lower"),
    ("capacity.inner_bound.busy_s", "s", "lower"),
    ("capacity.inner_bound.self_s", "s", "lower"),
    ("capacity.inner_bound.solves", "count", "lower"),
    ("capacity.inner_bound.ms_per_solve", "ms", "lower"),
    ("capacity.inner_bound.mid_hit_frac", "ratio", "higher"),
    ("capacity.sumcap.busy_s", "s", "lower"),
    ("capacity.sumcap.self_s", "s", "lower"),
    ("capacity.sumcap.ms_per_restart", "ms", "lower"),
    *(
        (f"cli.{cmd}.{stat}", unit, "lower")
        for cmd in CLI_COMMANDS
        for stat, unit in (("calls", "count"), ("p50_ms", "ms"), ("self_s", "s"))
    ),
    ("cli.nonzero_exits", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def per_layer(tracer: Tracer, n_passes: int, traced_wall: float, untraced_wall: float,
              answers: dict):
    """Per-layer values keyed by metric name (per pass where a total).

    ``answers`` are those of a traced pass; ``mid_hit_frac`` is the share of
    the middle weight's restarts that reach that weight's best.
    """
    stats = summarize(tracer.spans)
    counts = tracer.counts

    def durations(name):
        return stats[name]["duration"] if name in stats else []

    def calls(name):
        return len(durations(name)) / n_passes

    def busy(name):
        return sum(durations(name)) / n_passes

    def self_s(name):
        return sum(stats[name]["self"]) / n_passes if name in stats else 0.0

    def p50_ms(name):
        d = durations(name)
        return 1e3 * statistics.median(d) if d else 0.0

    def per_unit_ms(seconds, units):
        return 1e3 * seconds / units if units else 0.0

    solves = counts["capacity.inner_bound.solves"] / n_passes
    restarts = counts["capacity.sumcap.restarts"] / n_passes
    tables = counts["games.omega.bob_tables"] / n_passes
    values = {
        "games.omega.calls": calls("games.omega"),
        "games.omega.busy_s": busy("games.omega"),
        "games.omega.p50_ms": p50_ms("games.omega"),
        "games.omega.bob_tables": tables,
        "games.omega.tables_per_s": (
            tables / busy("games.omega") if busy("games.omega") else 0.0
        ),
        "quantum.correlation.calls": calls("quantum.correlation"),
        "quantum.correlation.busy_s": busy("quantum.correlation"),
        "quantum.correlation.p50_ms": p50_ms("quantum.correlation"),
        "quantum.encoding.busy_s": busy("quantum.encoding"),
        "quantum.construct.busy_s": busy("quantum.construct"),
        "channel.compile.busy_s": busy("channel.compile"),
        "channel.pentagon.calls": calls("channel.pentagon"),
        "channel.pentagon.busy_s": busy("channel.pentagon"),
        "channel.identity.busy_s": busy("channel.identity"),
        "channel.mac_io.busy_s": busy("channel.mac_io"),
        "channel.mac_io.bytes": counts["channel.mac_io.bytes"] / n_passes,
        "capacity.upper_bound.calls": calls("capacity.upper_bound"),
        "capacity.upper_bound.busy_s": busy("capacity.upper_bound"),
        "capacity.upper_bound.p50_ms": p50_ms("capacity.upper_bound"),
        "capacity.inner_bound.busy_s": busy("capacity.inner_bound"),
        "capacity.inner_bound.self_s": self_s("capacity.inner_bound"),
        "capacity.inner_bound.solves": solves,
        "capacity.inner_bound.ms_per_solve": per_unit_ms(
            self_s("capacity.inner_bound"), solves
        ),
        "capacity.inner_bound.mid_hit_frac": answers.get("mid_hit_frac", [0.0])[0],
        "capacity.sumcap.busy_s": busy("capacity.sumcap"),
        "capacity.sumcap.self_s": self_s("capacity.sumcap"),
        "capacity.sumcap.ms_per_restart": per_unit_ms(
            self_s("capacity.sumcap"), restarts
        ),
        "cli.nonzero_exits": counts["cli.nonzero_exits"] / n_passes,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    for cmd in CLI_COMMANDS:
        values[f"cli.{cmd}.calls"] = calls(f"cli.{cmd}")
        values[f"cli.{cmd}.p50_ms"] = p50_ms(f"cli.{cmd}")
        values[f"cli.{cmd}.self_s"] = self_s(f"cli.{cmd}")
    return {name: values[name] for name, _, _ in PER_LAYER}
