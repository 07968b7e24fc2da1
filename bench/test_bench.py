"""Tests of the benchmark itself: span arithmetic, tracing and metric lists.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run._import_library()

import gamemac as gm  # noqa: E402
import layers  # noqa: E402
from tracer import NullTracer, Tracer, summarize  # noqa: E402
from workloads import MIX, WORKLOADS, AnalysisMix, RegionMagic, SumcapLsg  # noqa: E402


def test_self_time_subtracts_child_coverage():
    # root [0, 10] has children a [1, 4] and b [5, 7]; a has child c [2, 3]
    spans = [
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["c", 2.0, 3.0, 1, 1],
        ["b", 5.0, 7.0, 0, 1],
    ]
    stats = summarize(spans)
    assert stats["root"] == {"duration": [10.0], "self": [5.0]}
    assert stats["a"] == {"duration": [3.0], "self": [2.0]}
    assert stats["b"] == {"duration": [2.0], "self": [2.0]}
    assert stats["c"] == {"duration": [1.0], "self": [1.0]}


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 3.0, 6.0, 0, 1],
    ]
    assert summarize(spans)["root"]["self"] == [5.0]


def test_span_records_parent_and_op():
    tr = Tracer()
    tr.op = 7
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    (outer, inner) = tr.spans
    assert outer[0] == "outer" and outer[3] == -1 and outer[4] == 7
    assert inner[0] == "inner" and inner[3] == 0 and inner[4] == 7
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_install_attributes_calls_made_inside_the_library():
    game = gm.magic_square_game()
    strategy = gm.deterministic_strategy(game, (0, 0, 0), (0, 0, 0))
    original = gm.pentagon
    tr = Tracer()
    layers.install(tr)
    try:
        gm.sum_rate_identity_check(game, strategy)
        with tr.suspended():
            gm.pentagon(gm.mac_from_game(game), gm.strategy_input(strategy))
    finally:
        tr.uninstall()
    names = [(s[0], s[3]) for s in tr.spans]
    assert names == [
        ("channel.identity", -1),
        ("channel.compile", 0),
        ("channel.pentagon", 0),
    ]
    assert gm.pentagon is original
    assert gm.capacity.pentagon is original


def _pass_pair(workload, tmp_path):
    workload.setup(3, str(tmp_path))
    untraced = workload.run_pass(NullTracer())
    tr = Tracer()
    layers.install(tr)
    try:
        traced = workload.run_pass(tr)
    finally:
        tr.uninstall()
    return untraced, traced, tr


@pytest.mark.parametrize(
    "workload",
    [
        RegionMagic(restarts=4, mu_points=3),
        SumcapLsg(restarts=8, calls=2),
        AnalysisMix({kind: 2 for kind in MIX}),
    ],
    ids=lambda w: w.name,
)
def test_traced_and_untraced_answers_agree(workload, tmp_path):
    untraced, traced, tr = _pass_pair(workload, tmp_path)
    assert [op.error for op in untraced.ops + traced.ops] == [None] * (
        2 * len(untraced.ops)
    )
    assert untraced.answers == traced.answers
    assert workload.headline(untraced.answers) == workload.headline(traced.answers)
    values = layers.per_layer(tr, 1, traced.seconds, untraced.seconds, traced.answers)
    assert list(values) == [name for name, _, _ in layers.PER_LAYER]


def test_analysis_mix_reaches_every_layer(tmp_path):
    _, traced, tr = _pass_pair(AnalysisMix({kind: 1 for kind in MIX}), tmp_path)
    values = layers.per_layer(tr, 1, traced.seconds, traced.seconds, traced.answers)
    for name in (
        "games.omega.calls",
        "games.omega.bob_tables",
        "quantum.correlation.calls",
        "quantum.encoding.busy_s",
        "quantum.construct.busy_s",
        "channel.compile.busy_s",
        "channel.pentagon.calls",
        "channel.identity.busy_s",
        "channel.mac_io.bytes",
        "capacity.upper_bound.calls",
        *(f"cli.{cmd}.calls" for cmd in layers.CLI_COMMANDS),
    ):
        assert values[name] > 0, name
    assert values["cli.nonzero_exits"] == 0
    assert values["capacity.inner_bound.busy_s"] == 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == (
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        layers.PER_LAYER
    )


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analysis-mix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
