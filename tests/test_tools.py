"""The scripts under ``tools/`` that compare two checkouts bit for bit and by
the benchmark still run against this checkout's ``src/`` and ``perfbench/``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location("tools_" + name, TOOLS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_digest_prints_the_seed_line():
    # the oracles' output at seed 0; a change that moves any oracle's bits
    # moves this digest, and must update it on purpose
    proc = subprocess.run([sys.executable, str(TOOLS / "verify_digest.py"),
                           "--first", "0", "--last", "0"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1] == "   0     0  bdbeaa837cfb379e"


def hand_pairs(base, change):
    def side(value):
        return {"result": {"metrics": {"m": {"value": value, "unit": "s"}}}}
    return [{"base": side(b), "change": side(c)} for b, c in zip(base, change)]


@pytest.mark.parametrize("better, wins", [("lower", 3), ("higher", 1)])
def test_bench_pairs_summary_by_hand(better, wins):
    # pair 2 is a tie and counts for neither side
    pairs = hand_pairs([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 2.0, 5.0, 4.0])
    m = load_tool("bench_pairs").summarize(pairs, {"m": better})["m"]
    assert m["pair_wins"] == wins
    assert m["base"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert m["change"]["median"] == 2.0
    assert m["median_change_pct"] == pytest.approx(-100.0 / 3.0)
    assert m["base_iqr_over_median"] == pytest.approx(2.0 / 3.0)


def test_seed_sweep_reads_the_benchmark_config():
    bench = load_tool("seed_sweep").load_benchmark()
    assert bench.SYNTH_DATA["K"] == bench.SYNTH_TRAIN["K"] == 4
    assert callable(bench.records_digest)
