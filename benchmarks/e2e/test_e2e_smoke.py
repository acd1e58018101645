"""Smoke test of the end-to-end benchmark at a tiny scale.

Drives ``run.py`` over all four workloads at scale 300 with one window
of statements per client stream, untraced and traced, and checks what
the full-size runs rely on: every metric is printed with its unit,
nothing fails, a seed fixes the device counts, and different seeds
send different statements.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: End-to-end metrics that count device work: a seed fixes them exactly.
DETERMINISTIC = ("sim_ms_per_stmt", "flash_reads_per_stmt", "usb_bytes_per_stmt")
DIGEST = re.compile(r"^# (\S+) seed \d+: .* digest (\w+)$", re.M)


def _run(seed: int, trace: int) -> str:
    done = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--seed", str(seed), "--seconds", "0.1", "--scale", "300",
            "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    return done.stdout


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs() -> dict:
    return {
        "seed1": _run(1, 0),
        "seed1-again": _run(1, 0),
        "seed2": _run(2, 0),
        "traced": _run(1, 1),
    }


@pytest.mark.parametrize(
    "run, kind", [("seed1", "end_to_end"), ("traced", "per_layer")]
)
def test_every_metric_printed_with_unit(runs, run, kind):
    lines = set(runs[run].splitlines())
    metrics = _result(runs[run])["metrics"]
    for workload in WORKLOADS:
        for metric in SPEC[kind]:
            name, unit = metric["name"], metric["unit"]
            value = metrics[f"{workload}/{name}"]
            assert value["unit"] == unit
            assert f"{workload} {name} {value['value']!r} {unit}" in lines


@pytest.mark.parametrize("run", ["seed1", "seed2", "traced"])
def test_no_statement_fails(runs, run):
    result = _result(runs[run])
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert "leak check CLEAN" in runs[run]


def test_same_seed_same_device_counts(runs):
    first = _result(runs["seed1"])["metrics"]
    again = _result(runs["seed1-again"])["metrics"]
    for workload in WORKLOADS:
        for name in DETERMINISTIC:
            key = f"{workload}/{name}"
            assert first[key]["value"] == again[key]["value"], key


def test_seeds_send_different_statements(runs):
    one = dict(DIGEST.findall(runs["seed1"]))
    two = dict(DIGEST.findall(runs["seed2"]))
    assert sorted(one) == sorted(WORKLOADS)
    assert dict(DIGEST.findall(runs["seed1-again"])) == one
    for workload in WORKLOADS:
        assert one[workload] != two[workload], workload
