"""The shared vetted-artifact path: its writer and the one baseline gate."""

import os

import pytest

from repro.bench import GATED_METRICS, compare_artifacts
from repro.bench import SCHEMA_VERSION as BENCH_SCHEMA_VERSION
from repro.obs.vetted import write_atomic
from repro.privacy.meter import GATED_CHANNEL_METRICS, compare_leakage
from repro.privacy.meter import SCHEMA_VERSION as LEAK_SCHEMA_VERSION


def test_failed_rename_keeps_old_bytes_and_leaves_no_temp_file(
    tmp_path, monkeypatch
):
    path = tmp_path / "DUMP_1.json"
    path.write_bytes(b"committed")

    def crash(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="simulated crash"):
        write_atomic(str(path), b"half-written replacement")
    assert path.read_bytes() == b"committed"
    assert os.listdir(tmp_path) == ["DUMP_1.json"]


# ----------------------------------------------------------------------
# The one baseline gate, run through both of its callers
# ----------------------------------------------------------------------


def _bench_artifact() -> dict:
    return {
        "kind": "ghostdb-bench",
        "schema_version": BENCH_SCHEMA_VERSION,
        "config": {"scale": 100, "profile": "demo"},
        "scenarios": {
            name: {
                **{metric: 10 for metric in GATED_METRICS},
                "leak_request_signature": "0badcafe",
            }
            for name in ("alpha", "beta")
        },
    }


def _leakage_artifact() -> dict:
    return {
        "kind": "ghostdb-leakage",
        "schema_version": LEAK_SCHEMA_VERSION,
        "config": {"scale": 100, "profile": "demo"},
        "families": {
            name: {
                **{metric: 10 for metric in GATED_CHANNEL_METRICS},
                "signatures": ["0badcafe"],
            }
            for name in ("alpha", "beta")
        },
        "classifier": {"accuracy": 0.5},
    }


#: gate -> (report title, artifact factory, rows key, first gated
#: metric, signature field, comparator)
GATES = {
    "bench": (
        "bench comparison", _bench_artifact, "scenarios", GATED_METRICS[0],
        "leak_request_signature", compare_artifacts,
    ),
    "leakage": (
        "leakage comparison", _leakage_artifact, "families",
        GATED_CHANNEL_METRICS[0], "signatures", compare_leakage,
    ),
}

#: case -> (how the run departs from its baseline, passes?, the start of
#: the one report line it must produce, or None for none)
POLICY_CASES = {
    "identical": (lambda run, rows, metric, sig: None, True, None),
    "plus-one": (
        lambda run, rows, metric, sig: run[rows]["alpha"].update(
            {metric: 11}
        ),
        False, "REGRESSION alpha: {metric} 10 -> 11",
    ),
    "minus-one": (
        lambda run, rows, metric, sig: run[rows]["alpha"].update(
            {metric: 9}
        ),
        True, "improved   alpha: {metric} 10 -> 9",
    ),
    "missing-row": (
        lambda run, rows, metric, sig: run[rows].pop("beta"),
        False, "missing beta (in baseline, not run)",
    ),
    "new-row": (
        lambda run, rows, metric, sig: run[rows].update(
            gamma=run[rows]["alpha"]
        ),
        True, "new gamma (no baseline -- commit a refreshed one)",
    ),
    "signature": (
        lambda run, rows, metric, sig: run[rows]["alpha"].update(
            {sig: "deadbeef"}
        ),
        False, "SIGNATURE CHANGED alpha: ",
    ),
    "scale-mismatch": (
        lambda run, rows, metric, sig: run["config"].update(scale=999),
        False, "config mismatch: config.scale: baseline 100 vs run 999",
    ),
}


@pytest.mark.parametrize("case", sorted(POLICY_CASES))
@pytest.mark.parametrize("gate", sorted(GATES))
def test_both_gates_apply_one_policy(gate, case):
    title, make, rows, metric, signature, compare = GATES[gate]
    depart, passes, expected = POLICY_CASES[case]
    baseline = make()
    run = make()
    depart(run, rows, metric, signature)
    report = compare(baseline, run)
    assert report.ok is passes
    assert report.render().startswith(
        f"{title}: {'PASS' if passes else 'FAIL'} ("
    )
    lines = report.failures + report.notes
    if expected is None:
        assert lines == []
    else:
        (line,) = lines
        assert line.startswith(expected.format(metric=metric))
