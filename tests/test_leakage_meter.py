"""The leakage meter: traffic-shape scorecards and the fingerprint gate.

Three layers under test: :func:`profile_records` (the per-trace
scorecard and its fault-invariant request-sequence signature), the
nearest-centroid fingerprinting attack (its accuracy is the leakage
number), and the ``leakage-regression`` gate (bit-identical artifacts,
comparator failing on injected regressions, CLI exit codes).
"""

import copy
import json

import pytest

from repro.hardware.usb import Direction
from repro.privacy.meter import (
    FEATURE_NAMES,
    LabeledTrace,
    LeakMeterConfig,
    compare_leakage,
    evaluate_fingerprinting,
    leakage_workbook,
    profile_records,
    render_profile,
    request_signature,
    run_leakage_meter,
)
from repro.privacy.meter import main as meter_main
from repro.workload.queries import demo_query

#: Meter runs in tests use a small dataset; the channel properties under
#: test (signatures, determinism, classifier separation) hold at any
#: scale.
METER_TEST_SCALE = 300


@pytest.fixture
def session(fresh_session):
    fresh_session.reset_measurements()
    return fresh_session


@pytest.fixture(scope="module")
def leak_run():
    """One shared metering run (the expensive part of this module)."""
    return run_leakage_meter(LeakMeterConfig(scale=METER_TEST_SCALE))


class TestTrafficProfile:
    def test_profile_accounts_for_every_message(self, session):
        session.query(demo_query())
        records = session.usb_log
        profile = profile_records(records)
        assert profile.messages == len(records)
        assert profile.observable_bytes == sum(r.size for r in records)
        assert (
            profile.bytes_to_device + profile.bytes_to_host
            == profile.observable_bytes
        )
        assert sum(profile.kind_messages.values()) == profile.messages
        assert sum(profile.kind_bytes.values()) == profile.observable_bytes

    def test_profile_reads_ids_and_request_ops(self, session):
        session.query(demo_query())
        profile = profile_records(session.usb_log)
        assert profile.ids_observed > 0
        assert profile.id_stats["ids"].total > 0
        assert profile.request_ops.get("select_ids", 0) > 0

    def test_entropy_and_shapes(self, session):
        session.query(demo_query())
        profile = profile_records(session.usb_log)
        assert profile.distinct_shapes >= 1
        assert profile.shape_entropy_bits >= 0.0
        # With several distinct shapes the distribution carries bits.
        assert profile.distinct_shapes > 1
        assert profile.shape_entropy_bits > 0.0

    def test_timing_fields_follow_the_simulated_clock(self, session):
        session.query(demo_query())
        records = session.usb_log
        profile = profile_records(records)
        assert profile.sim_duration_s == pytest.approx(
            records[-1].completed_at - records[0].completed_at
        )
        assert profile.gaps.count == len(records) - 1
        assert profile.gaps.max_s >= profile.gaps.mean_s >= 0.0

    def test_empty_trace_profiles_to_zero(self):
        profile = profile_records([])
        assert profile.messages == 0
        assert profile.observable_bytes == 0
        assert profile.shape_entropy_bits == 0.0
        assert profile.sim_duration_s == 0.0

    def test_signature_is_eight_hex_digits(self, session):
        session.query(demo_query())
        profile = profile_records(session.usb_log)
        assert len(profile.signature) == 8
        int(profile.signature, 16)  # parses as hex
        assert profile.signature_int == int(profile.signature, 16)

    def test_feature_vector_matches_names(self, session):
        session.query(demo_query())
        profile = profile_records(session.usb_log)
        vector = profile.feature_vector()
        assert len(vector) == len(FEATURE_NAMES)
        assert all(isinstance(v, float) for v in vector)

    def test_render_is_shape_only_text(self, session):
        session.query(demo_query())
        profile = profile_records(session.usb_log)
        text = render_profile(profile)
        assert "request signature" in text
        assert profile.signature in text
        assert str(profile.messages) in text


class TestSignatureInvariance:
    """The property the classifier keys on: faults move timing, never
    the logical request sequence."""

    def _run(self, session, fault_profile=None, seed=0):
        session.reset_measurements()
        if fault_profile:
            session.set_faults(fault_profile, seed)
        try:
            result = session.query(demo_query())
        finally:
            session.clear_faults()
        return result, profile_records(session.usb_log)

    def test_usb_faults_keep_signature_move_timing(self, fresh_session):
        _, clean = self._run(fresh_session)
        saw_retransmission = False
        for seed in (1, 2, 3, 4):
            result, faulted = self._run(fresh_session, "usb", seed)
            assert faulted.signature == clean.signature, (
                f"seed {seed}: signature drifted under usb faults"
            )
            if faulted.retransmissions:
                saw_retransmission = True
                assert faulted.messages > clean.messages
                assert faulted.sim_duration_s > clean.sim_duration_s
        assert saw_retransmission, (
            "no seed manifested a retransmission; the test lost its teeth"
        )

    def test_signature_changes_when_the_conversation_changes(self, session):
        session.query(demo_query())
        first = profile_records(session.usb_log)
        session.reset_measurements()
        session.query(
            "SELECT Med.Name FROM Medicine Med WHERE Med.Type = 'Statin'"
        )
        second = profile_records(session.usb_log)
        assert first.signature != second.signature

    def test_lost_copies_are_excluded_but_counted(self, session, device):
        # Two captures of the "same" message: a mangled copy, then the
        # intact retransmission.  The signature must only see the clean
        # copy; the retransmission count must see the mangled one.
        device.usb.transfer(Direction.TO_HOST, "request", b'{"op": "x"}')
        clean_sig = request_signature(device.usb.records())
        mangled = device.usb.records()[0]
        faulted_records = [
            type(mangled)(
                seq=0, direction=mangled.direction, kind=mangled.kind,
                payload=mangled.payload[:4], completed_at=0.0,
                description="", faults=("corrupt",),
            ),
            mangled,
        ]
        assert request_signature(faulted_records) == clean_sig
        assert profile_records(faulted_records).retransmissions == 1


class TestFingerprinting:
    def test_classifier_separates_separable_labels(self):
        traces = [
            LabeledTrace("big", (100.0, 10.0)),
            LabeledTrace("big", (110.0, 11.0)),
            LabeledTrace("big", (90.0, 9.0)),
            LabeledTrace("small", (5.0, 1.0)),
            LabeledTrace("small", (6.0, 2.0)),
            LabeledTrace("small", (4.0, 1.5)),
        ]
        outcome = evaluate_fingerprinting(traces)
        assert outcome["accuracy"] == 1.0
        assert outcome["chance_accuracy"] == 0.5
        assert outcome["confusion"]["big"] == {"big": 3}

    def test_attack_beats_chance_on_the_workbook(self, leak_run):
        classifier = leak_run.artifact["classifier"]
        assert classifier["accuracy"] > classifier["chance_accuracy"] * 2, (
            "the fingerprinting attack should re-identify query families "
            "well above chance -- if it stopped working, the leakage "
            "number lost its meaning"
        )
        assert classifier["traces"] == len(leakage_workbook())
        assert set(classifier["per_label_accuracy"]) <= set(
            classifier["labels"]
        )

    def test_workbook_covers_families_and_bands(self):
        trials = leakage_workbook()
        labels = {t.label for t in trials}
        assert len(labels) >= 4
        for label in labels:
            count = sum(1 for t in trials if t.label == label)
            assert count >= 2, f"{label} needs trials to train AND test"


class TestLeakArtifact:
    def test_artifact_is_deterministic_bit_identical(self, leak_run):
        again = run_leakage_meter(
            LeakMeterConfig(scale=METER_TEST_SCALE)
        )
        assert again.payload == leak_run.payload

    def test_payload_has_no_redaction_holes(self, leak_run):
        # A '?' would mean a string value fell through the allowlist --
        # either a leak (scrubbed, good, but then the artifact is
        # broken) or a vocabulary gap.  Either way: fix at the source.
        assert b'"?"' not in leak_run.payload
        payload = json.loads(leak_run.payload.decode("utf-8"))
        assert payload["kind"] == "ghostdb-leakage"
        assert payload["leak_check"] == "CLEAN"

    def test_artifact_carries_channel_rows_per_label(self, leak_run):
        families = leak_run.artifact["families"]
        assert families
        for row in families.values():
            assert row["observable_bytes"] > 0
            assert row["messages"] > 0
            assert row["signatures"] == sorted(set(row["signatures"]))

    def test_leak_summary_is_clean(self, leak_run):
        assert "CLEAN" in leak_run.leak_summary


class TestLeakageGate:
    def test_identical_artifacts_pass(self, leak_run):
        report = compare_leakage(leak_run.artifact, leak_run.artifact)
        assert report.ok
        assert "PASS" in report.render()

    def test_widened_channel_fails(self, leak_run):
        current = copy.deepcopy(leak_run.artifact)
        name = next(iter(current["families"]))
        current["families"][name]["observable_bytes"] += 1
        report = compare_leakage(leak_run.artifact, current)
        assert not report.ok
        assert any(
            line.startswith("REGRESSION") and "observable_bytes" in line
            for line in report.failures
        )
        assert "REGRESSION" in report.render()

    def test_narrowed_channel_passes_but_reports(self, leak_run):
        current = copy.deepcopy(leak_run.artifact)
        name = next(iter(current["families"]))
        current["families"][name]["messages"] -= 1
        report = compare_leakage(leak_run.artifact, current)
        assert report.ok
        assert any(line.startswith("improved") for line in report.notes)

    def test_signature_change_fails(self, leak_run):
        current = copy.deepcopy(leak_run.artifact)
        name = next(iter(current["families"]))
        current["families"][name]["signatures"] = ["deadbeef"]
        report = compare_leakage(leak_run.artifact, current)
        assert not report.ok
        assert any(
            line.startswith("SIGNATURE CHANGED") for line in report.failures
        )

    def test_more_accurate_attack_fails(self, leak_run):
        current = copy.deepcopy(leak_run.artifact)
        current["classifier"]["accuracy"] = min(
            1.0, leak_run.artifact["classifier"]["accuracy"] + 0.2
        )
        report = compare_leakage(leak_run.artifact, current)
        assert not report.ok
        assert any(
            line.startswith("MORE IDENTIFIABLE") for line in report.failures
        )

    def test_missing_family_fails(self, leak_run):
        current = copy.deepcopy(leak_run.artifact)
        name = next(iter(current["families"]))
        del current["families"][name]
        report = compare_leakage(leak_run.artifact, current)
        assert not report.ok
        assert f"missing {name} (in baseline, not run)" in report.failures

    def test_cli_gate_exits_nonzero_on_injected_regression(
        self, leak_run, tmp_path, capsys
    ):
        # Doctor a baseline claiming the channel used to be narrower;
        # the gate must fail exactly the way CI would.
        doctored = copy.deepcopy(leak_run.artifact)
        for row in doctored["families"].values():
            row["observable_bytes"] -= 1
        baseline_path = tmp_path / "leakage_baseline.json"
        baseline_path.write_text(json.dumps(doctored))
        code = meter_main(
            [
                "--scale", str(METER_TEST_SCALE),
                "--leak-out", str(tmp_path / "LEAK_test.json"),
                "--baseline", str(baseline_path),
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_cli_gate_passes_against_its_own_run(
        self, leak_run, tmp_path, capsys
    ):
        baseline_path = tmp_path / "leakage_baseline.json"
        baseline_path.write_bytes(leak_run.payload)
        code = meter_main(
            [
                "--scale", str(METER_TEST_SCALE),
                "--leak-out", str(tmp_path / "LEAK_test.json"),
                "--baseline", str(baseline_path),
            ]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out


class TestSessionSurfaces:
    """The metering hooks threaded through the session and registry."""

    def test_query_span_carries_leak_annotations(self, session):
        traced = session.trace(demo_query())
        query_spans = [s for s in traced.spans if s.name == "query"]
        assert query_spans
        attrs = query_spans[0].attrs
        assert attrs["leak_messages"] > 0
        assert attrs["leak_bytes"] > 0
        assert isinstance(attrs["leak_signature"], int)

    def test_leak_metric_families_populate(self, session):
        session.query(demo_query())
        text = session.metrics_text()
        assert "ghostdb_leak_queries_profiled_total 1" in text
        assert 'ghostdb_leak_observable_bytes_total{direction="to_host"}' in text
        assert 'ghostdb_leak_messages_total{kind="ids"}' in text
        assert "ghostdb_leak_shape_entropy_bits" in text

    def test_leak_scorecard_tracks_last_query(self, session):
        session.query(demo_query())
        profile = session.leak_scorecard()
        assert profile is not None
        assert profile.signature == profile_records(session.usb_log).signature
        session.reset_measurements()
        assert session.leak_scorecard() is None
