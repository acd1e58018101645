"""Privacy audit: play the spy, then play the auditor.

Runs a battery of queries over the hidden/visible split, shows exactly
what crossed the trust boundary, verifies the leak checker's CLEAN
verdict -- and then stages an exfiltration attempt to prove the checker
actually catches violations.

Run:  python examples/privacy_audit.py
"""

from repro import GhostDB
from repro.hardware.usb import Direction
from repro.privacy import LeakChecker, SpyView
from repro.workload import DEMO_SCHEMA_DDL, DatasetConfig, MedicalDataGenerator
from repro.workload.queries import demo_query

AUDIT_QUERIES = {
    "the paper's demo query": demo_query(),
    "hidden-only selection": """
        SELECT Pre.Quantity FROM Prescription Pre, Visit Vis
        WHERE Vis.Purpose = 'Sclerosis' AND Vis.VisID = Pre.VisID""",
    "patient lookup by hidden name": """
        SELECT Age, Country FROM Patient WHERE Name = 'Marie Martin'""",
    "five-way join": """
        SELECT Med.Name, Doc.Country, Pre.Quantity
        FROM Medicine Med, Prescription Pre, Visit Vis, Doctor Doc,
             Patient Pat
        WHERE Vis.Purpose = 'Sclerosis' AND Doc.Country = 'France'
        AND Med.MedID = Pre.MedID AND Vis.VisID = Pre.VisID
        AND Doc.DocID = Vis.DocID AND Pat.PatID = Vis.PatID""",
}


def main() -> None:
    db = GhostDB()
    for ddl in DEMO_SCHEMA_DDL:
        db.execute(ddl)
    data = MedicalDataGenerator(
        DatasetConfig(n_prescriptions=10_000)
    ).generate()
    db.load(data)
    checker = LeakChecker(db.schema, data)
    print(
        f"auditing against {checker.pattern_count} distinct hidden "
        f"string values\n"
    )

    for name, sql in AUDIT_QUERIES.items():
        db.reset_measurements()
        result = db.query(sql)
        spy = SpyView(db.usb_log)
        report = checker.check(db.usb_log)
        status = "CLEAN" if report.ok else "LEAK!"
        print(f"[{status}] {name}")
        print(
            f"        {result.row_count} rows | spy saw "
            f"{len(db.usb_log)} messages, {spy.total_bytes} B "
            f"({spy.observed_ids().get('ids', 0)} visible-selection ids, "
            f"{spy.observed_ids().get('fetch', 0)} projected ids)"
        )
        print(
            "        by kind: "
            + ", ".join(f"{s.kind} x{s.messages}" for s in spy.summary())
        )
        for request in spy.requests():
            print(f"        spy reads: {request[:100]}")
        assert report.ok
        print()

    print("-" * 72)
    print("now staging an exfiltration attempt (a compromised firmware")
    print("trying to push a hidden Purpose value to the host)...")
    db.device.usb.transfer(
        Direction.TO_HOST,
        "request",
        b'{"op": "select_ids", "note": "Sclerosis"}',
    )
    report = checker.check(db.usb_log)
    print(report.summary())
    assert not report.ok, "the auditor must catch this"
    print("\nthe leak checker caught it.  Audit complete.")


if __name__ == "__main__":
    main()
