"""Deterministic sustained-DML soak harness: ``python -m repro soak``.

One soak run drives a seed-fixed mixed workload -- appends, UPDATEs,
DELETEs -- against a loaded demo-schema session under a fault profile
(``mixed`` by default: USB corruption and stalls, flash bitflips, torn
writes, grown bad blocks), for a configured number of epochs or until
the *simulated* clock has covered ``--hours`` of device time.

Every epoch ends with a full invariant audit:

* **reference** -- the device rows of every table, read back off flash,
  equal an independently maintained host-side reference model, and the
  visible site's row counts agree;
* **queries**   -- a fixed battery of SELECTs (join, selection,
  aggregate) answers exactly what the brute-force reference evaluator
  answers over the reference rows;
* **leak**      -- the epoch's captured USB traffic is CLEAN under the
  adversarial leak checker (rebuilt each epoch, so hidden values
  *introduced by the workload itself* are part of the corpus);
* **ram**       -- the device RAM budget is fully released (nothing but
  reclaimable buffer-pool memory remains reserved);
* **ftl_map**   -- after a remount (recovery scan + orphan sweep) the
  FTL's mapped pages are exactly the catalog's referenced pages.

Everything about a run is a deterministic function of its seed: the
workload (one ``random.Random``), the fault schedule (the injector's own
seed), the simulated clock, and therefore the whole ``SOAK_<seed>.json``
artifact -- replaying a seed must produce bit-identical bytes.  The
artifact passes the default-deny redaction gate and is verified CLEAN by
the leak checker before it is written; host wall time never appears in
it.
"""

from __future__ import annotations

import argparse
import datetime
import os
import random
from dataclasses import dataclass

from repro.core.factory import build_session
from repro.core.ghostdb import GhostDB
from repro.faults import FAULT_PROFILES, GhostDBFaultError
from repro.obs import get_logger
from repro.obs.vetted import vet, write_atomic
from repro.privacy.leakcheck import LeakChecker
from repro.reference import evaluate_reference, same_rows
from repro.sql import ast
from repro.sql.binder import Binder
from repro.sql.parser import parse_statement

log = get_logger(__name__)

#: Artifact discriminator + layout version (see :mod:`repro.bench.artifact`
#: for the convention).
KIND = "ghostdb-soak"
SCHEMA_VERSION = 1

#: Attempts a faulted statement gets before the run is declared broken.
#: Schedules are seed-fixed, so a given run needs the same attempts on
#: every replay.
MAX_ATTEMPTS = 8

#: Epoch ceiling for ``--hours`` runs: a misconfigured target must fail
#: loudly instead of looping forever.
MAX_EPOCHS = 100_000

#: Keep at least this many prescriptions alive; below it the generator
#: forces an insert so deletes can never drain the workload's table.
MIN_PRESCRIPTIONS = 8

#: Visible CHAR(20) values the workload writes (never hidden data).
FREQUENCIES = ("1x daily", "2x daily", "3x daily", "as needed")

#: The epoch verification battery: join, hidden selection, visible
#: selection, and a grouped aggregate -- each answered twice, once by the
#: engine and once by the brute-force reference evaluator.
CHECK_QUERIES = (
    "SELECT Patient.Name, Quantity FROM Patient, Visit, Prescription "
    "WHERE Patient.PatID = Visit.PatID "
    "AND Visit.VisID = Prescription.VisID AND Quantity > 5",
    "SELECT PreID, Quantity FROM Prescription WHERE Quantity <= 6",
    "SELECT Age FROM Patient WHERE Age > 40",
    "SELECT Vis.Purpose, count(*) FROM Prescription Pre, Visit Vis "
    "WHERE Vis.VisID = Pre.VisID GROUP BY Vis.Purpose",
)


class SoakError(RuntimeError):
    """A soak run could not complete or produce a trustworthy artifact."""


@dataclass
class SoakConfig:
    """One soak run's knobs.  Everything here keys the artifact."""

    seed: int = 0
    #: Epochs to run (each = ``ops_per_epoch`` mutations + a full audit).
    epochs: int = 4
    ops_per_epoch: int = 12
    #: Prescriptions in the starting dataset.
    scale: int = 120
    #: Fault profile name, or ``None``/"none" for a clean run.
    fault_profile: str | None = "mixed"
    #: Optional simulated-hours target: keep cycling epochs until the
    #: device clock has covered this much simulated time.
    sim_hours: float | None = None

    def __post_init__(self) -> None:
        if self.fault_profile in ("none", ""):
            self.fault_profile = None
        if self.fault_profile is not None and (
            self.fault_profile not in FAULT_PROFILES
        ):
            known = ", ".join(sorted(FAULT_PROFILES))
            raise SoakError(
                f"unknown fault profile {self.fault_profile!r}; "
                f"known: {known}"
            )


@dataclass
class SoakRun:
    """A finished run: the report plus its vetted serialization."""

    report: dict
    #: Redacted JSON bytes, already verified CLEAN by the leak checker.
    payload: bytes
    leak_summary: str

    @property
    def violations(self) -> list[dict]:
        return self.report["violations"]

    @property
    def ok(self) -> bool:
        return not self.violations

    def write(self, directory: str = ".") -> str:
        path = os.path.join(
            directory, f"SOAK_{self.report['config']['seed']}.json"
        )
        write_atomic(path, self.payload)
        return path


# ----------------------------------------------------------------------
# Host-side reference model
# ----------------------------------------------------------------------


def apply_dml_reference(tree, rows_by_table: dict[str, list], sql: str) -> None:
    """Apply one UPDATE/DELETE to the reference rows, in place.

    Independent of the engine's execution path: the statement is bound
    only for column resolution, then predicates and assignments are
    evaluated over plain host tuples.
    """
    statement = parse_statement(sql)
    binder = Binder(tree)
    if isinstance(statement, ast.Update):
        bound = binder.bind_update(statement)
        idx = {
            c.name.lower(): i
            for i, c in enumerate(bound.table_def.columns)
        }
        out = []
        for row in rows_by_table[bound.table]:
            if all(p.matches(row[idx[p.column]]) for p in bound.predicates):
                new = list(row)
                for a in bound.assignments:
                    new[idx[a.column.name.lower()]] = (
                        a.column.dtype.validate(a.value)
                    )
                out.append(tuple(new))
            else:
                out.append(row)
        rows_by_table[bound.table] = out
    elif isinstance(statement, ast.Delete):
        bound = binder.bind_delete(statement)
        idx = {
            c.name.lower(): i
            for i, c in enumerate(bound.table_def.columns)
        }
        rows_by_table[bound.table] = [
            row
            for row in rows_by_table[bound.table]
            if not all(
                p.matches(row[idx[p.column]]) for p in bound.predicates
            )
        ]
    else:  # pragma: no cover - the generator only emits DML
        raise SoakError(f"not a DML statement: {sql!r}")


def expected_device_rows(tree, rows_by_table, table: str) -> list[tuple]:
    """The device heap's expected contents: device columns, PK order."""
    tdef = tree.table(table)
    idx = [tdef.column_index(c.name) for c in tdef.device_columns()]
    return sorted(
        (tuple(row[i] for i in idx) for row in rows_by_table[table]),
        key=lambda r: r[0],
    )


# ----------------------------------------------------------------------
# Workload generation (a pure function of the rng + reference state)
# ----------------------------------------------------------------------


def _gen_insert(rng: random.Random, ref: dict, state: dict) -> list[tuple]:
    """A batch of fresh prescriptions with monotonically new PKs."""
    meds = sorted(r[0] for r in ref["medicine"])
    visits = sorted(r[0] for r in ref["visit"])
    rows = []
    for _ in range(rng.randint(1, 4)):
        state["next_pk"] += 1
        rows.append(
            (
                state["next_pk"],
                rng.randint(1, 12),
                rng.choice(FREQUENCIES),
                datetime.date(2026, rng.randint(1, 12), rng.randint(1, 28)),
                rng.choice(meds),
                rng.choice(visits),
            )
        )
    return rows


def _gen_update(rng: random.Random, ref: dict) -> str:
    pres_pks = sorted(r[0] for r in ref["prescription"])
    pat_pks = sorted(r[0] for r in ref["patient"])
    which = rng.randrange(4)
    if which == 0:  # hidden int, value-matched
        return (
            f"UPDATE Prescription SET Quantity = {rng.randint(1, 12)} "
            f"WHERE Quantity = {rng.randint(1, 12)}"
        )
    if which == 1:  # visible CHAR over a PK range
        return (
            f"UPDATE Prescription SET Frequency = "
            f"'{rng.choice(FREQUENCIES)}' "
            f"WHERE PreID <= {rng.choice(pres_pks)}"
        )
    if which == 2:  # visible int, single row
        return (
            f"UPDATE Patient SET Age = {rng.randint(18, 95)} "
            f"WHERE PatID = {rng.choice(pat_pks)}"
        )
    # hidden float + visible int, multi-assignment
    return (
        f"UPDATE Patient SET BodyMassIndex = {rng.randint(150, 400) / 10}, "
        f"Age = {rng.randint(18, 95)} "
        f"WHERE PatID = {rng.choice(pat_pks)}"
    )


def _gen_delete(rng: random.Random, ref: dict) -> str:
    pks = sorted(r[0] for r in ref["prescription"])
    if rng.random() < 0.5:
        chosen = sorted(rng.sample(pks, min(3, len(pks))))
        return (
            f"DELETE FROM Prescription "
            f"WHERE PreID IN ({', '.join(map(str, chosen))})"
        )
    return (
        f"DELETE FROM Prescription WHERE Quantity = {rng.randint(1, 12)} "
        f"AND PreID > {rng.choice(pks)}"
    )


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def _with_retries(db: GhostDB, fn, tally: dict):
    """Run ``fn`` to completion under faults.

    Every DML statement and append is atomic (build-all-then-swap), so a
    faulted attempt left the device on the old version and a plain
    re-execution is safe.  Remounts happen inside the loop so a recovery
    scan that itself faults is retried too.
    """
    last: Exception | None = None
    for _ in range(MAX_ATTEMPTS):
        try:
            if db.needs_remount:
                db.remount()
            return fn()
        except GhostDBFaultError as exc:
            last = exc
            tally["retries"] += 1
    raise SoakError(
        f"statement kept faulting after {MAX_ATTEMPTS} attempts: {last}"
    )


def _heap_rows(db: GhostDB, table: str) -> list:
    """A heap's rows, read in the console's partition and pool like its
    statements (the audit is no statement: it books no fault)."""
    with db.core.activated(db.lease):
        return list(db.hidden.heaps[table].scan())


def _audit_epoch(
    db: GhostDB,
    ref: dict,
    epoch: int,
    usb_mark: int,
    tally: dict,
    violations: list[dict],
) -> dict:
    """The end-of-epoch invariant battery; returns per-invariant status."""

    def flag(invariant: str, detail: str) -> None:
        violations.append(
            {"epoch": epoch, "invariant": invariant, "detail": detail}
        )

    status = {}

    # Reference: device rows + site counts vs the host-side model.
    reference_ok = True
    for table in ("prescription", "patient", "visit", "medicine"):
        got = _with_retries(db, lambda t=table: _heap_rows(db, t), tally)
        want = expected_device_rows(db.tree, ref, table)
        if got != want:
            reference_ok = False
            flag(
                "reference",
                f"device rows of {table} diverged "
                f"({len(got)} vs {len(want)} rows)",
            )
        if db.site.row_count(table) != len(ref[table]):
            reference_ok = False
            flag(
                "reference",
                f"site row count of {table} diverged "
                f"({db.site.row_count(table)} vs {len(ref[table])})",
            )
    status["reference"] = "ok" if reference_ok else "violated"

    # Queries: the engine vs the brute-force evaluator.
    queries_ok = True
    for q, sql in enumerate(CHECK_QUERIES):
        result = _with_retries(db, lambda s=sql: db.query(s), tally)
        expected = evaluate_reference(db.tree, ref, db.bind(sql))
        if not same_rows(result.rows, expected):
            queries_ok = False
            flag(
                "queries",
                f"check query {q} diverged from the reference "
                f"({result.row_count} vs {len(expected)} rows)",
            )
    status["queries"] = "ok" if queries_ok else "violated"

    # Leak: this epoch's boundary traffic, checked against a corpus that
    # includes every hidden value the workload itself has written.
    checker = LeakChecker(db.schema, ref)
    leak = checker.check(db.usb_log[usb_mark:])
    if not leak.ok:
        flag("leak", leak.summary())
    status["leak"] = "CLEAN" if leak.ok else "violated"

    # RAM: nothing but reclaimable buffer-pool memory may stay reserved.
    ram = db.device.ram
    if ram.used != ram.reclaimable_used:
        flag(
            "ram",
            f"{ram.used - ram.reclaimable_used} B still reserved "
            f"after the epoch's statements finished",
        )
    status["ram"] = "ok" if ram.used == ram.reclaimable_used else "violated"

    # FTL map: a remount's recovery scan + orphan sweep must land on
    # exactly the catalog's referenced pages.
    _with_retries(db, db.remount, tally)
    mapped = db.device.ftl.mapped_lpages()
    referenced = db.hidden.referenced_pages()
    if mapped != referenced:
        flag(
            "ftl_map",
            f"FTL maps {len(mapped)} pages, catalog references "
            f"{len(referenced)} after remount",
        )
    status["ftl_map"] = "ok" if mapped == referenced else "violated"
    return status


def run_soak(config: SoakConfig | None = None) -> SoakRun:
    """Execute one full soak run; see the module docstring."""
    config = config or SoakConfig()
    rng = random.Random(config.seed)

    db, data = build_session(scale=config.scale)
    injector = None
    if config.fault_profile is not None:
        # Not routed through build_session: soak attaches even
        # zero-rate profiles so it can schedule its own power cuts.
        injector = db.set_faults(config.fault_profile, seed=config.seed)

    ref = {name: list(rows) for name, rows in data.items()}
    state = {"next_pk": max(r[0] for r in ref["prescription"])}
    counters = db.obs.registry
    violations: list[dict] = []
    epoch_records: list[dict] = []
    log.info(
        "soak run: seed %d, %d ops/epoch at scale %d under %s faults",
        config.seed, config.ops_per_epoch, config.scale,
        config.fault_profile or "no",
    )

    epoch = 0
    while epoch < config.epochs or (
        config.sim_hours is not None
        and db.device.clock.now < config.sim_hours * 3600.0
    ):
        if epoch >= MAX_EPOCHS:
            raise SoakError(
                f"simulated-hours target unreachable within "
                f"{MAX_EPOCHS} epochs"
            )
        usb_mark = len(db.usb_log)
        fault_mark = len(injector.events) if injector else 0
        tally = {"retries": 0}
        ops = {"insert": 0, "update": 0, "delete": 0}
        appended = 0
        for _ in range(config.ops_per_epoch):
            if len(ref["prescription"]) < MIN_PRESCRIPTIONS:
                kind = "insert"
            else:
                draw = rng.random()
                kind = (
                    "insert" if draw < 0.30
                    else "update" if draw < 0.75
                    else "delete"
                )
            ops[kind] += 1
            if kind == "insert":
                rows = _gen_insert(rng, ref, state)
                _with_retries(
                    db, lambda r=rows: db.append("prescription", r), tally
                )
                ref["prescription"].extend(rows)
                appended += len(rows)
            else:
                sql = (
                    _gen_update(rng, ref) if kind == "update"
                    else _gen_delete(rng, ref)
                )
                _with_retries(db, lambda s=sql: db.execute(s), tally)
                apply_dml_reference(db.tree, ref, sql)

        status = _audit_epoch(db, ref, epoch, usb_mark, tally, violations)
        flash = db.device.flash
        epoch_records.append(
            {
                "epoch": epoch,
                "ops": ops,
                "rows_appended": appended,
                "rows": {t: len(ref[t]) for t in sorted(ref)},
                "retries": tally["retries"],
                # Faults the injector actually fired this epoch; most
                # are absorbed below the session surface (ECC-corrected
                # bitflips, transparent USB retransmissions) -- the
                # point of the soak is that absorption never bends an
                # invariant.
                "faults_injected": (
                    len(injector.events) - fault_mark if injector else 0
                ),
                "sim_seconds": round(db.device.clock.now, 9),
                "flash_writes": counters.counter(
                    "ghostdb_device_flash_writes_total"
                ).total(),
                "flash_erases": counters.counter(
                    "ghostdb_device_flash_erases_total"
                ).total(),
                "wear": {
                    "max_erase_cycles": flash.max_wear,
                    "bad_blocks": flash.bad_block_count,
                    "read_only": db.device.ftl.read_only,
                },
                "invariants": status,
            }
        )
        epoch += 1

    report = {
        "kind": KIND,
        "schema_version": SCHEMA_VERSION,
        "config": {
            "seed": config.seed,
            "epochs": epoch,
            "ops_per_epoch": config.ops_per_epoch,
            "scale": config.scale,
            "fault_profile": config.fault_profile or "none",
            "sim_hours": config.sim_hours,
        },
        "epochs_run": epoch_records,
        "final": {
            "sim_hours": round(db.device.clock.now / 3600.0, 9),
            "total_queries": db.obs.ledger.total_queries,
            "aborted_queries": db.obs.ledger.aborted_queries,
            "flight_events": db.obs.flight.total_recorded,
            "rows": {t: len(ref[t]) for t in sorted(ref)},
        },
        "violations": violations,
        "leak_check": "CLEAN",
    }

    # The artifact is an observable execution artefact: it passes the
    # default-deny redaction gate, then the adversarial leak checker
    # (with the *final* hidden corpus) must call the bytes CLEAN.
    vetted = vet(
        report,
        LeakChecker(db.schema, ref),
        "soak-artifact",
        SoakError,
        db.obs.redactor,
        structural=(
            KIND, "ok", "violated", "CLEAN",
            report["config"]["fault_profile"],
            *(violation["invariant"] for violation in violations),
        ),
    )
    return SoakRun(
        report=report,
        payload=vetted.payload,
        leak_summary=vetted.leak_summary,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro soak",
        description="run the deterministic sustained-DML soak harness "
        "and write a leak-checked SOAK_<seed>.json artifact",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload + fault schedule seed (default 0)",
    )
    parser.add_argument(
        "--epochs", type=int, default=4,
        help="epochs to run; each ends with a full invariant audit "
        "(default 4)",
    )
    parser.add_argument(
        "--ops", type=int, default=12, metavar="N",
        help="mutations per epoch (default 12)",
    )
    parser.add_argument(
        "--scale", type=int, default=120,
        help="prescriptions in the starting dataset (default 120)",
    )
    parser.add_argument(
        "--faults", default="mixed", metavar="PROFILE",
        help="fault profile for the whole run (default mixed; "
        "'none' for a clean run)",
    )
    parser.add_argument(
        "--hours", type=float, default=None, metavar="H",
        help="keep cycling epochs until the simulated clock covers "
        "H hours",
    )
    parser.add_argument(
        "--out-dir", default=".", metavar="DIR",
        help="directory for the SOAK_<seed>.json artifact (default .)",
    )
    args = parser.parse_args(argv)

    try:
        run = run_soak(SoakConfig(
            seed=args.seed,
            epochs=args.epochs,
            ops_per_epoch=args.ops,
            scale=args.scale,
            fault_profile=args.faults,
            sim_hours=args.hours,
        ))
    except SoakError as exc:
        print(f"error: {exc}")
        return 2

    for record in run.report["epochs_run"]:
        invariants = " ".join(
            f"{name}={value}"
            for name, value in sorted(record["invariants"].items())
        )
        print(
            f"epoch {record['epoch']:3d}  "
            f"ins {record['ops']['insert']:2d} "
            f"upd {record['ops']['update']:2d} "
            f"del {record['ops']['delete']:2d}  "
            f"faults {record['faults_injected']:3d}  "
            f"retries {record['retries']:2d}  "
            f"wear {record['wear']['max_erase_cycles']:3d}  "
            f"{invariants}"
        )
    print(run.leak_summary)

    try:
        path = run.write(args.out_dir)
    except OSError as exc:
        print(f"error: could not write artifact: {exc}")
        return 2
    print(f"wrote {path} ({len(run.payload)} bytes)")

    if not run.ok:
        print(f"soak: {len(run.violations)} INVARIANT VIOLATIONS")
        return 1
    print("soak: all invariants held")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
