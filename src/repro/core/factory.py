"""One canonical way to stand up a demo-schema session.

Every entry point used to repeat the same construction litany --
build a :class:`SessionConfig`, instantiate :class:`GhostDB`, run the
demo DDL, generate the synthetic medical dataset, load it, maybe attach
faults -- with the kwargs drifting slightly between copies.
:func:`build_session` is that litany, once; the shell, ``bench``,
``soak``, ``doctor``, ``leakmeter`` and ``serve`` all call it.
"""

from __future__ import annotations

from repro.core.ghostdb import GhostDB, SessionConfig
from repro.hardware.profiles import PROFILES, HardwareProfile


def build_session(
    *,
    scale: int = 10_000,
    profile: str | HardwareProfile = "demo",
    cache_pages: int | None = None,
    fault_profile: str | None = None,
    fault_seed: int = 0,
    dump_on_fault: bool = False,
    dump_dir: str = ".",
    max_sessions: int | None = None,
) -> tuple[GhostDB, dict]:
    """Build, populate and load a demo-schema GhostDB.

    ``scale`` is the prescription count fed to the synthetic-data
    generator; ``profile`` is a hardware profile name from
    :data:`~repro.hardware.profiles.PROFILES` (or a profile object).
    ``fault_profile`` of ``None`` or ``"none"`` leaves the device
    healthy.  Returns ``(db, data)`` -- the loaded session and the
    generated plaintext rows (callers feed the latter to
    :class:`~repro.privacy.leakcheck.LeakChecker`).
    """
    from repro.workload.datagen import DatasetConfig, MedicalDataGenerator
    from repro.workload.queries import DEMO_SCHEMA_DDL

    if isinstance(profile, str):
        profile = PROFILES[profile]
    config = SessionConfig(
        cache_pages=cache_pages,
        fault_seed=fault_seed,
        dump_on_fault=dump_on_fault,
        dump_dir=dump_dir,
    )
    if max_sessions is not None:
        config.max_sessions = max_sessions
    db = GhostDB(profile=profile, config=config)
    for ddl in DEMO_SCHEMA_DDL:
        db.execute(ddl)
    data = MedicalDataGenerator(
        DatasetConfig(n_prescriptions=scale)
    ).generate()
    db.load(data)
    if fault_profile and fault_profile != "none":
        db.set_faults(fault_profile, fault_seed)
    return db, data
