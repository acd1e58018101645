"""Postmortem crash bundles (``DUMP_<seed>.json``).

When a query dies under an injected unplug or power cut -- or when an
operator asks (``.dump``, ``ghostdb doctor``, ``--dump-on-fault``) --
the session snapshots everything a postmortem needs into one JSON
bundle: the flight-recorder ring, the full metrics registry, the span
forest (aborted spans appear exactly as deep as they hung; the tracer
keeps the trees of its last 512 roots, and ``spans_dropped`` counts the
spans evicted before them), a summary of device/FTL state, and the
per-query resource ledger including the aborted query's row.

Bundles are observable execution artefacts, so they pass the same bar as
traces and bench artifacts: every string goes through the session's
:class:`~repro.obs.redact.Redactor` (dict keys, which this code base
authors, are registered as safe vocabulary; string *values* stay
default-deny), and the test suite feeds the serialized bytes through the
adversarial :class:`~repro.privacy.leakcheck.LeakChecker` across the
whole chaos sweep to prove every bundle CLEAN.

The bundle is built from a *duck-typed* session (anything with ``obs``,
``device`` and ``config``) so this module never imports
:mod:`repro.core` -- core imports obs, not the other way around.  The
flight ring and the registry are device-wide; the span forest and the
ledger are the dumping session's own, so a leased session's bundle
holds the statement that aborted it.
"""

from __future__ import annotations

import dataclasses
import os

from repro.obs.export import span_tree_dicts
from repro.obs.redact import Redactor
from repro.obs.vetted import load, serialize, write_atomic

#: Bump on any incompatible change to the bundle layout.
SCHEMA_VERSION = 1

#: Bundle discriminator, so tooling can reject arbitrary JSON.
KIND = "ghostdb-postmortem"


def _numeric_fields(stats) -> dict:
    """A dataclass's int/float fields as a plain dict (counters only)."""
    return {
        f.name: getattr(stats, f.name)
        for f in dataclasses.fields(stats)
        if isinstance(getattr(stats, f.name), (int, float))
    }


def device_state_summary(device) -> dict:
    """Counts-and-sizes snapshot of every hardware layer.

    Everything here is a counter, a capacity, or a structural name the
    code base defines -- the same information the metrics exposition
    carries, grouped the way a postmortem reads it.  ``device`` is a
    session's view: flash, pool and USB counts are that session's.
    """
    counters = device.counters()
    ram = device.ram
    cache = device.page_cache
    ftl = device.ftl
    summary = {
        "profile": device.profile.name,
        "sim_clock_seconds": device.clock.now,
        "ram": {
            "capacity": ram.capacity,
            "used": ram.used,
            "high_water": ram.high_water,
            "reclaimable_used": ram.reclaimable_used,
            "allocation_count": ram.allocation_count,
        },
        "flash": _numeric_fields(counters.flash),
        "cache": {
            "pages": cache.page_count,
            "capacity_pages": cache.capacity_pages,
            **_numeric_fields(counters.cache),
        },
        "ftl": {
            "mapped_pages": ftl.mapped_pages,
            "free_pages_estimate": ftl.free_pages_estimate,
            "stale_pages": len(ftl._stale),
            "spare_blocks": ftl.spare_blocks,
            **_numeric_fields(ftl.stats),
        },
        "usb": {
            "messages": counters.usb_messages,
            "bytes_to_device": counters.usb_bytes_to_device,
            "bytes_to_host": counters.usb_bytes_to_host,
        },
        "faults": None,
    }
    injector = device.faults
    if injector is not None:
        summary["faults"] = {
            "profile": injector.profile.name,
            "seed": injector.seed,
            "usb_ops": injector.usb_ops,
            "flash_ops": injector.flash_ops,
            "injected": len(injector.events),
            "schedule": [
                {"site": e.site, "kind": e.kind, "op": e.op_index}
                for e in injector.events
            ],
        }
    return summary


def _metric_families(registry) -> dict:
    """The registry as structured samples, keyed family -> sample line.

    Sample keys are the exposition's ``name{labels}`` strings (authored
    by this code base, so safe vocabulary); values are the numbers.
    """
    families = {}
    for metric in registry:
        samples = {}
        for line in metric.expose():
            key, _, raw = line.rpartition(" ")
            value = float(raw)
            samples[key] = int(value) if value.is_integer() else value
        families[metric.name] = {"kind": metric.kind, "samples": samples}
    return families


def build_bundle(session, reason: str = "dump") -> dict:
    """Assemble the full postmortem dict (pre-redaction).

    ``reason`` is a structural identifier: an abort's exception class
    name, or ``"dump"`` / ``"doctor"`` for on-demand snapshots.
    """
    obs = session.obs
    device = session.device
    injector = device.faults
    seed = (
        injector.seed if injector is not None
        else session.config.fault_seed
    )
    flight = obs.flight
    return {
        "kind": KIND,
        "schema_version": SCHEMA_VERSION,
        "reason": reason,
        "seed": seed,
        "config": {
            "profile": device.profile.name,
            "fault_profile": (
                injector.profile.name if injector is not None else None
            ),
            "fault_seed": seed,
            "cache_pages": device.page_cache.capacity_pages,
            "id_batch": session.link.id_batch,
            "flight_capacity": flight.capacity,
        },
        "flight": {
            "capacity": flight.capacity,
            "enabled": flight.enabled,
            "total_recorded": flight.total_recorded,
            "dropped": flight.dropped,
            "events": flight.snapshot(),
        },
        "ledger": obs.ledger.to_record(),
        "metrics": _metric_families(obs.registry),
        "spans": span_tree_dicts(obs.tracer.roots),
        # The forest covers only the tracer's window of recent roots.
        "spans_dropped": obs.tracer.dropped,
        "device": device_state_summary(device),
        "leak_check": "CLEAN",
    }


def bundle_payload(bundle: dict, redactor: Redactor | None = None) -> bytes:
    """Gate the bundle through redaction and serialize it.

    Dict keys (event kinds' field names, metric sample lines, ledger
    columns) and the structural fields below pass; every other string
    value stays default-deny.  A fresh :class:`Redactor` is used unless
    one is given (the session passes its own, which knows the schema
    vocabulary).
    """
    config = bundle.get("config", {})
    return serialize(
        bundle,
        redactor,
        structural=(
            bundle.get("kind", ""),
            bundle.get("reason", ""),
            bundle.get("leak_check", ""),
            config.get("profile", ""),
            config.get("fault_profile") or "",
            bundle.get("device", {}).get("profile", ""),
        ),
    )


def bundle_filename(bundle: dict) -> str:
    return f"DUMP_{bundle.get('seed', 0)}.json"


def write_bundle(
    bundle: dict,
    directory: str = ".",
    redactor: Redactor | None = None,
) -> str:
    """Serialize one bundle into ``directory``; returns the path."""
    path = os.path.join(directory, bundle_filename(bundle))
    write_atomic(path, bundle_payload(bundle, redactor))
    return path


def load_bundle(path: str) -> dict:
    """Read one bundle back, refusing foreign or future JSON."""
    return load(path, KIND, SCHEMA_VERSION, "bundle")
