"""End-to-end benchmark: sustained closed-loop workloads against GhostDB.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload point-lookup --seed 1 \\
        --seconds 10 --trace 0

``--workload`` may repeat and defaults to every workload in
``BENCHMARK.json``.  Each workload runs in a fresh child process
(``workload.py``).  ``--seconds`` sizes each client stream's fixed
statement count: about that long on the calibration host.  ``--trace
0`` prints the end-to-end metrics; ``--trace 1`` runs every second
window of the same statements with the layer trace installed and prints
the per-layer metrics, among them ``trace_overhead_x`` (untraced over
traced throughput).  ``--repeat N`` runs seeds ``seed .. seed+N-1`` and
prints each metric's median, quartiles and relative spread against its
bound in ``BENCHMARK.json``.  ``--out PATH`` also writes every run's
results as JSON (and, traced, the spans next to it).

Stdout carries one ``workload metric value unit`` line per metric, then
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(metric names are prefixed ``workload/`` when several workloads ran).
The exit code is 1 on a wrong answer, a failed statement or a leak,
and with ``--repeat`` also when an end-to-end spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: A run, set-up and checks included, must end well inside three minutes.
CHILD_TIMEOUT_S = 170


def child(args, workload: str, seed: int) -> dict:
    """Run one workload in a fresh process; its last stdout line."""
    command = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds),
    ]
    if args.scale:
        command += ["--scale", str(args.scale)]
    if args.trace:
        command.append("--trace")
        if args.out:
            command += ["--spans", f"{args.out}.{workload}.{seed}.spans.jsonl"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, env=env,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: child failed ({done.returncode})")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv: list[str] | None = None) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no GhostDB sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", default=None)
    parser.add_argument(
        "--scale", type=int, default=None,
        help="prescriptions for every workload, for smoke tests "
        "(default: each workload's own)",
    )
    args = parser.parse_args(argv)
    workloads = args.workload or names
    defs = spec["per_layer"] if args.trace else spec["end_to_end"]
    key = "layers" if args.trace else "metrics"

    runs = {
        w: [child(args, w, args.seed + r) for r in range(args.repeat)]
        for w in workloads
    }
    unsteady = []
    metrics = {}
    for workload, results in runs.items():
        for result in results:
            print(
                f"# {workload} seed {result['seed']}: {result['attempted']} "
                f"statements, {result['failed']} failed, leak check "
                f"{'CLEAN' if result['leak_clean'] else 'DIRTY'}, "
                f"digest {result['digest']}"
            )
        for metric in defs:
            name, unit = metric["name"], metric["unit"]
            values = [r[key][name] for r in results]
            label = name if len(runs) == 1 else f"{workload}/{name}"
            if len(values) == 1:
                metrics[label] = {"value": values[0], "unit": unit}
                print(f"{workload} {name} {values[0]!r} {unit}")
                continue
            median, q1, q3, rel = spread(values)
            metrics[label] = {"value": median, "unit": unit}
            verdict = ""
            bound = metric.get("bound")
            if bound is not None:
                verdict = "ok" if rel <= bound / 3 else "wide"
                if rel > bound and name != "setup_s":
                    unsteady.append(f"{workload} {name}")
                verdict += f" bound {bound} (suggest {min(0.25, max(0.05, 3 * rel)):.2f})"
            print(
                f"{workload} {name} median {median:.6g} q1 {q1:.6g} "
                f"q3 {q3:.6g} {unit} spread {rel:.4f} {verdict}"
            )

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(runs, handle, indent=1, sort_keys=True)
    results = [r for rs in runs.values() for r in rs]
    correct = all(r["correct"] for r in results)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    for item in unsteady:
        print(f"spread above bound: {item}", file=sys.stderr)
    return 0 if correct and not unsteady else 1


if __name__ == "__main__":
    sys.exit(main())
