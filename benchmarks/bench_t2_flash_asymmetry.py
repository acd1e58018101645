"""T2 -- Section 3: the flash write/read cost ratio drives the design.

Runs a spill-heavy conversion (unselective visible predicate, plain PRE)
and a write-free Bloom plan (POST) on devices with 3x and 10x write/read
ratios.  Expected shape: the PRE plan's cost grows with the ratio (its
spills are writes) while the POST plan barely moves -- quantifying why a
write-averse device wants Post-filtering and sorted streaming.

Also reproduces the envisioned USB high-speed platform as an ablation:
a 480 Mb/s link shrinks the visible-transfer term, shifting the
pre/post crossover.
"""

from benchmarks.conftest import BENCH_SCALE, load_session, print_series
from repro.hardware.profiles import (
    DEMO_DEVICE,
    HARSH_FLASH_DEVICE,
    HIGH_SPEED_DEVICE,
)
from repro.optimizer.space import Strategy

#: An ~80%-selective visible date with a selective hidden anchor: the
#: plain-PRE plan converts a long VisID list and spills heavily (see the
#: D2 sweep), which is exactly the write-bound behaviour T2 probes.
SQL = """
    SELECT Pre.Quantity FROM Prescription Pre, Visit Vis
    WHERE Vis.Date > DATE '2005-07-01'
    AND Pre.Quantity = 7
    AND Pre.WhenWritten > DATE '2007-04-01'
    AND Vis.VisID = Pre.VisID
"""


def _measure(profile):
    session, _data = load_session(scale=max(4000, BENCH_SCALE // 5),
                                  profile=profile)
    session.reset_measurements()
    pre = session.query_with_strategy(SQL, Strategy(("pre",)))
    session.reset_measurements()
    post = session.query_with_strategy(SQL, Strategy(("post",)))
    return pre, post


def test_t2_write_cost_sensitivity(benchmark):
    results = benchmark.pedantic(
        lambda: {p.name: _measure(p) for p in (DEMO_DEVICE, HARSH_FLASH_DEVICE)},
        rounds=1, iterations=1,
    )
    rows = []
    for name, (pre, post) in results.items():
        rows.append(
            (
                name,
                f"{pre.metrics.elapsed_seconds * 1e3:.2f}",
                pre.metrics.flash_page_writes,
                f"{post.metrics.elapsed_seconds * 1e3:.2f}",
                post.metrics.flash_page_writes,
            )
        )
    print_series(
        "T2: plan cost vs flash write/read ratio (3x vs 10x)",
        ["device", "pre (ms)", "pre writes", "post (ms)", "post writes"],
        rows,
    )
    demo_pre, demo_post = results[DEMO_DEVICE.name]
    harsh_pre, harsh_post = results[HARSH_FLASH_DEVICE.name]
    # PRE spills the long conversion; POST writes far less (its only
    # spill comes from the hidden range predicate's union).
    assert demo_pre.metrics.flash_page_writes > 0
    assert (
        demo_pre.metrics.flash_page_writes
        > 3 * demo_post.metrics.flash_page_writes
    )
    pre_growth = (
        harsh_pre.metrics.elapsed_seconds / demo_pre.metrics.elapsed_seconds
    )
    post_growth = (
        harsh_post.metrics.elapsed_seconds
        / demo_post.metrics.elapsed_seconds
    )
    # The write-bound plan feels the 10x ratio much more.
    assert pre_growth > post_growth
    assert pre_growth > 1.1


def test_t2_high_speed_usb_ablation(benchmark):
    results = benchmark.pedantic(
        lambda: {p.name: _measure(p) for p in (DEMO_DEVICE, HIGH_SPEED_DEVICE)},
        rounds=1, iterations=1,
    )
    rows = []
    for name, (pre, post) in results.items():
        rows.append(
            (
                name,
                f"{pre.metrics.time.usb * 1e3:.2f}",
                f"{post.metrics.time.usb * 1e3:.2f}",
                f"{post.metrics.elapsed_seconds * 1e3:.2f}",
            )
        )
    print_series(
        "T2 ablation: the envisioned 480 Mb/s platform",
        ["device", "pre usb (ms)", "post usb (ms)", "post total (ms)"],
        rows,
    )
    demo = results[DEMO_DEVICE.name][1].metrics.time.usb
    fast = results[HIGH_SPEED_DEVICE.name][1].metrics.time.usb
    assert fast < demo
