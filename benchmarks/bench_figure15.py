"""Figure 15: XmitWait network-congestion counters for the Figure 14 runs.

The paper verifies the cause of the concurrent-transfer speedup with the
Omni-Path ``XmitWait`` counter ("number of events when any virtual lane had
data but was unable to transmit").  This bench reruns the Figure 14
configurations and reports the counter, checking the paper's observations:

* for the O(n) producer the message-passing-only method shows a larger
  XmitWait than the concurrent method (the file path relieves congestion);
* for O(n^{3/2}) the counter is orders of magnitude smaller and the two
  methods coincide;
* congestion grows with the number of cores.
"""

from __future__ import annotations

from conftest import bench_data_mib, bench_workers

from repro.bench import format_table
from repro.bench.experiments import figure14_spec
from repro.sweep import run_labelled

MiB = 1024 * 1024
CORE_COUNTS = (84, 336, 2352)


def run_figure15(data_per_rank: int):
    return run_labelled(
        figure14_spec(data_per_rank=data_per_rank, core_counts=CORE_COUNTS),
        workers=bench_workers(),
    )


def test_figure15_xmitwait_congestion(benchmark, report):
    data_per_rank = bench_data_mib() * MiB
    results = benchmark.pedantic(run_figure15, args=(data_per_rank,), rounds=1, iterations=1)

    rows = []
    for label, result in results.items():
        rows.append([label, f"{result.xmit_wait:.3e}", f"{100 * result.steal_fraction:.1f}%"])
    report(
        format_table(
            ["config", "XmitWait (flit-times, full job)", "stolen"],
            rows,
            title="Figure 15: network congestion (XmitWait) per configuration",
        )
    )

    # Message-passing-only congests at least as much as the concurrent method
    # for the transfer-bound O(n) producer.
    for cores in CORE_COUNTS:
        assert (
            results[f"O(n)/{cores}/mpi-only"].xmit_wait
            >= results[f"O(n)/{cores}/concurrent"].xmit_wait * 0.95
        )
        # The compute-bound producer congests the fabric far less than the
        # transfer-bound one (the paper reports a ~1000x gap on real hardware;
        # the simulator's counter also accumulates benign queueing, so the
        # check here is directional rather than order-of-magnitude).
        assert (
            results[f"O(n^1.5)/{cores}/concurrent"].xmit_wait
            < results[f"O(n)/{cores}/concurrent"].xmit_wait / 1.5
        )
    # Congestion grows with scale for the O(n) producer.
    assert (
        results["O(n)/2352/mpi-only"].xmit_wait > results["O(n)/84/mpi-only"].xmit_wait
    )
