"""Unit tests of the benchmark's own measurement helpers.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import os

import pytest
from benchkit import (
    PROBE_REFERENCE_S,
    HostSpeed,
    Reference,
    Tracer,
    block_medians,
    closed_pool,
    cpu_seconds,
    cpu_ticks,
    layer_self_times,
    peak_rss_mb,
    percentile,
    probe,
    prom_mean,
    process_cpu_s,
    prom_samples,
    reset_peak_rss,
    samples_needed,
    self_times,
    steal_share,
    vmhwm_kb,
    with_slots,
)


def test_p99_needs_ten_samples_beyond_it():
    assert samples_needed(0.99) == 1000
    assert samples_needed(0.5) == 20
    values = list(range(1000))
    assert percentile(values, 0.99) == 989  # rank 990 of 1000
    assert percentile(values[::-1], 0.5) == 499
    with pytest.raises(ValueError, match="need at least 1000"):
        percentile(values[:999], 0.99)
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_percentile_rank_is_exact_where_floats_round_up():
    # 0.07 * 100 is 7.000000000000001 in floating point; the rank is 7.
    assert percentile(list(range(100)), 0.07) == 6


def test_block_medians_cut_blocks_that_each_support_p99():
    # 3000 back-to-back ops of 1 ms, 2 events each, with one stalled
    # stretch in the middle block: the median over blocks ignores it.
    ops = [(i * 0.001, 0.001, 2) for i in range(3000)]
    for i in range(1500, 1520):
        ops[i] = (ops[i][0], 0.05, 2)
    ops = with_slots(ops, 3.0)
    assert ops[0][3] == pytest.approx(0.001) and ops[-1][3] == pytest.approx(0.001)
    stats = block_medians(ops)
    assert (stats["blocks"], stats["samples"]) == (3, 3000)
    assert stats["rate"] == pytest.approx(2000.0)
    assert stats["p50"] == stats["tail"] == 0.001
    assert block_medians(ops[1000:2000])["tail"] == 0.05
    # Two concurrent callers share the wall time their slots cover.
    assert block_medians(ops, callers=2)["rate"] == pytest.approx(4000.0)
    with pytest.raises(ValueError, match="need at least 1000"):
        block_medians(ops[:999])


def _host(samples):
    """A :class:`HostSpeed` with ``(time, slowdown)`` probes."""
    host = HostSpeed()
    for at, slow in samples:
        host.times.append(at)
        host.seconds.append(slow * PROBE_REFERENCE_S)
    return host


def test_host_slowdown_is_the_median_of_the_probes_around_an_interval():
    host = _host([(0.0, 1.0), (1.0, 2.0), (2.0, 2.0), (3.0, 1.0), (4.0, 1.0)])
    # Probes inside [1.5, 2.5] and the nearest one on each side.
    assert host.slowdown(1.5, 2.5) == pytest.approx(2.0)
    assert host.slowdown(2.5, 2.6) == pytest.approx(1.5)  # 2.0 and 1.0
    assert host.slowdown(-1.0, -0.5) == pytest.approx(1.0)  # before any
    assert host.slowdown(9.0, 9.5) == pytest.approx(1.0)  # after all
    assert host.overall() == pytest.approx(1.0)
    assert host.setup_s([(0.4, 1.5, 2.5), (0.1, 3.5, 3.6)]) == pytest.approx(0.15)
    with pytest.raises(ValueError, match="no host-speed probe"):
        HostSpeed().slowdown(0.0, 1.0)
    live = HostSpeed()
    live.sample(2)
    assert len(live.seconds) == 2 and live.times[0] <= live.times[1]
    assert 0.0 < probe() < 1.0


def test_block_medians_divide_each_block_by_the_host_slowdown():
    # 2000 ops of 1 ms, the second block run on a host twice as slow:
    # normalised, both blocks read as 1 ms at the reference speed.
    ops = [(i * 0.001, 0.001 * (2 if i >= 1000 else 1), 1) for i in range(2000)]
    ops = [(i * 0.001, seconds, events, seconds) for i, (_, seconds, events) in
           enumerate(ops)]  # fmt: skip
    host = _host([(0.0, 1.0), (0.5, 1.0), (1.0, 1.0), (1.5, 2.0), (2.0, 2.0),
                  (2.5, 2.0)])  # fmt: skip
    stats = block_medians(ops, host=host)
    assert stats["p50"] == pytest.approx(0.001) == stats["tail"]
    assert stats["rate"] == pytest.approx(1000.0)
    assert stats["slowdown"] == pytest.approx(1.5)  # median of 1.0 and 2.0


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    root = tracer.add("phase.timed", 0.0, 0.0)
    tracer.add("fleet.run", 1.0, 3.0, root)
    tracer.add("fleet.run", 2.0, 5.0, root)  # overlaps the first child
    tracer.add("obs.scrape", 8.0, 12.0, root)  # clipped at the root's end
    tracer.close(root, 10.0)
    times = self_times(tracer.spans)
    assert times["phase.timed"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert times["fleet.run"] == pytest.approx(5.0)
    assert times["obs.scrape"] == pytest.approx(4.0)
    assert layer_self_times(tracer.spans) == pytest.approx(
        {"phase": 4.0, "fleet": 5.0, "obs": 4.0}
    )


def test_nested_spans_charge_each_level_its_own_time():
    spans = [
        ("phase.timed", 0.0, 10.0, -1, -1),
        ("gateway.deliver", 0.0, 6.0, 0, 1),
        ("mp.run", 1.0, 4.0, 1, 1),
    ]
    assert self_times(spans) == pytest.approx(
        {"phase.timed": 4.0, "gateway.deliver": 3.0, "mp.run": 3.0}
    )


SCRAPE = """\
# HELP gateway_requests_total HTTP requests handled
# TYPE gateway_requests_total counter
gateway_requests_total 120
# TYPE gateway_request_seconds histogram
gateway_request_seconds_bucket{le="0.001"} 100
gateway_request_seconds_bucket{le="+Inf"} 120
gateway_request_seconds_sum 0.06
gateway_request_seconds_count 120
"""


def test_prometheus_sum_and_count_give_the_mean_between_scrapes():
    before = prom_samples(SCRAPE)
    assert before["gateway_requests_total"] == 120
    assert before["gateway_request_seconds_bucket"] == 220  # labels summed
    after = prom_samples(
        SCRAPE.replace("_sum 0.06", "_sum 0.16").replace("_count 120", "_count 170")
    )
    assert prom_mean(before, after, "gateway_request_seconds") == pytest.approx(
        0.1 / 50
    )
    assert prom_mean(before, before, "gateway_request_seconds") == 0.0
    assert prom_mean({}, after, "missing_seconds") == 0.0


def test_vmhwm_is_read_from_process_status():
    status = "Name:\tpython\nVmPeak:\t 9000 kB\nVmHWM:\t 2048 kB\nVmRSS:\t 1024 kB\n"
    assert vmhwm_kb(status) == 2048
    with pytest.raises(ValueError):
        vmhwm_kb("Name:\tpython\n")
    with pytest.raises(ValueError):
        vmhwm_kb("VmHWM:\t 2 MB\n")
    assert peak_rss_mb([os.getpid()]) > 1.0


def test_reset_lowers_the_peak_to_the_current_resident_set():
    block = bytearray(32 << 20)  # resident once touched
    block[:: 1 << 12] = b"\1" * len(range(0, len(block), 1 << 12))
    del block
    peak = peak_rss_mb([os.getpid()])
    if not reset_peak_rss():
        pytest.skip("kernel refuses /proc/self/clear_refs")
    assert peak_rss_mb([os.getpid()]) < peak - 16


def test_process_cpu_time_is_utime_plus_stime():
    stat = "42 (a (b) c) S 1 42 42 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 1 0\n"
    assert process_cpu_s(stat, 100) == pytest.approx(3.0)
    assert cpu_seconds([os.getpid()]) > 0.0


def test_steal_is_the_eighth_cpu_field():
    stat = "cpu  100 5 20 800 10 1 2 40 7 0\ncpu0 50 2 10 400 5 0 1 20 3 0\n"
    assert cpu_ticks(stat) == (40, 978)
    assert steal_share((40, 978), (60, 1178)) == pytest.approx(0.1)
    assert steal_share((40, 978), (40, 978)) == 0.0


def test_closed_pool_returns_every_session_to_its_start():
    from repro.models.commit import CommitModel
    from repro.serve import WorkloadSpec, generate_workload

    machine = CommitModel(4).generate_state_machine()
    events = generate_workload(machine, WorkloadSpec(instances=50, events=700))
    batches = closed_pool(machine, events, 64)
    pool = [event for batch in batches for event in batch]
    assert pool[: len(events)] == events
    assert all(len(batch) == 64 for batch in batches[:-1])
    reference = Reference(machine, auto_recycle=True)
    for key, message in pool:
        reference.apply(key, message)
    start = machine.start_state.name
    assert all(reference.trace(key) == (start, ()) for key, _ in pool)
