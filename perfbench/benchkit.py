"""Measurement helpers shared by the benchmark's workloads.

Percentiles with an explicit sample-size rule and the end-to-end metric
set every workload reports, the host-speed probe every timed figure is
normalised by, in-memory spans and their self times,
Prometheus text parsing, peak RSS and CPU steal, the standalone
reference replay every correctness check compares against, and the
closed input pool the fleet workloads cycle through.

``repro`` is imported inside the functions that need it, so the unit
tests of the pure helpers run without the package on the path.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict, deque
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of quantile ``q`` in ``n`` samples (exact)."""
    return max(1, math.ceil(Fraction(str(q)) * n))


def samples_needed(q: float, min_beyond: int = 10) -> int:
    """Fewest samples for which ``q`` has ``min_beyond`` samples beyond it."""
    n = max(1, math.floor(min_beyond / (1 - Fraction(str(q)))))
    while n - _rank(q, n) < min_beyond:
        n += 1
    return n


def percentile(values, q: float, min_beyond: int = 10) -> float:
    """Nearest-rank ``q`` quantile of ``values``.

    Refuses, with :class:`ValueError`, a percentile the sample cannot
    support: fewer than ``min_beyond`` samples lie beyond its rank.
    """
    n = len(values)
    if n == 0 or n - _rank(q, n) < min_beyond:
        raise ValueError(
            f"{n} samples leave fewer than {min_beyond} beyond the "
            f"{q} quantile; need at least {samples_needed(q, min_beyond)}"
        )
    return sorted(values)[_rank(q, n) - 1]


def block_medians(
    ops, callers: int = 1, q: float = 0.99, min_beyond: int = 10, host=None
):
    """Throughput and latency of a timed phase as medians over blocks.

    ``ops`` are ``(start, seconds, events, slot)`` in start order, where
    ``slot`` is the time from the operation's start to its caller's next
    one.  They are cut into consecutive blocks of at least
    :func:`samples_needed` ``(q)`` operations; each block gives its event
    rate (events over its slots' time, shared by ``callers`` concurrent
    callers), median latency and ``q`` latency.  With a :class:`HostSpeed`
    ``host``, each block's figures are divided by the host's slowdown
    while the block ran.  The medians across blocks are returned, so
    that one disturbed stretch moves them little.
    """
    size = samples_needed(q, min_beyond)
    count = len(ops) // size
    if count == 0:
        raise ValueError(f"{len(ops)} operations, need at least {size}")
    cuts = [len(ops) * i // count for i in range(count + 1)]
    rates, p50s, tails, slowdowns = [], [], [], []
    for lo, hi in zip(cuts, cuts[1:]):
        block = ops[lo:hi]
        latencies = [op[1] for op in block]
        slow = 1.0
        if host is not None:
            slow = host.slowdown(block[0][0], max(op[0] + op[1] for op in block))
        slowdowns.append(slow)
        rates.append(
            sum(op[2] for op in block) * callers / sum(op[3] for op in block) * slow
        )
        p50s.append(percentile(latencies, 0.5) / slow)
        tails.append(percentile(latencies, q, min_beyond) / slow)
    return {
        "rate": statistics.median(rates),
        "p50": statistics.median(p50s),
        "tail": statistics.median(tails),
        "blocks": count,
        "samples": len(ops),
        "slowdown": statistics.median(slowdowns),
    }


def with_slots(ops, end: float) -> list:
    """One caller's ``(start, seconds, events)`` operations with their slot:
    the time to the caller's next start (to ``end`` for the last)."""
    nexts = [op[0] for op in ops[1:]] + [end]
    return [(*op, after - op[0]) for op, after in zip(ops, nexts)]


# ----------------------------------------------------------------------
# what every workload reports
# ----------------------------------------------------------------------

#: Instances every workload's fleet hosts.
INSTANCES = 10_000
#: Operations a timed phase needs so that its p99 has 10 samples beyond.
MIN_OPS = samples_needed(0.99)
#: Untimed warm-up on the same fleet before every timed phase.
WARMUP_S = 2.0
#: Span layers whose self time the traced runs report.
LAYERS = ("core", "store", "fleet", "dispatch", "gateway", "obs", "loadgen")


@dataclass
class Result:
    """What one workload run reports back to ``run.py``."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    mismatches: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)
    tracer: Tracer | None = None  # the traced run's spans


def e2e_metrics(
    writes, reads, failed, attempted, setup_s, rss_mb, host, callers=1
):
    """The end-to-end metrics of one untraced run, normalised to the
    reference host speed by ``host``, and their sample counts."""
    write = block_medians(writes, callers, host=host)
    read = block_medians(reads, callers, host=host)
    metrics = {
        "setup_s": (setup_s, "s"),
        "events_per_s": (write["rate"], "ev/s"),
        "op_p50_ms": (write["p50"] * 1e3, "ms"),
        "op_p99_ms": (write["tail"] * 1e3, "ms"),
        "read_p50_ms": (read["p50"] * 1e3, "ms"),
        "read_p99_ms": (read["tail"] * 1e3, "ms"),
        "success_ratio": (1 - failed / attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    samples = {
        name: {
            "samples": stats["samples"],
            "blocks": stats["blocks"],
            "slowdown": stats["slowdown"],
        }
        for name, stats in (("op", write), ("read", read))
    }
    return metrics, samples


def busy(ops) -> float:
    """Summed latency of ``(start, seconds, ...)`` operations."""
    return sum(op[1] for op in ops)


def self_time_metrics(tracer: Tracer) -> dict:
    """Self time per layer, and the residual no layer span covers."""
    layers = layer_self_times(tracer.spans)
    metrics = {f"self.{layer}_s": (layers.get(layer, 0.0), "s") for layer in LAYERS}
    phases = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    residual = layers.get("phase", 0.0)
    metrics["trace.residual_s"] = (residual, "s")
    metrics["trace.residual_ratio"] = (residual / phases if phases else 0.0, "ratio")
    return metrics


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------

#: CPU seconds :func:`probe` takes on the reference host speed (a 2-vCPU
#: KVM guest on an Intel Xeon, CPython 3.11, at its fastest).  Timed
#: figures are reported as if the host ran at that speed throughout.
PROBE_REFERENCE_S = 0.002


@functools.lru_cache(maxsize=None)
def _probe_data():
    """The probe's fixed inputs, built once per process (about 25 MiB)."""
    rng = random.Random(0)
    hot = {f"session-{i:05d}": (0, "") for i in range(2048)}
    large = [f"session-{i:06d}" for i in range(100_000)]
    table = {key: (i, key) for i, key in enumerate(large)}
    lookups = tuple(large[rng.randrange(len(large))] for _ in range(2000))
    # Filled as full as the probe ever leaves them, and every dict made
    # here, so that probing never raises the process's peak resident set.
    logs = [[(i, "") for _ in range(9)] for i in range(10_000)]
    appends = tuple(rng.randrange(len(logs)) for _ in range(2500))
    return hot, table, lookups, logs, appends


def probe() -> float:
    """CPU seconds a fixed piece of pure-Python work takes right now.

    The work mixes what the interpreter does in the system under test,
    in three parts whose speeds the host moves differently: string-keyed
    dict reads and writes within the cache, the same in a dict far
    larger than the cache, and appends to and clears of many small lists.
    It touches nothing of the system under test.  It is timed in this
    thread's CPU time, so that another of the machine's processes
    sharing the CPU for a moment does not count as a slower host.
    """
    hot, table, lookups, logs, appends = _probe_data()
    clock = time.thread_time
    start = clock()
    for round_ in range(2):
        for key in hot:
            hot[key] = (hot[key][0] + round_, key)
    for key in lookups:
        table[key] = (table[key][0] + 1, key)
    for index in appends:
        log = logs[index]
        log.append((index, key))
        if len(log) > 8:
            log.clear()
    return clock() - start


class HostSpeed:
    """:func:`probe` times taken through a run, and the slowdown they show.

    A shared host runs the same Python work up to twice as slow for
    seconds to minutes at a time, with no steal time to show for it.
    The workloads probe between operations (never during one) and divide
    each timed figure by the host's slowdown around it: the median probe
    time near it over :data:`PROBE_REFERENCE_S`.
    """

    def __init__(self):
        self.times = array("d")  # when each probe ended
        self.seconds = array("d")
        _probe_data()  # built now, not inside a measured stretch

    def sample(self, reps: int = 1) -> None:
        for _ in range(reps):
            seconds = probe()
            self.times.append(time.perf_counter())
            self.seconds.append(seconds)

    def slowdown(self, lo: float, hi: float) -> float:
        """Slowdown over ``[lo, hi]``: the median of the probes taken in
        it and of the nearest one on each side."""
        if not self.seconds:
            raise ValueError("no host-speed probe was taken")
        first = max(0, bisect_left(self.times, lo) - 1)
        last = min(len(self.times), bisect_right(self.times, hi) + 1)
        return statistics.median(self.seconds[first:last]) / PROBE_REFERENCE_S

    def overall(self) -> float:
        """Median slowdown over the whole run."""
        return statistics.median(self.seconds) / PROBE_REFERENCE_S

    def setup_s(self, setups) -> float:
        """Median of ``(seconds, start, end)`` set-ups, each divided by the
        slowdown while it ran."""
        return statistics.median(
            seconds / self.slowdown(start, end) for seconds, start, end in setups
        )


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


class Tracer:
    """In-memory spans ``(name, start, end, parent, op)``.

    ``parent`` is the index of the span that caused this one (``-1`` for
    a root) and ``op`` the operation id spans of one request share.
    Spans are kept in a list and written out once, at the end of a run.
    """

    def __init__(self):
        self.spans: list[tuple] = []

    def add(self, name: str, start: float, end: float, parent=-1, op=-1) -> int:
        """Record a finished span; returns its index."""
        self.spans.append((name, start, end, parent, op))
        return len(self.spans) - 1

    def close(self, index: int, end: float) -> None:
        """Set the end of a span recorded open (``add(name, start, start)``)."""
        name, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, end, parent, op)

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus what its children cover."""
    children: dict[int, list] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        totals[name] += (end - start) - _covered(children.get(index, ()), start, end)
    return dict(totals)


def layer_self_times(spans) -> dict[str, float]:
    """:func:`self_times` summed by layer, the span name's first part."""
    layers: dict[str, float] = defaultdict(float)
    for name, seconds in self_times(spans).items():
        layers[name.split(".", 1)[0]] += seconds
    return dict(layers)


# ----------------------------------------------------------------------
# Prometheus text and /proc
# ----------------------------------------------------------------------


def prom_samples(text: str) -> dict[str, float]:
    """Sample values of a Prometheus exposition, summed per metric name.

    Labels are dropped, so a labelled family sums over its series.
    """
    samples: dict[str, float] = defaultdict(float)
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        samples[series.split("{", 1)[0]] += float(value)
    return dict(samples)


def prom_mean(before: dict, after: dict, base: str) -> float:
    """Mean of a histogram or summary between two scrapes, from its
    ``_sum`` and ``_count`` samples (0.0 when nothing was observed)."""
    count = after.get(f"{base}_count", 0.0) - before.get(f"{base}_count", 0.0)
    total = after.get(f"{base}_sum", 0.0) - before.get(f"{base}_sum", 0.0)
    return total / count if count else 0.0


def vmhwm_kb(status_text: str) -> int:
    """Peak resident set size (``VmHWM``) from a ``/proc/<pid>/status``."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            value, unit = line.split()[1:3]
            if unit != "kB":
                raise ValueError(f"unexpected VmHWM unit {unit!r}")
            return int(value)
    raise ValueError("no VmHWM line in process status")


def process_cpu_s(stat_text: str, ticks_per_s: int) -> float:
    """User plus system CPU time of a process, from its ``/proc/<pid>/stat``."""
    # The command name may hold spaces; the fields after it start with the
    # state (field 3), so utime and stime (fields 14, 15) are at 11 and 12.
    fields = stat_text.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / ticks_per_s


def cpu_seconds(pids) -> float:
    """Summed CPU time of the processes ``pids`` so far."""
    ticks = os.sysconf("SC_CLK_TCK")
    return sum(
        process_cpu_s(Path(f"/proc/{pid}/stat").read_text(), ticks) for pid in pids
    )


def cpu_ticks(stat_text: str) -> tuple[int, int]:
    """``(steal, total)`` ticks of the aggregate ``cpu`` line of ``/proc/stat``."""
    fields = [int(v) for v in stat_text.splitlines()[0].split()[1:]]
    # user nice system idle iowait irq softirq steal; guest time is
    # already counted in user and nice.
    return fields[7], sum(fields[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the machine's CPU time the hypervisor took between two
    :func:`cpu_ticks` readings (recorded with each run, not filtered on)."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def machine_ticks() -> tuple[int, int]:
    return cpu_ticks(Path("/proc/stat").read_text())


def reset_peak_rss() -> bool:
    """Lower this process's ``VmHWM`` to its current RSS.

    Writes ``5`` to ``/proc/self/clear_refs`` (Linux 4.0 and later), so
    that a later :func:`peak_rss_mb` counts only what was resident from
    here on.  Returns ``False`` where the kernel refuses.
    """
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        return False
    return True


def peak_rss_mb(pids) -> float:
    """Summed peak RSS of the processes ``pids``, in MiB."""
    return sum(
        vmhwm_kb(Path(f"/proc/{pid}/status").read_text()) for pid in pids
    ) / 1024


# ----------------------------------------------------------------------
# reference replay and the closed input pool
# ----------------------------------------------------------------------


class Reference:
    """The standalone oracle: one ``MachineInterpreter`` per session key.

    The same replay ``diff_against_standalone`` performs, driven one
    event at a time so a check can read any key's state mid-stream.
    """

    def __init__(self, machine, auto_recycle: bool):
        from repro.runtime.interp import MachineInterpreter

        self._new = lambda: MachineInterpreter(machine, validate=False)
        self._recycle = auto_recycle
        self._runs: dict = {}
        self.start = machine.start_state.name

    def _run(self, key: str):
        run = self._runs.get(key)
        if run is None:
            run = self._runs[key] = self._new()
        return run

    def apply(self, key: str, message: str) -> tuple[bool, bool]:
        """Feed one event; returns ``(fired, recycled)``."""
        run = self._run(key)
        fired = run.receive(message)
        if fired and self._recycle and run.is_finished():
            run.reset()
            return True, True
        return fired, False

    def state(self, key: str) -> str:
        return self._run(key).get_state()

    def finished(self, key: str) -> bool:
        return self._run(key).is_finished()

    def trace(self, key: str) -> tuple[str, tuple]:
        run = self._run(key)
        return run.get_state(), tuple(run.sent)


def _completion(machine, state_name: str) -> list[str]:
    """Shortest message path from ``state_name`` into a final state."""
    previous = {state_name: None}
    queue = deque([state_name])
    while queue:
        name = queue.popleft()
        state = machine.get_state(name)
        if state.final and name != state_name:
            path = []
            while previous[name] is not None:
                name, message = previous[name]
                path.append(message)
            return path[::-1]
        for message in machine.messages:
            transition = state.get_transition(message)
            if transition is not None and transition.target_name not in previous:
                previous[transition.target_name] = (name, message)
                queue.append(transition.target_name)
    raise ValueError(f"no final state reachable from {state_name!r}")


def closed_pool(machine, events, batch_size: int) -> list[list]:
    """``events`` completed so that every session ends at its start state.

    Each session the stream leaves mid-protocol gets the shortest
    message path into a final state appended (interleaved across
    sessions, per-session order kept).  With ``auto_recycle`` the fleet
    then restarts every session, so each pass of the pool meets the
    population exactly as the first pass did: passes are identical, and
    a fleet's state after any whole number of passes is its spawn state.
    The oracle checks that claim before the pool is returned.
    """
    reference = Reference(machine, auto_recycle=True)
    for key, message in events:
        reference.apply(key, message)
    paths = {}
    cache: dict[str, list[str]] = {}
    for key in sorted({key for key, _ in events}):
        if reference.trace(key) != (reference.start, ()):
            state = reference.state(key)
            if state not in cache:
                cache[state] = _completion(machine, state)
            paths[key] = cache[state]
    tail = []
    for step in range(max((len(p) for p in paths.values()), default=0)):
        tail.extend(
            (key, path[step]) for key, path in paths.items() if step < len(path)
        )
    for key, message in tail:
        reference.apply(key, message)
    open_keys = [k for k in paths if reference.trace(k) != (reference.start, ())]
    if open_keys:
        raise ValueError(f"{len(open_keys)} sessions left open by the pool")
    pool = list(events) + tail
    return [pool[i : i + batch_size] for i in range(0, len(pool), batch_size)]
