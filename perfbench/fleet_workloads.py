"""The ``lib_batch`` workload: the in-process fleet, string batches.

One closed loop from the benchmark process: ``run()`` one 4096-event
string batch, then read the states of :data:`READ_KEYS` sessions drawn
at random for that batch, then the next batch.  The inputs are
``generate_workload``'s stream, closed by :func:`benchkit.closed_pool`
so that the loop can cycle through it for as long as the run lasts and
still be checked exactly.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time
from array import array
from dataclasses import dataclass
from itertools import chain

from benchkit import (
    INSTANCES,
    MIN_OPS,
    WARMUP_S,
    HostSpeed,
    Reference,
    Result,
    Tracer,
    closed_pool,
    e2e_metrics,
    machine_ticks,
    peak_rss_mb,
    reset_peak_rss,
    self_time_metrics,
    steal_share,
)

BATCH = 4096
#: Keys one read operation queries with ``state_name``.
READ_KEYS = 32
REPLICATION_FACTOR = 4
SCENARIO = "uniform"
POOL_EVENTS = 1 << 18
#: Set-ups before each stretch of the timed phase; ``setup_s`` is the
#: median of all of them.  One takes about 35 ms.
SETUP_REPS = 4
#: Stretches the timed phase is cut into.
STRETCHES = 14
#: Seconds between host-speed probes in the closed loop.
PROBE_EVERY_S = 0.1


class Samples:
    """``(start, seconds, events, slot)`` per operation of one kind, kept
    in flat arrays so that the samples add little to the measured RSS."""

    def __init__(self):
        self.starts = array("d")
        self.seconds = array("d")
        self.events = array("q")
        self.slots = array("d")

    def add(self, start: float, seconds: float, events: int, slot: float) -> None:
        self.starts.append(start)
        self.seconds.append(seconds)
        self.events.append(events)
        self.slots.append(slot)

    def ops(self) -> list:
        """``(start, seconds, events, slot)`` tuples, as
        :func:`benchkit.block_medians` takes them."""
        return list(zip(self.starts, self.seconds, self.events, self.slots))


@dataclass
class Drive:
    """One timed closed-loop phase."""

    ops: int
    wall: float
    cpu: float
    writes: Samples  # per run() call
    reads: Samples  # per read of READ_KEYS states
    end: float
    wrong_reads: int  # reads that differed from the reference
    failed: int
    events: int = 0
    fired: int = 0
    recycled: int = 0
    dropped: int = 0
    steal: float = 0.0  # share of the machine's CPU time stolen meanwhile


def new_machine():
    from repro.models.commit import CommitModel

    return CommitModel(REPLICATION_FACTOR).generate_state_machine(engine="eager")


def setup_fleet(tracer: Tracer | None):
    """Generate the machine, build the fleet, spawn the population.

    Returns ``(fleet, machine, keys, (generate_s, build_s, spawn_s, start,
    end))``.
    """
    from repro.serve import make_fleet

    clock = time.perf_counter
    t0 = clock()
    machine = new_machine()
    t1 = clock()
    fleet = make_fleet(machine, auto_recycle=True)
    t2 = clock()
    keys = fleet.spawn_many(INSTANCES)
    t3 = clock()
    if tracer is not None:
        root = tracer.add("phase.setup", t0, t3)
        tracer.add("core.generate", t0, t1, root)
        tracer.add("fleet.make_fleet", t1, t2, root)
        tracer.add("store.spawn", t2, t3, root)
    return fleet, machine, keys, (t1 - t0, t2 - t1, t3 - t2, t0, t3)


def repeated_setup(
    tracer: Tracer | None, timings: list, host: HostSpeed, keep: bool = True
):
    """Set up :data:`SETUP_REPS` times, each from a collected heap and
    after a host-speed probe.

    Appends one ``(generate_s, build_s, spawn_s, start, end)`` row per
    repetition to ``timings``.  Returns ``(fleet, machine, keys)`` of the
    last set-up, or closes it too unless ``keep``.
    """
    for rep in range(SETUP_REPS):
        gc.collect()
        host.sample()
        fleet, machine, keys, timing = setup_fleet(tracer)
        timings.append(timing)
        if rep < SETUP_REPS - 1 or not keep:
            fleet.close()
    return fleet, machine, keys


def make_pool(machine, seed: int) -> list[list]:
    from repro.serve import WorkloadSpec, generate_workload

    events = generate_workload(
        machine,
        WorkloadSpec(
            scenario=SCENARIO, instances=INSTANCES, events=POOL_EVENTS, seed=seed
        ),
    )
    return closed_pool(machine, events, BATCH)


def drive(
    fleet, oracle, seconds, host, tracer=None, first_op=0, min_ops=MIN_OPS
):
    """The closed loop: ``run(batch)``, then ``state_name`` of the
    batch's :data:`READ_KEYS` read keys.

    Runs for ``seconds`` and at least ``min_ops`` operations, starting at
    pool position ``first_op`` (where a previous phase on the same fleet
    stopped), and probes the host's speed every :data:`PROBE_EVERY_S`
    between operations.  An operation's slot is its write and its read;
    the loop's own bookkeeping and the probes are not counted.  Each read
    is compared with ``oracle``'s at once, so that no result is kept.
    """
    from repro.core.errors import DeploymentError

    clock = time.perf_counter
    batches, read_keys, expected = oracle.batches, oracle.read_keys, oracle.reads
    count = len(batches)
    writes, reads = Samples(), Samples()
    wrong_reads = 0
    failed = 0
    ops = 0
    position = first_op
    before = fleet.metrics.as_dict()
    ticks = machine_ticks()
    cpu0 = time.process_time()
    host.sample()
    start = clock()
    deadline = start + seconds
    cap = start + 3 * seconds + 30
    next_probe = start + PROBE_EVERY_S
    root = tracer.add("phase.timed", start, start) if tracer else -1
    while True:
        batch = batches[position % count]
        t0 = clock()
        try:
            fleet.run(batch)
        except DeploymentError:
            failed += 1
        t1 = clock()
        try:
            state = tuple(map(fleet.state_name, read_keys[position % count]))
        except DeploymentError:
            state = None
            failed += 1
        t2 = clock()
        writes.add(t0, t1 - t0, len(batch), t2 - t0)
        reads.add(t1, t2 - t1, READ_KEYS, t2 - t0)
        if state != expected[position % count]:
            wrong_reads += 1
        if tracer is not None:
            tracer.add("fleet.run", t0, t1, root, ops)
            tracer.add("fleet.state_name", t1, t2, root, ops)
        ops += 1
        position += 1
        if (t2 >= deadline and ops >= min_ops) or t2 >= cap:
            break
        if t2 >= next_probe:
            host.sample()
            next_probe += PROBE_EVERY_S
            if tracer is not None:
                tracer.add("loadgen.probe", t2, clock(), root)
    host.sample()
    end = clock()
    cpu = time.process_time() - cpu0
    steal = steal_share(ticks, machine_ticks())
    if tracer is not None:
        tracer.close(root, end)
    after = fleet.metrics.as_dict()
    result = Drive(ops, end - start, cpu, writes, reads, end, wrong_reads, failed)
    result.events = after["events_dispatched"] - before["events_dispatched"]
    result.fired = after["transitions_fired"] - before["transitions_fired"]
    result.recycled = after["instances_recycled"] - before["instances_recycled"]
    result.dropped = after["events_dropped"] - before["events_dropped"]
    result.steal = steal
    return result


class Oracle:
    """One reference pass over the pool: per-batch prefix counts, the keys
    read after each batch (:data:`READ_KEYS` of the pool's keys, drawn
    from ``seed``) and the states those reads must return."""

    def __init__(self, machine, batches, seed: int):
        reference = Reference(machine, auto_recycle=True)
        self.batches = batches
        keys = sorted({key for batch in batches for key, _ in batch})
        rng = random.Random(seed)
        self.read_keys = [tuple(rng.sample(keys, READ_KEYS)) for _ in batches]
        self.events = [0]
        self.fired = [0]
        self.recycled = [0]
        self.reads = []
        for batch, keys in zip(batches, self.read_keys):
            fired = recycled = 0
            for key, message in batch:
                did_fire, did_recycle = reference.apply(key, message)
                fired += did_fire
                recycled += did_recycle
            self.events.append(self.events[-1] + len(batch))
            self.fired.append(self.fired[-1] + fired)
            self.recycled.append(self.recycled[-1] + recycled)
            self.reads.append(tuple(map(reference.state, keys)))

    def check(self, fleet, keys, runs: list[Drive], label: str) -> list[str]:
        """Mismatches between one fleet, driven by ``runs`` in turn from
        its spawn state, and the reference."""
        from repro.serve import diff_against_standalone

        count = len(self.batches)
        ops = sum(run.ops for run in runs)
        passes, rest = divmod(ops, count)
        problems = []
        expected = {
            "events": passes * self.events[-1] + self.events[rest],
            "fired": passes * self.fired[-1] + self.fired[rest],
            "recycled": passes * self.recycled[-1] + self.recycled[rest],
        }
        for name, value in expected.items():
            actual = sum(getattr(run, name) for run in runs)
            if actual != value:
                problems.append(f"{label}: {name} {actual} != reference {value}")
        dropped = sum(run.dropped for run in runs)
        if dropped:
            problems.append(f"{label}: {dropped} events dropped")
        wrong = sum(run.wrong_reads for run in runs)
        if wrong:
            problems.append(f"{label}: {wrong}/{ops} reads differ")
        # Every whole pass returns each session to its spawn state, so the
        # population now equals a standalone replay of the last part pass.
        diff = diff_against_standalone(
            fleet, keys, chain.from_iterable(self.batches[:rest])
        )
        if diff:
            problems.append(f"{label}: {len(diff)} traces differ, e.g. {diff[0]}")
        return problems


def _mean_op(run: Drive) -> float:
    return (sum(run.writes.seconds) + sum(run.reads.seconds)) / run.ops


def warm_drive(fleet, oracle, seconds, host, **options) -> list[Drive]:
    """A :data:`WARMUP_S` warm-up phase, then the timed one.

    Returns both, in order, for :meth:`Oracle.check`; only the second is
    measured.  The warm-up lets lazy set-up and first-touch page faults
    finish before timing starts.
    """
    warm = drive(fleet, oracle, WARMUP_S, host, min_ops=0)
    return [warm, drive(fleet, oracle, seconds, host, first_op=warm.ops, **options)]


def prepare(seed: int):
    """The inputs and their reference, built before any fleet exists:
    ``(batches, oracle)``."""
    machine = new_machine()
    batches = make_pool(machine, seed)
    return batches, Oracle(machine, batches, seed)


def run_workload(seed: int, seconds: float, trace: bool) -> Result:
    """One run of ``lib_batch``.

    The timed phase is cut into :data:`STRETCHES` stretches with
    :data:`SETUP_REPS` set-ups before each, so that ``setup_s`` samples
    the host's speed over the whole run, as the other metrics do.  The
    fleet under load is the last one of the first set-ups.
    """
    if trace:
        return _traced(seed, seconds)
    batches, oracle = prepare(seed)
    host = HostSpeed()
    # Count only the fleet's memory: the peak resident set from here on,
    # over what the inputs and the probe's data already hold.
    gc.collect()
    reset = reset_peak_rss()
    base_mb = peak_rss_mb([os.getpid()])
    timings: list = []
    fleet, machine, keys = repeated_setup(None, timings, host)
    try:
        runs = [drive(fleet, oracle, WARMUP_S, host, min_ops=0)]
        for stretch in range(STRETCHES):
            if stretch:
                repeated_setup(None, timings, host, keep=False)
            runs.append(
                drive(
                    fleet,
                    oracle,
                    seconds / STRETCHES,
                    host,
                    first_op=sum(run.ops for run in runs),
                    min_ops=-(-MIN_OPS // STRETCHES),
                )
            )
            if not stretch:
                # The fleet's memory levels off within its first pass of
                # the pool; later set-ups would add a second fleet.
                rss = peak_rss_mb([os.getpid()]) - (base_mb if reset else 0.0)
        problems = oracle.check(fleet, keys, runs, "lib_batch")
    finally:
        fleet.close()
    timed = runs[1:]
    ops = sum(run.ops for run in timed)
    failed = sum(run.failed for run in timed)
    setups = [(sum(t[:3]), t[3], t[4]) for t in timings]
    metrics, samples = e2e_metrics(
        [op for run in timed for op in run.writes.ops()],
        [op for run in timed for op in run.reads.ops()],
        failed,
        2 * ops,
        host.setup_s(setups),
        rss,
        host,
    )
    result = Result(
        metrics=metrics, attempted=2 * ops, failed=failed, mismatches=problems
    )
    result.provenance = {
        "samples": samples,
        "setup_reps": len(timings),
        "setup_s_raw": statistics.median(t[0] for t in setups),
        "host_slowdown": host.overall(),
        "host_probes": len(host.seconds),
        "pool_batches": len(batches),
        "passes": sum(run.ops for run in runs) / len(batches),
        "peak_rss": "growth from before set-up" if reset else "whole process",
        "steal_ratio": sum(run.steal * run.wall for run in timed)
        / sum(run.wall for run in timed),
    }
    return result


def _traced(seed: int, seconds: float) -> Result:
    """Per-layer run: an untraced phase, a traced one, and layer probes.

    Phase A drives the default fleet without spans; phase B drives a
    fresh fleet with spans.  Their mean operation time gives the tracing
    overhead.  Then every dispatch mode is timed on the same batches.
    """
    tracer = Tracer()
    host = HostSpeed()
    batches, oracle = prepare(seed)
    problems: list[str] = []
    timings: list = []
    fleet, machine, keys = repeated_setup(tracer, timings, host)
    try:
        runs = warm_drive(fleet, oracle, seconds / 2, host)
        problems += oracle.check(fleet, keys, runs, "untraced")
        phase_a = runs[-1]
    finally:
        fleet.close()
    fleet, _, keys, _ = setup_fleet(tracer)
    try:
        runs = warm_drive(fleet, oracle, seconds / 2, host, tracer=tracer)
        problems += oracle.check(fleet, keys, runs, "traced")
        phase_b = runs[-1]
    finally:
        fleet.close()
    metrics = {
        "fleet.run_ns_per_event": (
            sum(phase_b.writes.seconds) / phase_b.events * 1e9,
            "ns",
        ),
        "fleet.fired_ratio": (phase_b.fired / phase_b.events, "ratio"),
        "fleet.recycled": (phase_b.recycled, "count"),
    }
    rows, skipped, dispatch_problems = dispatch_rows(machine, oracle, tracer)
    metrics.update(rows)
    problems += dispatch_problems
    metrics["core.generate_s"] = (statistics.median(t[0] for t in timings), "s")
    metrics["store.spawn_s"] = (statistics.median(t[2] for t in timings), "s")
    metrics["loadgen.client_cpu_ratio"] = (phase_b.cpu / phase_b.wall, "ratio")
    metrics["loadgen.ops"] = (2 * phase_b.ops, "count")
    metrics["trace.overhead_ratio"] = (_mean_op(phase_b) / _mean_op(phase_a), "ratio")
    metrics.update(self_time_metrics(tracer))
    return Result(
        metrics=metrics,
        attempted=2 * phase_b.ops,
        failed=phase_b.failed,
        mismatches=problems,
        provenance={"dispatch_skipped": skipped, "steal_ratio": phase_b.steal},
        tracer=tracer,
    )


#: Modes that accept ``run(flat)``; the others dispatch strings only.
ENCODED_MODES = ("encoded", "grouped", "vector")
#: Passes per dispatch row; the fastest one is reported.
DISPATCH_PASSES = 3


def dispatch_rows(machine, oracle: Oracle, tracer: Tracer):
    """Kernel-only rows: every dispatch mode on ``lib_batch``'s batches.

    Per mode, :data:`DISPATCH_PASSES` passes of string batches
    (``run(events)``), of interning (``encode_flat``) and, for the encoded
    modes, of ``run(flat)``; each row is its fastest pass, the one least
    disturbed by the rest of the machine.  Each pass is a whole pool, so
    the fleet is back at its spawn state after it — checked, with the
    passes' counters.  Returns ``(metrics, skipped_modes, problems)``.
    """
    from repro.serve import DISPATCH_MODES, HAS_NUMPY, make_fleet

    clock = time.perf_counter
    batches = oracle.batches
    events = oracle.events[-1]
    start_state = machine.start_state.name
    metrics: dict = {}
    skipped: dict = {}
    problems: list[str] = []
    root = tracer.add("phase.dispatch", clock(), clock())

    def fastest(name: str, work) -> None:
        best = float("inf")
        for _ in range(DISPATCH_PASSES):
            t0 = clock()
            work()
            t1 = clock()
            tracer.add(name, t0, t1, root)
            best = min(best, t1 - t0)
        metrics[f"{name}_ns_per_event"] = (best / events * 1e9, "ns")

    for mode in DISPATCH_MODES:
        if mode == "vector" and not HAS_NUMPY:
            from repro.serve import NUMPY_UNAVAILABLE_REASON

            skipped[mode] = NUMPY_UNAVAILABLE_REASON
            continue
        with make_fleet(machine, mode=mode, auto_recycle=True) as fleet:
            fleet.spawn_many(INSTANCES)
            runs = DISPATCH_PASSES
            fastest(
                f"dispatch.{mode}.events",
                lambda: [fleet.run(batch, encoding="events") for batch in batches],
            )
            flats = [fleet.encode_flat(batch) for batch in batches]
            fastest(
                f"dispatch.{mode}.intern",
                lambda: [fleet.encode_flat(batch) for batch in batches],
            )
            if mode in ENCODED_MODES:
                runs += DISPATCH_PASSES
                fastest(
                    f"dispatch.{mode}.kernel",
                    lambda: [fleet.run(flat, encoding="flat") for flat in flats],
                )
            fired = fleet.metrics.transitions_fired
            if fired != runs * oracle.fired[-1]:
                problems.append(
                    f"dispatch {mode}: {fired} fired != {runs * oracle.fired[-1]}"
                )
            if any(
                (inst.state, inst.actions) != (start_state, ())
                for inst in fleet.snapshot().instances
            ):
                problems.append(f"dispatch {mode}: sessions left open")
    tracer.close(root, clock())
    return metrics, skipped, problems
