"""The ``gateway_rw`` workload: the served fleet over HTTP.

The production configuration runs as a subprocess,
``repro-fsm serve --workers 2 --journal --instances 10000`` (telemetry
on by default).  Two keep-alive connections from the benchmark process
each loop, closed, over single-event ``POST /deliver`` writes and, after
every fourth write, a ``GET /state`` of the key just written.  Each
connection owns a disjoint half of the keys; the first one also scrapes
``GET /metrics`` once a second.

The timed phase is a series of identical stretches: each restores the
spawn-time snapshot over ``POST /restore`` and replays the same first
:data:`STRETCH_DELIVERIES` events of each connection's share, so every
stretch does the same work whatever the host's speed.  The traced run
adds a journal-off twin server for the journal's share of throughput.
"""

from __future__ import annotations

import json
import os
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from benchkit import (
    INSTANCES,
    MIN_OPS,
    WARMUP_S,
    HostSpeed,
    Reference,
    Result,
    Tracer,
    busy,
    cpu_seconds,
    e2e_metrics,
    machine_ticks,
    peak_rss_mb,
    prom_mean,
    prom_samples,
    self_time_metrics,
    steal_share,
    with_slots,
)

CONNECTIONS = 2
WORKERS = 2
READ_EVERY = 4  # writes per read: the 4:1 mix
SCRAPE_EVERY_S = 1.0
#: Events in the traced run's stream, about four times what it delivers
#: at 3.3k deliveries per second, so that no connection wraps round its
#: share.  Timed stretches replay only the start of a shorter stream.
POOL_EVENTS = 1 << 19
STRETCH_POOL_EVENTS = 1 << 16
#: Server start-ups in the traced run; ``store.spawn_s`` is their median.
SETUP_REPS = 5
#: Deliveries per connection in each stretch of the timed phase.  Over
#: them 95% of the stream's deliveries fire a transition.
STRETCH_DELIVERIES = 8192
#: Parts of a stretch, with host-speed probes between them.
STRETCH_PARTS = 8
#: Host-speed probes at each pause between parts.
PROBES = 3
TIMEOUT_S = 30.0
HOST = "127.0.0.1"


class Connection:
    """One keep-alive HTTP/1.1 connection with blocking reads."""

    def __init__(self, port: int):
        self.sock = socket.create_connection((HOST, port), timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def request(self, raw: bytes) -> tuple[int, bytes]:
        self.sock.sendall(raw)
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("gateway closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, self.reader.read(length)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: {HOST}\r\n\r\n".encode()


def _post(path: str, payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    head = (
        f"POST {path} HTTP/1.1\r\nHost: {HOST}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class Server:
    """One ``repro-fsm serve`` subprocess, started and stopped here."""

    def __init__(
        self, repo: Path, out: Path, instances: int, tag: str, journal: bool = True
    ):
        self.port_file = out / f"gateway-{os.getpid()}-{tag}.port"
        self.port_file.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--workers", str(WORKERS), *(["--journal"] if journal else []),
            "--instances", str(instances),
            "--port", "0", "--port-file", str(self.port_file),
            "--allow-remote-shutdown",
        ]  # fmt: skip
        self.log = open(out / "gateway-server.log", "ab")
        self.process = subprocess.Popen(
            command, cwd=repo, env=env, stdout=self.log, stderr=subprocess.STDOUT
        )
        self.port = None
        self.worker_pids: list[int] = []

    def wait_healthy(self, timeout: float = 120.0) -> None:
        """Block until the port is written and ``/healthz`` answers ok."""
        deadline = time.monotonic() + timeout
        while self.port is None:
            if self.process.poll() is not None:
                raise RuntimeError("gateway exited before binding; see its log")
            if time.monotonic() > deadline:
                raise RuntimeError("gateway did not bind in time")
            try:
                self.port = int(self.port_file.read_text())
            except (FileNotFoundError, ValueError):
                time.sleep(0.002)
        conn = Connection(self.port)
        try:
            status, body = conn.request(_get("/healthz"))
        finally:
            conn.close()
        health = json.loads(body)
        if status != 200 or health["status"] != "ok":
            raise RuntimeError(f"gateway unhealthy: {status} {health}")
        self.worker_pids = [pid for pid in health.get("pids", []) if pid]

    def stop(self) -> None:
        """Shut down over HTTP, wait, and make sure no process is left."""
        try:
            if self.port is not None and self.process.poll() is None:
                conn = Connection(self.port)
                try:
                    conn.request(_post("/shutdown", {}))
                finally:
                    conn.close()
            self.process.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait(timeout=30)
        finally:
            self.log.close()
            self.port_file.unlink(missing_ok=True)
        deadline = time.monotonic() + 10
        for pid in self.worker_pids:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if _alive(pid):
                os.kill(pid, 9)


@dataclass
class Client:
    """One connection, its share of the stream, and what it observed."""

    conn_id: int
    keys: set
    events: list
    raws: list
    scrape: bool
    position: int = 0
    conn: Connection | None = None  # kept open from phase to phase
    next_scrape: float | None = None
    writes: list = field(default_factory=list)  # (start, seconds, acked)
    reads: list = field(default_factory=list)  # (start, seconds, 1)
    scrapes: list = field(default_factory=list)  # (seconds, bytes)
    acked: list = field(default_factory=list)  # (key, message, fired)
    observed: list = field(default_factory=list)  # (acked, key, state, finished)
    restores: list = field(default_factory=list)  # len(acked) at each restore
    failed: int = 0
    spans: list = field(default_factory=list)
    error: str | None = None

    def restart(self) -> None:
        """The fleet was restored to its spawn state: replay the stream
        from its start."""
        self.restores.append(len(self.acked))
        self.position = 0

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def _client_loop(client: Client, port: int, seconds, traced: bool, root, reads, limit):
    """Closed loop over one connection until the phase deadline (``None``:
    none) and until it has made ``reads`` reads, or until its stream
    position reaches ``limit``."""
    clock = time.perf_counter
    spans = client.spans
    count = len(client.events)
    metrics_raw = _get("/metrics")
    try:
        if client.conn is None:
            client.conn = Connection(port)
        conn = client.conn
        start = clock()
        deadline = start + seconds if seconds is not None else float("inf")
        cap = start + 3 * (seconds or 10) + 30
        if client.next_scrape is None:
            client.next_scrape = (
                start + SCRAPE_EVERY_S if client.scrape else float("inf")
            )
        need = len(client.reads) + reads
        while True:
            i = client.position % count
            key, message = client.events[i]
            t0 = clock()
            status, body = conn.request(client.raws[i])
            t1 = clock()
            if traced:
                spans.append(("gateway.deliver", t0, t1, root, client.position))
            if status == 200:
                client.acked.append((key, message, json.loads(body)["fired"]))
            else:
                client.failed += 1
            client.writes.append((t0, t1 - t0, int(status == 200)))
            client.position += 1
            if client.position % READ_EVERY == 0:
                t0 = clock()
                status, body = conn.request(_get(f"/state?key={key}"))
                t1 = clock()
                client.reads.append((t0, t1 - t0, 1))
                if traced:
                    spans.append(("gateway.state", t0, t1, root, client.position))
                if status == 200:
                    reply = json.loads(body)
                    client.observed.append(
                        (len(client.acked), key, reply["state"], reply["finished"])
                    )
                else:
                    client.failed += 1
            if t1 >= client.next_scrape:
                t0 = clock()
                status, body = conn.request(metrics_raw)
                t1 = clock()
                client.scrapes.append((t1 - t0, len(body)))
                if traced:
                    spans.append(("obs.scrape", t0, t1, root, client.position))
                if status != 200:
                    client.failed += 1
                client.next_scrape = max(client.next_scrape + SCRAPE_EVERY_S, t1)
            if (
                (t1 >= deadline and len(client.reads) >= need)
                or client.position == limit
                or t1 >= cap
            ):
                break
    except (OSError, ValueError, KeyError) as exc:
        # An unanswered request: counted as failed; the run goes on with
        # the other connection and the snapshot check decides the rest.
        client.failed += 1
        client.error = repr(exc)
        client.close()


@dataclass
class Phase:
    wall: float
    cpu: float
    writes: list
    reads: list
    scrapes: list
    failed: int
    acked: list  # keys of the deliveries acknowledged in the phase
    fired: int = 0  # of those, deliveries that fired a transition
    steal: float = 0.0  # share of the machine's CPU time stolen meanwhile

    @staticmethod
    def joined(phases: list[Phase]) -> Phase:
        """Consecutive phases on one server, measured as one."""
        wall = sum(phase.wall for phase in phases)
        joined = Phase(wall, sum(phase.cpu for phase in phases), [], [], [], 0, [])
        for phase in phases:
            joined.writes += phase.writes
            joined.reads += phase.reads
            joined.scrapes += phase.scrapes
            joined.failed += phase.failed
            joined.acked += phase.acked
            joined.fired += phase.fired
            joined.steal += phase.steal * phase.wall / wall
        return joined


def _run_phase(
    clients, port, seconds, tracer: Tracer | None, ops=MIN_OPS, limit=None
) -> Phase:
    """Drive every connection concurrently for one phase of at least
    ``seconds`` and ``ops`` reads, or until each connection's stream
    position reaches ``limit``."""
    marks = [
        (len(c.writes), len(c.reads), len(c.scrapes), len(c.acked), c.failed)
        for c in clients
    ]
    clock = time.perf_counter
    ticks = machine_ticks()
    cpu0 = time.process_time()
    start = clock()
    root = tracer.add("phase.timed", start, start) if tracer else -1
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(
                client, port, seconds, tracer is not None, root,
                -(-ops // CONNECTIONS), limit,
            ),  # fmt: skip
        )
        for client in clients
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=3 * (seconds or 10) + 90)
        if thread.is_alive():
            raise RuntimeError("a gateway client did not finish")
    end = clock()
    cpu = time.process_time() - cpu0
    if tracer is not None:
        tracer.close(root, end)
        for client in clients:
            tracer.spans.extend(client.spans)
            client.spans.clear()
    phase = Phase(end - start, cpu, [], [], [], 0, [])
    phase.steal = steal_share(ticks, machine_ticks())
    for client, (w, r, s, a, f) in zip(clients, marks):
        phase.writes += with_slots(client.writes[w:], end)
        phase.reads += with_slots(client.reads[r:], end)
        phase.scrapes += client.scrapes[s:]
        phase.acked += [key for key, _, _ in client.acked[a:]]
        phase.fired += sum(fired for _, _, fired in client.acked[a:])
        phase.failed += client.failed - f
    phase.writes.sort()
    phase.reads.sort()
    return phase


def _start(repo, out, traced, tracer, tag):
    """Start one server; traced runs spawn over ``/spawn`` to time it.

    Returns ``(server, setup_s, spawn_s)``.
    """
    clock = time.perf_counter
    t0 = clock()
    server = Server(repo, out, 0 if traced else INSTANCES, tag)
    try:
        server.wait_healthy()
        t1 = clock()
        spawn_s = None
        if traced:
            conn = Connection(server.port)
            try:
                status, _ = conn.request(_post("/spawn", {"count": INSTANCES}))
            finally:
                conn.close()
            if status != 200:
                raise RuntimeError(f"/spawn answered {status}")
            spawn_s = clock() - t1
    except BaseException:
        server.stop()
        raise
    t2 = clock()
    if tracer is not None:
        root = tracer.add("phase.setup", t0, t2)
        tracer.add("gateway.start", t0, t1, root)
        tracer.add("store.spawn", t1, t2, root)
    return server, t2 - t0, spawn_s


def _call(port: int, raw: bytes, via: Client | None = None) -> bytes:
    """One request, on ``via``'s connection (so that a run never holds
    more than two) or on one of its own; the body of a 200 reply."""
    if via is not None:
        if via.conn is None:
            via.conn = Connection(port)
        status, body = via.conn.request(raw)
    else:
        conn = Connection(port)
        try:
            status, body = conn.request(raw)
        finally:
            conn.close()
    if status != 200:
        raise RuntimeError(f"{raw.split(b' ', 2)[1].decode()} answered {status}")
    return body


def _scrape(port: int, via: Client) -> dict:
    return prom_samples(_call(port, _get("/metrics"), via).decode())


def _snapshot_raw(port: int) -> bytes:
    return _call(port, _get("/snapshot"))


def _snapshot(port: int) -> dict:
    return {
        inst["key"]: (inst["state"], tuple(inst["actions"]))
        for inst in json.loads(_snapshot_raw(port))["instances"]
    }


def _restore(port: int, snapshot_raw: bytes, clients) -> None:
    """Put the fleet back to ``snapshot_raw`` (its spawn state) and start
    each connection's stream over."""
    raw = (
        f"POST /restore HTTP/1.1\r\nHost: {HOST}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(snapshot_raw)}"
        "\r\n\r\n"
    ).encode() + snapshot_raw
    _call(port, raw, clients[0])
    for client in clients:
        client.restart()


def _verify(machine, clients, snapshot: dict, keys) -> list[str]:
    """Replay each connection's acknowledged stream through the oracle,
    from a fresh reference at every restore."""
    problems = []
    expected = {}
    for client in clients:
        reference = Reference(machine, auto_recycle=False)
        restores = set(client.restores)
        wrong_fired = wrong_reads = 0
        observed = iter(client.observed)
        pending = next(observed, None)
        for index, (key, message, fired) in enumerate(client.acked, 1):
            if index - 1 in restores:
                reference = Reference(machine, auto_recycle=False)
            wrong_fired += reference.apply(key, message)[0] != fired
            while pending is not None and pending[0] == index:
                _, read_key, state, finished = pending
                wrong_reads += (state, finished) != (
                    reference.state(read_key),
                    reference.finished(read_key),
                )
                pending = next(observed, None)
        if len(client.acked) in restores:
            reference = Reference(machine, auto_recycle=False)
        expected.update((key, reference.trace(key)) for key in client.keys)
        if wrong_fired:
            problems.append(f"connection {client.conn_id}: {wrong_fired} replies "
                            "disagree on whether the transition fired")
        if wrong_reads:
            problems.append(f"connection {client.conn_id}: {wrong_reads} "
                            "/state replies differ from the reference")
        if client.error:
            problems.append(f"connection {client.conn_id}: {client.error}")
    differ = [key for key in keys if snapshot.get(key) != expected.get(key)]
    if differ or len(snapshot) != len(keys):
        problems.append(
            f"/snapshot: {len(differ)} of {len(keys)} traces differ from the "
            f"reference ({len(snapshot)} instances served)"
        )
    return problems


def _clients(stream, keys) -> list[Client]:
    """Split ``stream`` by key owner into one :class:`Client` per connection.

    Each distinct ``/deliver`` request is encoded once and shared.
    """
    owner = {key: i * CONNECTIONS // INSTANCES for i, key in enumerate(keys)}
    cache: dict = {}
    clients = []
    for conn_id in range(CONNECTIONS):
        events = [event for event in stream if owner[event[0]] == conn_id]
        raws = []
        for key, message in events:
            raw = cache.get((key, message))
            if raw is None:
                raw = cache[key, message] = _post(
                    "/deliver", {"key": key, "message": message}
                )
            raws.append(raw)
        owned = {key for key, who in owner.items() if who == conn_id}
        clients.append(Client(conn_id, owned, events, raws, scrape=conn_id == 0))
    return clients


def _passes(clients) -> float:
    """The most any connection went through its share of the stream."""
    return max(client.position / len(client.events) for client in clients)


def run_workload(repo: Path, out: Path, seed: int, seconds: float, trace: bool):
    """One run of ``gateway_rw``."""
    from repro.models.commit import CommitModel
    from repro.serve import WorkloadSpec, generate_workload, session_keys

    tracer = Tracer() if trace else None
    clock = time.perf_counter
    t0 = clock()
    machine = CommitModel(4).generate_state_machine()
    t1 = clock()
    keys = session_keys(INSTANCES)
    stream = generate_workload(
        machine,
        WorkloadSpec(
            instances=INSTANCES,
            events=POOL_EVENTS if trace else STRETCH_POOL_EVENTS,
            seed=seed,
        ),
    )
    clients = _clients(stream, keys)
    t2 = clock()
    if tracer is not None:
        root = tracer.add("phase.prepare", t0, t2)
        tracer.add("core.generate", t0, t1, root)
        tracer.add("loadgen.prepare", t1, t2, root)
    host = HostSpeed()
    setups = []
    spawns = []
    if trace:
        for rep in range(SETUP_REPS):
            server, _, spawn_s = _start(repo, out, True, tracer, str(rep))
            spawns.append(spawn_s)
            if rep < SETUP_REPS - 1:
                server.stop()
    else:
        server, setup = _timed_start(repo, out, host, "0")
        setups.append(setup)
    try:
        snapshot_raw = _snapshot_raw(server.port)
        _run_phase(clients, server.port, WARMUP_S, None, ops=0)
        if trace:
            untraced = _run_phase(clients, server.port, seconds / 2, None)
            before = _scrape(server.port, clients[0])
            workers_cpu = cpu_seconds(server.worker_pids)
            phase = _run_phase(clients, server.port, seconds / 2, tracer)
            workers_cpu = cpu_seconds(server.worker_pids) - workers_cpu
            after = _scrape(server.port, clients[0])
        else:
            phase = _stretches(repo, out, server, snapshot_raw, clients, seconds,
                               host, setups)  # fmt: skip
        for client in clients:
            client.close()
        rss = peak_rss_mb([server.process.pid, *server.worker_pids])
        snapshot = _snapshot(server.port)
    finally:
        for client in clients:
            client.close()
        server.stop()
    problems = _verify(machine, clients, snapshot, keys)
    attempted = len(phase.writes) + len(phase.reads) + len(phase.scrapes)
    result = Result(attempted=attempted, failed=phase.failed, mismatches=problems)
    result.provenance = {
        "samples": {"scrape": {"samples": len(phase.scrapes)}},
        "setup_reps": len(setups),
        "stream_passes": _passes(clients),
        "fired_ratio": phase.fired / len(phase.acked) if phase.acked else 0.0,
        "client_cpu_ratio": phase.cpu / phase.wall,
        "client_bound": phase.cpu / phase.wall >= 0.9,
        "steal_ratio": phase.steal,
    }
    if not trace:
        result.metrics, samples = e2e_metrics(
            phase.writes,
            phase.reads,
            phase.failed,
            attempted,
            host.setup_s(setups),
            rss,
            host,
            CONNECTIONS,
        )
        result.provenance["samples"].update(samples)
        result.provenance.update(
            stretches=len(clients[0].restores),
            setup_s_raw=statistics.median(setup[0] for setup in setups),
            host_slowdown=host.overall(),
            host_probes=len(host.seconds),
        )
        return result
    twin, twin_problems = _journal_off_twin(repo, out, machine, stream, keys, seconds)
    result.mismatches += twin_problems
    result.metrics = _layers(phase, untraced, before, after, tracer)
    result.metrics["mp.worker_busy_ratio"] = (
        workers_cpu / (WORKERS * phase.wall),
        "ratio",
    )
    result.metrics["recovery.journal_ratio"] = (
        (len(twin.acked) / twin.wall) / (len(untraced.acked) / untraced.wall),
        "ratio",
    )
    result.metrics["core.generate_s"] = (t1 - t0, "s")
    result.metrics["store.spawn_s"] = (statistics.median(spawns), "s")
    result.tracer = tracer
    return result


def _timed_start(repo, out, host: HostSpeed, tag: str):
    """Start a server between two host-speed probes:
    ``(server, (setup_s, start, end))``."""
    clock = time.perf_counter
    host.sample()
    start = clock()
    server, setup_s, _ = _start(repo, out, False, None, tag)
    end = clock()
    host.sample()
    return server, (setup_s, start, end)


def _stretches(repo, out, server, snapshot_raw, clients, seconds, host, setups):
    """The stretches of the timed phase, joined into one.

    Each stretch restores the spawn state and replays the stream's first
    :data:`STRETCH_DELIVERIES` per connection, in :data:`STRETCH_PARTS`
    parts with host-speed probes between them.  Stretches follow until
    their parts add up to ``seconds`` and :data:`MIN_OPS` reads.  Before
    each but the first, one more server starts and stops, so that
    ``setup_s`` samples the host over the whole run, as the load does.
    """
    parts: list[Phase] = []
    while not parts or (
        sum(part.wall for part in parts) < seconds
        or sum(len(part.reads) for part in parts) < MIN_OPS
    ):
        if parts:
            other, setup = _timed_start(repo, out, host, str(len(setups)))
            other.stop()
            setups.append(setup)
        _restore(server.port, snapshot_raw, clients)
        for part in range(1, STRETCH_PARTS + 1):
            host.sample(PROBES)
            limit = part * STRETCH_DELIVERIES // STRETCH_PARTS
            parts.append(_run_phase(clients, server.port, None, None, 0, limit))
        host.sample(PROBES)
    return Phase.joined(parts)


def _journal_off_twin(repo, out, machine, stream, keys, seconds):
    """The same load on a server without ``--journal``, checked the same
    way: ``(phase, problems)``."""
    server = Server(repo, out, INSTANCES, "twin", journal=False)
    try:
        server.wait_healthy()
        clients = _clients(stream, keys)
        _run_phase(clients, server.port, WARMUP_S, None, ops=0)
        phase = _run_phase(clients, server.port, seconds / 2, None)
        for client in clients:
            client.close()
        snapshot = _snapshot(server.port)
    finally:
        for client in clients:
            client.close()
        server.stop()
    problems = _verify(machine, clients, snapshot, keys)
    return phase, [f"journal-off twin: {problem}" for problem in problems]


def _mean_rtt(phase: Phase) -> float:
    total = busy(phase.writes) + busy(phase.reads) + sum(s for s, _ in phase.scrapes)
    return total / (len(phase.writes) + len(phase.reads) + len(phase.scrapes))


def _layers(phase: Phase, untraced: Phase, before, after, tracer: Tracer) -> dict:
    """Per-layer metrics from the traced phase and the scrapes around it."""
    from repro.serve import shard_of

    def delta(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    server_mean = prom_mean(before, after, "gateway_request_seconds")
    metrics = {
        "fleet.recycled": (delta("fleet_instances_recycled_total"), "count"),
        "recovery.checkpoints": (delta("fleet_checkpoints_total"), "count"),
        "gateway.server_mean_ms": (server_mean * 1e3, "ms"),
        "gateway.wire_mean_ms": ((_mean_rtt(phase) - server_mean) * 1e3, "ms"),
        "gateway.requests": (delta("gateway_requests_total"), "count"),
        "gateway.errors": (delta("gateway_errors_total"), "count"),
        "loadgen.client_cpu_ratio": (phase.cpu / phase.wall, "ratio"),
        "loadgen.ops": (
            len(phase.writes) + len(phase.reads) + len(phase.scrapes),
            "count",
        ),
        "trace.overhead_ratio": (_mean_rtt(phase) / _mean_rtt(untraced), "ratio"),
    }
    workers = [0] * WORKERS
    for key in phase.acked:
        workers[shard_of(key, WORKERS)] += 1
    metrics["mp.worker_skew"] = (max(workers) / statistics.mean(workers), "ratio")
    dispatched = delta("fleet_events_dispatched_total")
    if dispatched:
        fired = delta("fleet_transitions_fired_total")
        metrics["fleet.fired_ratio"] = (fired / dispatched, "ratio")
    if phase.scrapes:
        metrics["obs.scrape_ms"] = (
            statistics.mean(s for s, _ in phase.scrapes) * 1e3,
            "ms",
        )
        metrics["obs.scrape_bytes"] = (
            statistics.mean(b for _, b in phase.scrapes),
            "bytes",
        )
    metrics.update(self_time_metrics(tracer))
    return metrics
