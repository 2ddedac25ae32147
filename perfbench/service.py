"""The profile service as a client sees it: one `pgmp serve` subprocess,
driven over hello-negotiated wire-v2 frames by a seeded simulated fleet.

The fleet stands for many workers, each with a `ProfileShipper` at its
defaults. Its frames follow what the shipper sends: every flush cuts one
delta and drains the queue at once, so a connected shipper sends lone
delta frames; a batch frame appears only when a shipper reconnects after
an outage and drains the backlog its queue kept (at most ``max_pending``
deltas, the oldest dropped past that). The frame in flight when the
connection drops was applied but never acknowledged, so the shipper
re-sends it at the head of that batch, and the server's ledger must
acknowledge it ``duplicate``. Delta bodies are real counter increments,
cut from instrumented runs of the workload's own programs.
"""

from __future__ import annotations

import collections
import inspect
import json
import os
import random
import select
import socket
import subprocess
import struct
import sys
import time
import zlib

from repro.service.delta import (
    MAX_BATCH_DELTAS,
    DeltaBatch,
    FrameDecoder,
    ProfileDelta,
    encode_frame,
    hello_frame,
    negotiated_features,
    WIRE_VERSION,
)
from repro.service.shipper import ProfileShipper

#: Top bit of a frame's length prefix: the payload is zlib-compressed.
COMPRESSED_FLAG = 0x8000_0000

_SHIPPER_DEFAULTS = inspect.signature(ProfileShipper).parameters
#: A shipper's queue bound, and the most deltas one of its batch frames
#: carries, both as `ProfileShipper` sets them by default.
MAX_PENDING = _SHIPPER_DEFAULTS["max_pending"].default
BATCH_LIMIT = min(_SHIPPER_DEFAULTS["batch_size"].default, MAX_BATCH_DELTAS)

#: The simulated environment (assumptions, not measurements): how many
#: workers ship, the chance that a frame's ack is lost to a dropped
#: connection, and how many flush intervals the connection then stays
#: down (the shipper reconnects at its first flush after that).
SHIPPERS = 16
OUTAGE_RATE = 1 / 128
OUTAGE_FLUSHES = (2, 48)
#: How long the client waits for an ack before it gives up on the server.
ACK_TIMEOUT_S = 30.0

#: Parameters the run prints, so a reader sees the values in use.
PARAMETERS = {
    "shippers": SHIPPERS,
    "shipper_max_pending": MAX_PENDING,
    "shipper_batch_limit": BATCH_LIMIT,
    "outage_rate": OUTAGE_RATE,
    "outage_flushes": OUTAGE_FLUSHES,
}


class ServeProcess:
    """A `pgmp serve` subprocess with its checkpoint and state in ``workdir``."""

    def __init__(self, workdir: str, src_dir: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.tools.cli", "serve",
                "--listen", "127.0.0.1:0",
                "--checkpoint", os.path.join(workdir, "merged.json"),
                "--state", os.path.join(workdir, "state.json"),
                # The final checkpoint on shutdown is kept; periodic ones
                # would land at a random point of the timed phases.
                "--checkpoint-interval", "3600",
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        line = self.proc.stderr.readline().strip()
        prefix = "pgmp serve: listening on "
        if not line.startswith(prefix):
            self.stop()
            raise RuntimeError(f"pgmp serve did not start: {line!r}")
        host, _, port = line[len(prefix):].rpartition(":")
        self.address = (host, int(port))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """Ask the server to shut down; kill it if it does not exit."""
        if self.proc.poll() is None:
            try:
                with socket.create_connection(self.address, timeout=10) as sock:
                    sock.sendall(encode_frame({"type": "shutdown"}))
                    sock.recv(1)
            except OSError:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stderr.close()
        return self.proc.returncode


class Connection:
    """One negotiated v2 connection: frames out, decoded frames in."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = FrameDecoder()
        self.pending: list[object] = []
        self.send(encode_frame(hello_frame(peer="perfbench-fleet")))
        features = negotiated_features(self.receive())
        if features != {"batch", "zlib"}:
            raise RuntimeError(f"server negotiated {sorted(features)}")

    def send(self, frame: bytes) -> None:
        self.sock.sendall(frame)

    def _recv(self) -> None:
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("server closed the connection")
        # Acknowledge at once: a delayed ACK would hold the server's next
        # small ack frame behind Nagle until this client's next send, and
        # time the load generator's TCP timers instead of the server.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        self.pending.extend(self.decoder.feed(data))

    def poll(self, timeout: float, expect: bool = False) -> list[object]:
        """Frames that arrive within ``timeout`` seconds (maybe none, or
        with ``expect``, a TimeoutError when no byte arrives)."""
        ready, _, _ = select.select([self.sock], [], [], max(0.0, timeout))
        if ready:
            self._recv()
        elif expect:
            raise TimeoutError(f"no ack within {timeout} s")
        frames, self.pending = self.pending, []
        return frames

    def receive(self) -> object:
        while not self.pending:
            self._recv()
        return self.pending.pop(0)

    def request(self, obj: dict) -> object:
        self.send(encode_frame(obj, compress=True))
        return self.receive()

    def close(self) -> None:
        self.sock.close()


class Fleet:
    """Seeded frame source; tracks what the server must have applied.

    ``pools`` holds, per program, the datasets' delta bodies (``{point
    key: count}``) to draw from; shipper ``i`` ships program ``i % len``.
    A frame is a list of ``(shipper, seq, body)`` deltas. The load
    generator serialises it by string assembly from pre-serialised delta
    bodies, so that making a frame costs the client a fraction of what
    the server spends on it; :meth:`library_frame` makes the same frame
    through `ProfileDelta`, `DeltaBatch` and `encode_frame`, and
    :meth:`check_encoding` proves the two byte-identical.
    """

    def __init__(self, rng: random.Random, pools: list[tuple[str, list[dict[str, int]]]]) -> None:
        self.rng = rng
        self.bodies: list[dict[str, int]] = []
        self.datasets: list[str] = []
        self.prefixes: list[str] = []
        self.totals: list[int] = []
        #: per program, the indexes of its bodies
        self.by_program: list[list[int]] = []
        for dataset, bodies in pools:
            indexes = []
            for counts in bodies:
                indexes.append(len(self.bodies))
                self.bodies.append(counts)
                self.datasets.append(dataset)
                self.totals.append(sum(counts.values()))
                self.prefixes.append(
                    '{"counts":'
                    + json.dumps(counts, separators=(",", ":"), sort_keys=True)
                    + f',"dataset":{json.dumps(dataset)},"seq":'
                )
            self.by_program.append(indexes)
        self.seq = [0] * SHIPPERS
        #: per shipper, its queue of [seq, body, sent before] entries
        self.queue: list[collections.deque] = [collections.deque() for _ in range(SHIPPERS)]
        self.down = [0] * SHIPPERS
        self.ready: collections.deque = collections.deque()
        self.unique_deltas = 0
        self.unique_counts = 0
        self.duplicates = 0
        self.dropped = 0
        self.frame_sizes: collections.Counter = collections.Counter()
        self.recent: collections.deque = collections.deque(maxlen=64)

    def _flush(self, shipper: int) -> None:
        """One `ProfileShipper.flush`: cut a delta, then drain the queue
        unless the connection is down."""
        queue = self.queue[shipper]
        rng = self.rng
        self.seq[shipper] += 1
        pool = self.by_program[shipper % len(self.by_program)]
        queue.append([self.seq[shipper], pool[rng.randrange(len(pool))], False])
        while len(queue) > MAX_PENDING:
            queue.popleft()
            self.dropped += 1
        if self.down[shipper]:
            self.down[shipper] -= 1
            return
        while queue:
            size = min(len(queue), BATCH_LIMIT) if len(queue) > 1 else 1
            entries = [queue[i] for i in range(size)]
            deltas = [(shipper, seq, body) for seq, body, _sent in entries]
            statuses = ["duplicate" if sent else "applied" for _seq, _body, sent in entries]
            for entry in entries:
                if not entry[2]:
                    entry[2] = True
                    self.unique_deltas += 1
                    self.unique_counts += self.totals[entry[1]]
                else:
                    self.duplicates += 1
            self.ready.append((deltas, statuses))
            self.frame_sizes[size] += 1
            if rng.random() < OUTAGE_RATE:
                # The connection drops before the ack arrives: the frame
                # stays queued and goes again, as duplicates, at the
                # reconnect OUTAGE_FLUSHES later.
                self.down[shipper] = rng.randint(*OUTAGE_FLUSHES)
                return
            for _ in range(size):
                queue.popleft()

    def next_spec(self) -> tuple[list[tuple[int, int, int]], list[str]]:
        """The next frame's deltas and the status each must be acked with."""
        while not self.ready:
            self._flush(self.rng.randrange(SHIPPERS))
        deltas, statuses = self.ready.popleft()
        self.recent.append(deltas)
        return deltas, statuses

    def encode(self, deltas: list[tuple[int, int, int]]) -> bytes:
        parts = [
            f'{self.prefixes[body]}{seq},"shipper":"fleet-{shipper}","type":"delta","v":{WIRE_VERSION}}}'
            for shipper, seq, body in deltas
        ]
        if len(parts) == 1:
            payload = parts[0]
        else:
            payload = '{"deltas":[' + ",".join(parts) + f'],"type":"batch","v":{WIRE_VERSION}}}'
        packed = zlib.compress(payload.encode("utf-8"), 6)
        return struct.pack(">I", len(packed) | COMPRESSED_FLAG) + packed

    def library_frame(self, deltas: list[tuple[int, int, int]]) -> bytes:
        objects = [
            ProfileDelta(
                shipper=f"fleet-{shipper}", seq=seq, dataset=self.datasets[body],
                counts=self.bodies[body],
            )
            for shipper, seq, body in deltas
        ]
        if len(objects) == 1:
            return encode_frame(objects[0].to_json_object(), compress=True)
        return encode_frame(DeltaBatch(deltas=tuple(objects)).to_json_object(), compress=True)

    def check_encoding(self) -> None:
        last = len(self.bodies) - 1
        for deltas in ([(0, 1, 0)], [(1, 1, 0), (1, 2, last)]):
            if self.encode(deltas) != self.library_frame(deltas):
                raise RuntimeError("fleet frames differ from encode_frame's bytes")

    def next_frame(self) -> tuple[bytes, int, list[str]]:
        """(frame bytes, deltas carried, expected per-delta statuses)."""
        deltas, statuses = self.next_spec()
        return self.encode(deltas), len(deltas), statuses


def ack_matches(ack: object, statuses: list[str]) -> bool:
    """Whether the server's ack reports exactly the expected statuses."""
    if not isinstance(ack, dict) or ack.get("type") != "ack":
        return False
    if len(statuses) == 1 and ack.get("status") != "batch":
        return ack.get("status") == statuses[0]
    if ack.get("status") != "batch":
        return False
    acks = ack.get("acks")
    if acks is None:
        return all(s == "applied" for s in statuses) and ack.get("applied") == len(statuses)
    return [a.get("status") for a in acks] == statuses


def server_stats(conn: Connection) -> dict:
    stats = conn.request({"type": "stats"})
    if not isinstance(stats, dict) or stats.get("type") != "stats":
        raise RuntimeError(f"no stats frame: {stats!r}")
    return stats


def stats_match(stats: dict, fleet: Fleet) -> bool:
    """Server totals equal what the fleet shipped, once, with no rejections."""
    counters = stats["metrics"]["counters"]
    totals = sum(entry["total"] for entry in stats["datasets"].values())
    return (
        counters.get("deltas_applied_total", 0) == fleet.unique_deltas
        and counters.get("deltas_duplicate_total", 0) == fleet.duplicates
        and counters.get("deltas_rejected_total", 0) == 0
        and totals == fleet.unique_counts
    )


def run_saturation(conn, fleet, spans, frames: int, window: int):
    """``frames`` frames in a closed loop with at most ``window`` of them
    unacknowledged. Returns (deltas acked, seconds, frames, mismatched
    acks, wire bytes)."""
    outstanding: list[list[str]] = []
    acked = sent = mismatches = wire_bytes = 0
    started = time.perf_counter()

    def settle(limit: int) -> None:
        nonlocal acked, mismatches
        with spans.span("transport.wait"):
            while len(outstanding) > limit:
                for ack in conn.poll(ACK_TIMEOUT_S, expect=True):
                    statuses = outstanding.pop(0)
                    acked += len(statuses)
                    if not ack_matches(ack, statuses):
                        mismatches += 1

    while sent < frames:
        spans.new_op()
        with spans.span("op.ingest"):
            with spans.span("loadgen.frame"):
                frame, _count, statuses = fleet.next_frame()
            wire_bytes += len(frame)
            with spans.span("transport.send"):
                conn.send(frame)
            outstanding.append(statuses)
            sent += 1
            settle(window - 1)
    spans.new_op()
    with spans.span("op.ingest"):
        settle(0)
    return acked, time.perf_counter() - started, sent, mismatches, wire_bytes


def run_open_loop(conn, fleet, spans, seconds: float, rate: float):
    """Frames due on a fixed schedule of ``rate`` deltas/s, sent when due
    whatever the backlog; each ack is timed from when its frame was due.

    Returns (latencies from due time, latencies from send time of the
    lone-delta frames, send lags, frames, mismatches).
    """
    outstanding: list[tuple[float, float, list[str]]] = []
    latencies: list[float] = []
    from_send: list[float] = []
    lags: list[float] = []
    frames = mismatches = 0
    start = time.perf_counter()
    due = start
    deadline = start + seconds
    upcoming = None
    while True:
        now = time.perf_counter()
        if upcoming is None and due < deadline:
            spans.new_op()
            with spans.span("op.ingest"), spans.span("loadgen.frame"):
                upcoming = fleet.next_frame()
            continue
        if upcoming is not None and now >= due:
            frame, count, statuses = upcoming
            spans.new_op()
            with spans.span("op.ingest"), spans.span("transport.send"):
                conn.send(frame)
            sent = time.perf_counter()
            lags.append(sent - due)
            outstanding.append((due, sent, statuses))
            frames += 1
            due += count / rate
            upcoming = None
            continue
        if upcoming is None and not outstanding:
            break
        spans.new_op()
        with spans.span("op.ingest"), spans.span("transport.wait"):
            if upcoming is None:
                got = conn.poll(ACK_TIMEOUT_S, expect=True)
            else:
                got = conn.poll(due - now)
        arrived = time.perf_counter()
        for ack in got:
            due_at, sent_at, statuses = outstanding.pop(0)
            latencies.append(arrived - due_at)
            if len(statuses) == 1:
                from_send.append(arrived - sent_at)
            if not ack_matches(ack, statuses):
                mismatches += 1
    return latencies, from_send, lags, frames, mismatches
