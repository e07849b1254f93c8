"""Shared machinery of the REED benchmark.

* :class:`Recorder` keeps spans in memory with per-thread parent links
  and derives each layer's self time (a span's duration minus the spans
  it directly encloses on the same thread).
* :func:`install_layers` puts timing wrappers, written here and not in
  the program, on the program's public entry points; the returned
  :class:`Patches` takes them off again.
* :class:`Ledger` times the workload's operations, counts attempts and
  failures, and pauses the recorder while the benchmark checks outputs.
* :func:`host_sample` reads CPU steal and load average from ``/proc``.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict, namedtuple
from contextlib import contextmanager, nullcontext

clock = time.perf_counter

MiB = 1 << 20


_PROBE_MODULUS = (1 << 521) - 1
_PROBE_EXPONENT = (1 << 160) - 47
_PROBE_DATA = bytes(range(256)) * 256


def probe() -> float:
    """Seconds this host takes for a fixed piece of benchmark-side work:
    Python bytecode, a big-integer modular exponentiation and SHA-256,
    the kinds of work the program's operations are made of."""
    started = clock()
    total = 0
    for i in range(3000):
        total += i * i
    pow(total | 3, _PROBE_EXPONENT, _PROBE_MODULUS)
    hashlib.sha256(_PROBE_DATA).digest()
    return clock() - started


#: Host stalls (CPU steal, neighbours, preemption) only ever add time to
#: an operation, so the mean of the fastest half of repeated identical
#: operations is what the program costs; the mean of all of them moves
#: with the host.
FAST_FRACTION = 0.5
#: The probe's fast time on the 2-vCPU host the benchmark was written on;
#: rates and set-up time are scaled to that host's speed.
PROBE_REFERENCE_S = 500e-6


class Recorder:
    """In-memory span recorder; spans nest per thread."""

    def __init__(self) -> None:
        #: ``(span_id, parent_id, name, thread, start, end, self_s)``;
        #: ``parent_id`` 0 marks a root on its thread.
        self.spans: list[tuple] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        #: While set, no span or count is recorded on any thread (the
        #: benchmark is checking outputs or running the fault drill).
        self.paused = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str):
        if self.paused:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = [next(self._ids), 0.0]  # span id, seconds of direct children
        parent = stack[-1][0] if stack else 0
        stack.append(frame)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            record = (
                frame[0], parent, name, threading.current_thread().name,
                start, end, duration - frame[1],
            )
            with self._lock:
                self.spans.append(record)

    def add(self, name: str, amount: float = 1) -> None:
        if not self.paused:
            with self._lock:
                self.counts[name] += amount

    def layer_seconds(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: (self seconds, inclusive seconds), all threads."""
        self_s: defaultdict[str, float] = defaultdict(float)
        total_s: defaultdict[str, float] = defaultdict(float)
        for _id, _parent, name, _thread, start, end, own in self.spans:
            self_s[name] += own
            total_s[name] += end - start
        return dict(self_s), dict(total_s)

    def client_thread_balance(self, thread: str) -> tuple[float, float]:
        """(wall seconds of the operations on ``thread``, the sum of the
        self times of every span on it).  Equal up to rounding when every
        span on the thread lies inside an operation span."""
        wall = sum(
            end - start
            for _id, parent, name, owner, start, end, _own in self.spans
            if owner == thread and parent == 0 and name.startswith("op.")
        )
        own = sum(s[6] for s in self.spans if s[3] == thread)
        return wall, own

    def dump(self, path: str) -> None:
        fields = ["span_id", "parent_id", "name", "thread", "start", "end", "self_s"]
        with open(path, "w") as handle:
            json.dump({"fields": fields, "spans": self.spans}, handle)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    _MISSING = object()

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make) -> None:
        """Replace ``owner.name`` with ``make(original)``."""
        self._undo.append((owner, name, vars(owner).get(name, self._MISSING)))
        setattr(owner, name, make(getattr(owner, name)))

    def undo(self) -> None:
        while self._undo:
            owner, name, previous = self._undo.pop()
            if previous is self._MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, previous)


def _timed(rec: Recorder, layer: str, after=None):
    """Wrapper factory: one ``layer`` span per call, then ``after(args,
    result)`` for the layer's counts."""

    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with rec.span(layer):
                result = original(*args, **kwargs)
            if after is not None and not rec.paused:
                after(args, result)
            return result

        return wrapper

    return make


def install_layers(rec: Recorder, data_backends: list) -> Patches:
    """Wrap the program's layer entry points; ``data_backends`` are the
    blob backends of the data servers (counted per instance)."""
    import repro.core.client as client_module
    from repro.core.parallel import ChunkTransformPool, StubRekeyPool
    from repro.core.rekeypipe import RekeyPipeline
    from repro.core.server import REEDServer
    from repro.keyreg.rsa_keyreg import KeyRegressionMember, KeyRegressionOwner
    from repro.mle.server_aided import ServerAidedKeyClient
    from repro.net.rpc import RpcClient, ServiceRegistry
    from repro.storage.datastore import DataStore
    from repro.storage.gc import CompactionGC
    from repro.storage.keystore import KeyStore

    patches = Patches()

    def make_chunk_stream(original):
        # The client times ``next`` on this iterator; the span covers the
        # same interval (Rabin cut search plus the SHA-256 fingerprint).
        @functools.wraps(original)
        def chunk_stream(data, spec):
            inner = iter(original(data, spec))

            def chunks():
                while True:
                    with rec.span("chunking"):
                        chunk = next(inner, None)
                    if chunk is None:
                        return
                    rec.add("chunking.chunks")
                    yield chunk

            return chunks()

        return chunk_stream

    patches.wrap(client_module, "chunk_stream", make_chunk_stream)

    def make_derive(original):
        @functools.wraps(original)
        def derive_keys(key_client, fingerprints):
            hits, evals = key_client.cache_hits, key_client.oprf_evaluations
            with rec.span("mle.derive"):
                keys = original(key_client, fingerprints)
            rec.add("mle.cache_hits", key_client.cache_hits - hits)
            rec.add("mle.oprf_evals", key_client.oprf_evaluations - evals)
            return keys

        return derive_keys

    patches.wrap(ServerAidedKeyClient, "derive_keys", make_derive)

    def count_chunks(args, _result):
        rec.add("aont.chunks", len(args[1]))

    patches.wrap(ChunkTransformPool, "encrypt", _timed(rec, "aont.encrypt", count_chunks))
    patches.wrap(ChunkTransformPool, "decrypt", _timed(rec, "aont.decrypt", count_chunks))
    patches.wrap(client_module, "encrypt_stub_file", _timed(rec, "stubs.encrypt"))
    patches.wrap(StubRekeyPool, "reencrypt", _timed(rec, "stubs.reencrypt"))

    def count_abe(_args, _result):
        rec.add("abe.calls")

    patches.wrap(client_module, "abe_encrypt", _timed(rec, "abe.encrypt", count_abe))
    patches.wrap(client_module, "abe_decrypt", _timed(rec, "abe.decrypt", count_abe))
    patches.wrap(KeyRegressionOwner, "wind", _timed(rec, "keyreg.wind"))

    def count_unwind(args, _result):
        _member, state, version = args
        rec.add("keyreg.unwind_steps", state.version - version)

    patches.wrap(KeyRegressionMember, "unwind_to", _timed(rec, "keyreg.unwind", count_unwind))

    def count_rpc(args, result):
        rec.add("net.rpc_calls")
        payload = args[2] if len(args) > 2 else b""
        rec.add("net.rpc_bytes", len(payload) + len(result))

    patches.wrap(RpcClient, "call", _timed(rec, "net.rpc", count_rpc))
    patches.wrap(ServiceRegistry, "dispatch", _timed(rec, "server.handler"))

    def count_stored(args, statuses):
        stored = sum(len(data) for (_fp, data), new in zip(args[1], statuses) if new is True)
        rec.add("storage.chunk_bytes_stored", stored)

    def count_served(_args, chunks):
        rec.add("storage.chunk_bytes_served", sum(len(chunk) for chunk in chunks))

    # The storage RPC handler stores a batch through the server's
    # ``chunk_put_many`` (fingerprint check, then ``DataStore.put_chunk``
    # per item); ``DataStore.put_many`` is not on this path.
    patches.wrap(REEDServer, "chunk_put_many", _timed(rec, "storage.put", count_stored))
    patches.wrap(DataStore, "get_many", _timed(rec, "storage.get", count_served))

    def count_gc(_args, report):
        rec.add("gc.bytes_relocated", report.relocated_bytes)
        rec.add("gc.bytes_reclaimed", report.reclaimed_bytes)

    patches.wrap(CompactionGC, "run_once", _timed(rec, "gc", count_gc))

    def count_keystore(_args, _result):
        rec.add("keystore.calls")

    for method in ("get", "put", "get_many", "put_many"):
        patches.wrap(KeyStore, method, _timed(rec, "keystore", count_keystore))
    patches.wrap(RekeyPipeline, "run", _timed(rec, "rekeypipe"))

    def make_get(original):
        def get(name):
            blob = original(name)
            if name.startswith("container/"):
                rec.add("storage.container_fetches")
                rec.add("storage.container_bytes_read", len(blob))
            return blob

        return get

    def make_put(original):
        def put(name, data):
            original(name, data)
            rec.add("storage.bytes_written", len(data))

        return put

    for backend in data_backends:
        patches.wrap(backend, "get", make_get)
        patches.wrap(backend, "put", make_put)
    return patches


def layer_metrics(rec: Recorder, rounds: int, client_thread: str) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per measured round: ``name -> (value, unit)``."""
    self_s, total_s = rec.layer_seconds()
    counts = rec.counts

    def per_round(value: float) -> float:
        return value / rounds

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    wall, _own = rec.client_thread_balance(client_thread)
    client_layers = sum(
        s[6] for s in rec.spans if s[3] == client_thread and not s[2].startswith("op.")
    )
    seconds = {
        "chunking.busy_s": self_s.get("chunking", 0.0),
        "mle.derive_s": self_s.get("mle.derive", 0.0),
        "aont.encrypt_s": self_s.get("aont.encrypt", 0.0),
        "aont.decrypt_s": self_s.get("aont.decrypt", 0.0),
        "stubs.encrypt_s": self_s.get("stubs.encrypt", 0.0),
        "stubs.reencrypt_s": self_s.get("stubs.reencrypt", 0.0),
        "abe.encrypt_s": self_s.get("abe.encrypt", 0.0),
        "abe.decrypt_s": self_s.get("abe.decrypt", 0.0),
        "keyreg.wind_s": self_s.get("keyreg.wind", 0.0),
        "keyreg.unwind_s": self_s.get("keyreg.unwind", 0.0),
        "net.rpc_s": total_s.get("net.rpc", 0.0),
        "server.handler_s": self_s.get("server.handler", 0.0),
        "net.transport_s": total_s.get("net.rpc", 0.0) - total_s.get("server.handler", 0.0),
        "storage.put_s": self_s.get("storage.put", 0.0),
        "storage.get_s": self_s.get("storage.get", 0.0),
        "gc.busy_s": self_s.get("gc", 0.0),
        "keystore.busy_s": self_s.get("keystore", 0.0),
        "rekeypipe.busy_s": self_s.get("rekeypipe", 0.0),
        "client.unattributed_s": wall - client_layers,
    }
    out = {name: (per_round(value), "s/round") for name, value in seconds.items()}
    for name in (
        "chunking.chunks", "mle.oprf_evals", "aont.chunks", "abe.calls",
        "keyreg.unwind_steps", "net.rpc_calls", "storage.container_fetches",
        "gc.bytes_relocated", "gc.bytes_reclaimed", "keystore.calls",
    ):
        unit = "B/round" if name.startswith("gc.bytes") else "count/round"
        out[name] = (per_round(counts.get(name, 0.0)), unit)
    out["net.rpc_bytes"] = (per_round(counts.get("net.rpc_bytes", 0.0)), "B/round")
    out["mle.key_cache_hit_ratio"] = (
        ratio(
            counts.get("mle.cache_hits", 0.0),
            counts.get("mle.cache_hits", 0.0) + counts.get("mle.oprf_evals", 0.0),
        ),
        "ratio",
    )
    out["storage.read_amplification"] = (
        ratio(
            counts.get("storage.container_bytes_read", 0.0),
            counts.get("storage.chunk_bytes_served", 0.0),
        ),
        "ratio",
    )
    out["storage.write_amplification"] = (
        ratio(
            counts.get("storage.bytes_written", 0.0),
            counts.get("storage.chunk_bytes_stored", 0.0),
        ),
        "ratio",
    )
    return out


#: One timed operation; ``probe_s`` is the probe's time just before it.
Sample = namedtuple("Sample", "round kind shape seconds units probe_s")


class Ledger:
    """Times operations, counts attempts and failures, collects checks.

    Each operation runs inside an ``op.<kind>`` span when a recorder is
    attached, so on the client thread the layers' self times plus the
    operations' own self time add up to the operations' wall time.
    """

    def __init__(self, recorder: Recorder | None = None) -> None:
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0
        #: Failed checks on operations that did not fail.
        self.check_failures: list[str] = []
        #: The known-fault drill's failures (one line each).
        self.faults: list[str] = []
        #: Rounds started.
        self.round = -1
        self.samples: list[Sample] = []

    def start_round(self) -> None:
        self.round += 1

    def op(self, kind: str, action, units: float = 0.0, shape=None):
        """Run one timed operation and return its result.

        ``shape`` names the operation's work: operations of one kind and
        shape do the same work, so their fastest times are comparable.
        """
        self.attempted += 1
        probe_s = probe()
        span = self.recorder.span("op." + kind) if self.recorder else nullcontext()
        started = clock()
        with span:
            result = action()
        elapsed = clock() - started
        self.samples.append(Sample(self.round, kind, shape, elapsed, units, probe_s))
        return result

    def fault_check(self, ok: bool, message: str) -> None:
        """An untimed operation that checks a known fault: it fails while
        the fault stands and counts in ``failed``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.faults.append(message)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.check_failures.append(message)

    @contextmanager
    def untimed(self):
        """Checks and drills: nothing inside is recorded by the tracer."""
        if self.recorder is None:
            yield
            return
        self.recorder.paused = True
        try:
            yield
        finally:
            self.recorder.paused = False

    def host_factor(self) -> float:
        """This host's speed during the run relative to the reference
        host: the probe's fast time over ``PROBE_REFERENCE_S``."""
        return fast_mean([sample.probe_s for sample in self.samples]) / PROBE_REFERENCE_S

    def fast_rate(self, kinds: tuple[str, ...], unit_kind: str, scale: float = 1.0) -> float:
        """Units of ``unit_kind`` per second of ``kinds``, where each
        operation counts the fast time of its kind and shape, scaled to
        the reference host speed."""
        times: defaultdict[tuple, list[float]] = defaultdict(list)
        for sample in self.samples:
            times[sample.kind, sample.shape].append(sample.seconds)
        fast = {key: fast_mean(values) for key, values in times.items()}
        seconds = sum(fast[s.kind, s.shape] for s in self.samples if s.kind in kinds)
        units = sum(s.units for s in self.samples if s.kind == unit_kind)
        if not seconds:
            return 0.0
        return units / scale / seconds * self.host_factor()

    def raw_rate(self, kinds: tuple[str, ...], unit_kind: str, scale: float = 1.0) -> float:
        """Units per wall second, unscaled (a diagnostic)."""
        seconds = sum(s.seconds for s in self.samples if s.kind in kinds)
        units = sum(s.units for s in self.samples if s.kind == unit_kind)
        return units / scale / seconds if seconds else 0.0


def fast_mean(values: list[float]) -> float:
    """Mean of the fastest ``FAST_FRACTION`` of ``values``."""
    ordered = sorted(values)
    count = max(1, round(FAST_FRACTION * len(ordered)))
    return sum(ordered[:count]) / count


def host_sample() -> dict[str, float]:
    """Cumulative CPU steal seconds (all CPUs) and the 1-minute load
    average, read from ``/proc``; zeros where ``/proc`` is absent."""
    steal = 0.0
    load = 0.0
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        if fields and fields[0] == "cpu" and len(fields) > 8:
            steal = int(fields[8]) / os.sysconf("SC_CLK_TCK")
        with open("/proc/loadavg") as handle:
            load = float(handle.read().split()[0])
    except (OSError, ValueError):
        pass
    return {"steal_s": steal, "load1": load, "t": clock()}


def host_share(first: dict[str, float], last: dict[str, float]) -> dict[str, float]:
    """Steal seconds and steal per wall second between two samples."""
    wall = max(last["t"] - first["t"], 1e-9)
    steal = last["steal_s"] - first["steal_s"]
    return {
        "steal_s": round(steal, 3),
        "steal_cpu_per_s": round(steal / wall, 4),
        "load1_start": first["load1"],
        "load1_end": last["load1"],
    }
