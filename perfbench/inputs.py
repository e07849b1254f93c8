"""Seeded inputs of the benchmark, and expected counts computed apart
from the program.

Every byte the program sees comes from ``repro.workloads.synthetic``
(or numpy, for sizes) under seeds derived here from the one ``--seed``;
the cluster's randomness comes from one ``HmacDrbg`` per workload.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.chunking.chunker import ChunkingSpec, iter_raw_chunks
from repro.chunking.rabin import (
    DEFAULT_AVG_SIZE,
    DEFAULT_MAX_SIZE,
    DEFAULT_MIN_SIZE,
    RabinChunker,
)
from repro.crypto.drbg import HmacDrbg

KiB = 1 << 10
MiB = 1 << 20


def cluster_rng(workload: str, seed: int) -> HmacDrbg:
    """The one random source a workload's cluster draws from: RSA keys,
    the attribute authority, key-regression pairs, blinding, nonces."""
    return HmacDrbg(f"perfbench/{workload}/{seed}".encode())


def derived_seed(seed: int, *parts) -> int:
    """A numpy seed for one named input, fixed by ``--seed``."""
    digest = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def stratified_sizes(seed: int, count: int, low: int, high: int) -> list[int]:
    """``count`` sizes, one drawn log-uniformly from each of ``count``
    equal log-width strata of ``[low, high]``: every batch spans the whole
    range, so batches and seeds differ little in their total bytes."""
    rng = np.random.default_rng(seed)
    edges = np.geomspace(low, high, count + 1)
    return [
        int(np.exp(rng.uniform(np.log(edges[i]), np.log(edges[i + 1]))))
        for i in range(count)
    ]


def independent_engine() -> str:
    """A Rabin engine other than the one the client resolves to.  All
    engines must cut identical boundaries, so counting with another one
    checks the client's chunking as well as the store's deduplication."""
    client_engine = RabinChunker(
        min_size=DEFAULT_MIN_SIZE, max_size=DEFAULT_MAX_SIZE, avg_size=DEFAULT_AVG_SIZE
    ).engine
    return next(engine for engine in ("scan", "reference") if engine != client_engine)


def distinct_chunks(blobs) -> int:
    """Distinct SHA-256 chunk digests over ``blobs`` under the client's
    default chunking parameters and :func:`independent_engine`."""
    spec = ChunkingSpec(engine=independent_engine())
    digests = set()
    for blob in blobs:
        for chunk in iter_raw_chunks(blob, spec):
            digests.add(hashlib.sha256(chunk).digest())
    return len(digests)
