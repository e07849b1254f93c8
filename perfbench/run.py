#!/usr/bin/env python3
"""REED benchmark: one workload on a 4-data-server TcpCluster.

Run from the root of a checkout::

    python3 perfbench/run.py --workload backup --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout and driven only
through its public API, by one closed-loop client thread with one
operation in flight.  Set-up (cluster boot, enrollment, warm-up and the
initial data) runs three times and ``setup_s`` is the median; the last
set-up is kept and whole rounds run until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` installs
timing wrappers on the program's layer entry points, prints per-layer
metrics per round, and writes every span to ``.perfbench/``.  The last
line of standard output is the JSON result; the line before it holds
diagnostics (rounds, CPU steal and load average seen by the run, check
failures).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import threading

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3
MIN_ROUNDS = 2
#: End-to-end rates: (operation kinds timed, kind whose units count,
#: unit scale, unit).  Expiry time includes the compaction passes.
RATES = {
    "upload_mib_s": (("upload",), "upload", harness.MiB, "MiB/s"),
    "download_mib_s": (("download",), "download", harness.MiB, "MiB/s"),
    "expire_mib_s": (("expire", "gc"), "expire", harness.MiB, "MiB/s"),
    "revoke_lazy_files_s": (("revoke_lazy",), "revoke_lazy", 1.0, "files/s"),
    "revoke_active_files_s": (("revoke_active",), "revoke_active", 1.0, "files/s"),
    "group_revoke_files_s": (("revoke_group",), "revoke_group", 1.0, "files/s"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["backup", "revoke"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="run exactly this many rounds instead of --seconds (count checks)",
    )
    parser.add_argument(
        "--expected-only", action="store_true",
        help="print the expected distinct chunk count after --rounds rounds and exit",
    )
    return parser.parse_args(argv)


def load_workload(name: str):
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no program sources at {src}/repro; run from a checkout"
        )
    sys.path.insert(0, src)
    import backup
    import revoke

    return {"backup": backup, "revoke": revoke}[name]


def pin_to_one_cpu() -> None:
    """Keep the client and the in-process cluster on one CPU.

    Spread over two vCPUs, every RPC hop between the client and server
    threads is a cross-CPU wake-up; on a virtual machine the hypervisor
    charges those as steal (0.6 CPU-s/s) and the rates halve and wander.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = load_workload(args.workload)
    pin_to_one_cpu()
    from inputs import distinct_chunks

    if args.expected_only:
        rounds = args.rounds if args.rounds is not None else 0
        live = workload.expected_live(args.seed, rounds)
        print(json.dumps({
            "workload": args.workload, "seed": args.seed, "rounds": rounds,
            "live_bytes": sum(map(len, live)), "distinct_chunks": distinct_chunks(live),
        }))
        return 0

    setup_times = []
    for attempt in range(SETUPS):
        started = harness.clock()
        world = workload.World(args.seed)
        setup_times.append(harness.clock() - started)
        if attempt < SETUPS - 1:
            world.close()
            del world  # its data must not count in the next set-up's memory

    recorder = harness.Recorder() if args.trace else None
    ledger = harness.Ledger(recorder)
    client_thread = threading.current_thread().name
    try:
        patches = harness.install_layers(recorder, world.backends()) if recorder else None
        first = harness.host_sample()
        try:
            deadline = first["t"] + args.seconds
            index = 0
            while (
                index < args.rounds if args.rounds is not None
                else index < MIN_ROUNDS or harness.clock() < deadline
            ):
                ledger.start_round()
                world.run_round(index, ledger)
                index += 1
        finally:
            last = harness.host_sample()
            if patches is not None:
                patches.undo()
        world.final_checks(ledger)
        stored_per_live = statistics.median(world.stored_ratios)
        stored_bytes = world.stored_bytes
    finally:
        world.close()
    rounds = ledger.round + 1
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"ops-{tag}.json"), "w") as handle:
        json.dump(
            {"fields": harness.Sample._fields, "samples": ledger.samples, "setup_s": setup_times},
            handle,
        )
    if recorder is not None:
        wall, own = recorder.client_thread_balance(client_thread)
        ledger.check(
            abs(wall - own) <= 1e-6 * max(1.0, wall) + 1e-9 * len(recorder.spans),
            f"client-thread self times sum to {own:.6f} s, operations took {wall:.6f} s",
        )
        recorder.dump(os.path.join(out_dir, f"spans-{tag}.json"))
        metrics = harness.layer_metrics(recorder, rounds, client_thread)
    else:
        host_factor = ledger.host_factor()
        metrics = {"setup_s": (statistics.median(setup_times) / host_factor, "s")}
        for name, (kinds, unit_kind, scale, unit) in RATES.items():
            metrics[name] = (ledger.fast_rate(kinds, unit_kind, scale), unit)
        metrics["stored_per_live"] = (stored_per_live, "ratio")
        metrics["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
        )

    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "stored_bytes": stored_bytes,
        "setup_s_each": [round(t, 4) for t in setup_times],
        "host": harness.host_share(first, last),
        "host_factor": round(ledger.host_factor(), 4),
        "wall_rates": {
            name: round(ledger.raw_rate(kinds, unit_kind, scale), 3)
            for name, (kinds, unit_kind, scale, _unit) in RATES.items()
        },
        "check_failures": ledger.check_failures[:20],
        "known_fault": ledger.faults[:1],
    }
    print(json.dumps({"diagnostics": diagnostics}))
    result = {
        "correct": not ledger.check_failures,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
