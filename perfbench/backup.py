"""The ``backup`` workload: one backup agent keeping a retention window
of daily snapshots on 4 data servers at ``replicas=2``.

A round is three days.  Each day the agent uploads a snapshot (5% of its
8 KiB blocks rewritten since the day before), restores one earlier
snapshot (oldest and newest in turn), expires the snapshot that falls out
of the window, and rotates the restore operator: the outgoing operator is
revoked lazily from the older snapshots, actively from the newest, and
from the ``config`` group.  A compaction pass ends the three days, and
the owner-down delete drill ends the round.
"""

from __future__ import annotations

from collections import deque

from inputs import KiB, MiB, cluster_rng, derived_seed, distinct_chunks

from repro.core.cluster import TcpCluster
from repro.core.groups import GroupManager
from repro.core.policy import FilePolicy
from repro.core.rekey import RevocationMode
from repro.mle.cache import DEFAULT_CACHE_BYTES
from repro.storage.repair import ReplicaRepairer
from repro.util.errors import AccessDeniedError, NotFoundError
from repro.workloads.synthetic import mutate, unique_data

NAME = "backup"
DATA_SERVERS = 4
REPLICAS = 2
SNAPSHOT_BYTES = 2 * MiB
CHURN = 0.05
BLOCK = 8 * KiB
RETENTION = 3
DAYS_PER_ROUND = 3
OPERATORS = 4
CONFIG_FILES = 8
CONFIG_BYTES = 16 * KiB
WARMUP_BYTES = 256 * KiB
#: Worker processes forked by the transform pool inherit the in-process
#: servers' sockets, so a killed node would keep its connections and port
#: (calls to it hang for the RPC timeout and its restart fails); one
#: worker keeps CAONT in-process and the drill possible.
ENCRYPTION_WORKERS = 1
#: The drill file does not depend on ``--seed``.
DRILL_DATA = unique_data(64 * KiB, seed=20160628)
AGENT = "backup-agent"
GROUP = "config"


def snapshot_id(day: int) -> str:
    return f"snapshot-{day:05d}"


def config_id(index: int) -> str:
    return f"config-{index}"


def config_data(seed: int, index: int) -> bytes:
    return unique_data(CONFIG_BYTES, seed=derived_seed(seed, "config", index))


def operator(day: int) -> str:
    """The restore operator who may read snapshots on ``day``."""
    return f"operator-{day % OPERATORS}"


def policy(day: int) -> FilePolicy:
    return FilePolicy.for_users([AGENT, operator(day)])


class Snapshots:
    """Day 0 is unique data; each later day rewrites ``CHURN`` of the
    previous day's blocks."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.day = -1
        self._data = b""

    def next(self) -> tuple[int, bytes]:
        self.day += 1
        if self.day == 0:
            self._data = unique_data(SNAPSHOT_BYTES, seed=derived_seed(self.seed, "day", 0))
        else:
            self._data = mutate(
                self._data, CHURN, seed=derived_seed(self.seed, "day", self.day), unit=BLOCK
            )
        return self.day, self._data


def expected_live(seed: int, rounds: int) -> list[bytes]:
    """The live inputs after ``rounds`` measured rounds: the last
    ``RETENTION`` snapshots plus the config files."""
    snapshots = Snapshots(seed)
    window: deque[bytes] = deque(maxlen=RETENTION)
    for _ in range(RETENTION + rounds * DAYS_PER_ROUND):
        window.append(snapshots.next()[1])
    return list(window) + [config_data(seed, i) for i in range(CONFIG_FILES)]


class World:
    """One booted, enrolled, warmed-up and pre-filled cluster."""

    replicas = REPLICAS

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cluster = TcpCluster(
            num_data_servers=DATA_SERVERS, replicas=REPLICAS, rng=cluster_rng(NAME, seed)
        )
        self.clients = []
        try:
            self._setup()
        except BaseException:
            self.close()
            raise

    def _new_client(self, user: str, **kwargs):
        client = self.cluster.new_client(user, **kwargs)
        self.clients.append(client)
        return client

    def _setup(self) -> None:
        self.agent = self._new_client(
            AGENT, cache_bytes=DEFAULT_CACHE_BYTES, encryption_workers=ENCRYPTION_WORKERS
        )
        self.operators = {
            operator(i): self._new_client(operator(i), owner=False) for i in range(OPERATORS)
        }
        self.groups = GroupManager(self.agent)
        agent = self.agent

        # Warm-up: lazy imports, both rekey paths and the first dials of
        # every client, on a file that is deleted and compacted away.
        warm = unique_data(WARMUP_BYTES, seed=derived_seed(self.seed, "warm-up"))
        agent.upload("warm-up", warm, policy=policy(0))
        if agent.download("warm-up").data != warm:
            raise RuntimeError("warm-up file restored with different bytes")
        agent.rekey("warm-up", policy(0), RevocationMode.LAZY)
        agent.rekey("warm-up", policy(0), RevocationMode.ACTIVE)
        for client in self.operators.values():
            try:
                client.download("warm-up")
            except AccessDeniedError:
                pass
        agent.delete("warm-up")
        agent.storage.gc_run()

        self.groups.create_group(GROUP, policy(0))
        self.config = {config_id(i): config_data(self.seed, i) for i in range(CONFIG_FILES)}
        for file_id, data in self.config.items():
            self.groups.upload(GROUP, file_id, data)

        self.snapshots = Snapshots(self.seed)
        self.live: deque[tuple[int, bytes]] = deque()
        for _ in range(RETENTION):
            day, data = self.snapshots.next()
            agent.upload(snapshot_id(day), data, policy=policy(day))
            self.live.append((day, data))
            self._rotate(day)
        #: ``stored_per_live`` after each round's compaction pass.
        self.stored_ratios: list[float] = []
        self.stored_bytes = 0

    def _rotate(self, day: int, ledger=None) -> None:
        """Hand the snapshots from ``operator(day)`` to ``operator(day+1)``."""
        new_policy = policy(day + 1)
        agent = self.agent

        def run(kind, action, units):
            return ledger.op(kind, action, units) if ledger else action()

        for old_day, _data in list(self.live)[:-1]:
            run(
                "revoke_lazy",
                lambda d=old_day: agent.rekey(snapshot_id(d), new_policy, RevocationMode.LAZY),
                1,
            )
        newest = snapshot_id(self.live[-1][0])
        run("revoke_active", lambda: agent.rekey(newest, new_policy, RevocationMode.ACTIVE), 1)
        result = run(
            "revoke_group",
            lambda: self.groups.rekey(GROUP, new_policy, RevocationMode.ACTIVE),
            len(self.config),
        )
        if ledger is None:
            return
        with ledger.untimed():
            ledger.check(result.files_rewrapped == len(self.config), "group rekey skipped files")
            revoked = self.operators[operator(day)]
            for file_id in (snapshot_id(self.live[0][0]), newest, config_id(day % CONFIG_FILES)):
                ledger.check(
                    _denied(revoked, file_id),
                    f"day {day}: revoked {revoked.user_id} can still read {file_id}",
                )
            admitted = self.operators[operator(day + 1)]
            file_id = config_id(day % CONFIG_FILES)
            ledger.check(
                admitted.download(file_id).data == self.config[file_id],
                f"day {day}: {admitted.user_id} reads wrong bytes of {file_id}",
            )

    def run_round(self, index: int, ledger) -> None:
        agent = self.agent
        for _ in range(DAYS_PER_ROUND):
            day, data = self.snapshots.next()
            ledger.op(
                "upload",
                lambda: agent.upload(snapshot_id(day), data, policy=policy(day)),
                len(data),
            )
            shape = "oldest" if day % 2 == 0 else "newest"
            old_day, old_data = self.live[0] if shape == "oldest" else self.live[-1]
            restored = ledger.op(
                "download", lambda: agent.download(snapshot_id(old_day)), len(old_data), shape
            )
            with ledger.untimed():
                ledger.check(restored.data == old_data, f"day {day}: snapshot {old_day} differs")
            self.live.append((day, data))

            gone_day, gone_data = self.live.popleft()
            gone = snapshot_id(gone_day)
            ledger.op("expire", lambda: agent.delete(gone), len(gone_data))
            with ledger.untimed():
                ledger.check(gone not in agent.storage.recipe_list(), f"{gone} still listed")
                ledger.check(_missing(agent, gone), f"{gone} still downloads")
            self._rotate(day, ledger)

        ledger.op("gc", agent.storage.gc_run)
        with ledger.untimed():
            self.stored_ratios.append(self._stored_per_live())
            self._drill(index, ledger)

    def _stored_per_live(self) -> float:
        held = sum(server.store.backend.total_bytes() for server in self.cluster.servers)
        held += self.cluster.keystore.backend.total_bytes()
        self.stored_bytes = held
        live = sum(len(data) for _day, data in self.live) + sum(map(len, self.config.values()))
        return held / live

    def _drill(self, index: int, ledger) -> None:
        """Delete a file while one owner of its recipe is down, restart
        the owner, repair, and check that the file stays deleted."""
        agent = self.agent
        file_id = f"drill-{index:05d}"
        agent.upload(file_id, DRILL_DATA)
        node = agent.storage.ring.preference(file_id, 1)[0]
        server = agent.storage.node_ids().index(node)
        self.cluster.kill_data_server(server)
        try:
            agent.delete(file_id)
        finally:
            self.cluster.restart_data_server(server)
        agent.storage.probe_nodes()
        ReplicaRepairer(agent.storage).run_once()
        listed = file_id in agent.storage.recipe_list()
        ledger.fault_check(
            not listed and _missing(agent, file_id),
            f"round {index}: {file_id}, deleted while {node} was down, is back after repair",
        )
        if listed:
            # Delete the resurrected copy so later checks see only live data.
            try:
                agent.delete(file_id)
            except NotFoundError:
                pass  # its key state was already gone

    def final_checks(self, ledger) -> None:
        agent = self.agent
        listed = {name for name in agent.storage.recipe_list() if name.startswith("snapshot-")}
        expected_ids = {snapshot_id(day) for day, _data in self.live}
        ledger.check(listed == expected_ids, f"listed snapshots {sorted(listed)}")
        for day, data in self.live:
            ledger.check(
                agent.download(snapshot_id(day)).data == data,
                f"snapshot {day} differs after compaction",
            )
        held = sum(len(server.store.list_chunks()) for server in self.cluster.servers)
        live = [data for _day, data in self.live] + list(self.config.values())
        expected = distinct_chunks(live)
        ledger.check(
            held == REPLICAS * expected,
            f"data servers hold {held} chunk copies, expected {REPLICAS} x {expected}",
        )

    def backends(self) -> list:
        return [server.store.backend for server in self.cluster.servers]

    def close(self) -> None:
        for client in self.clients:
            client.close()
            client.storage.close()
        self.cluster.stop()


def _denied(client, file_id: str) -> bool:
    try:
        client.download(file_id)
    except AccessDeniedError:
        return True
    return False


def _missing(client, file_id: str) -> bool:
    try:
        client.download(file_id)
    except NotFoundError:
        return True
    return False
