"""The ``revoke`` workload: one owner and 8 members sharing many small
files on 4 data servers at ``replicas=1`` (the paper's topology).

The owner has no MLE key cache.  File sizes come from a seeded ladder of
16 sizes, one drawn log-uniformly from each of 16 equal log-width strata
of 4-256 KiB.  Per-file files live in batches of 4 that take every fourth
rung, so each batch spans the whole range and four rounds cover the
ladder; 12 batches are live at the start of every round, and the 16
files of one group take the 16 rungs.
Round ``k`` revokes member ``k mod 8`` and re-admits the member revoked
the round before:

1. the owner uploads a new batch;
2. it revokes the member lazily from 4 batches and actively from 2
   (per-file ``revoke_users``), then from the group (pipelined, active);
3. it re-admits last round's member to the 6 batches and the group it
   was revoked from (lazy rekeys);
4. a remaining member reads the new batch and a group file, and the
   re-admitted member reads a re-admitted batch and a group file;
5. the oldest batch expires and a compaction pass runs.

The batches revoked in consecutive rounds alternate in parity, so every
file lacks at most one member at any time.
"""

from __future__ import annotations

from inputs import KiB, cluster_rng, derived_seed, distinct_chunks, stratified_sizes

from repro.core.cluster import TcpCluster
from repro.core.groups import GroupManager
from repro.core.policy import FilePolicy
from repro.core.rekey import RevocationMode
from repro.util.errors import AccessDeniedError, NotFoundError
from repro.workloads.synthetic import unique_data

NAME = "revoke"
DATA_SERVERS = 4
REPLICAS = 1
MEMBERS = 8
BATCH_FILES = 4
POOL_BATCHES = 12
LAZY_BATCHES = 4
ACTIVE_BATCHES = 2
GROUP_FILES = 16  # one file per ladder rung
LADDER = GROUP_FILES
MIN_FILE = 4 * KiB
MAX_FILE = 256 * KiB
OWNER = "owner"
GROUP = "project"


def member(index: int) -> str:
    return f"member-{index % MEMBERS}"


EVERYONE = [OWNER] + [member(i) for i in range(MEMBERS)]


def file_id(batch: int, index: int) -> str:
    return f"file-{batch:05d}-{index}"


def group_file_id(index: int) -> str:
    return f"group-{index:02d}"


def ladder(seed: int) -> list[int]:
    return stratified_sizes(derived_seed(seed, "sizes"), LADDER, MIN_FILE, MAX_FILE)


def rungs(batch: int) -> list[int]:
    """The ladder rungs of a batch's files."""
    phase = batch % (LADDER // BATCH_FILES)
    return [phase + i * LADDER // BATCH_FILES for i in range(BATCH_FILES)]


def batch_data(seed: int, batch: int) -> dict[str, bytes]:
    sizes = ladder(seed)
    return {
        file_id(batch, i): unique_data(sizes[rung], seed=derived_seed(seed, "file", batch, i))
        for i, rung in enumerate(rungs(batch))
    }


def group_data(seed: int) -> dict[str, bytes]:
    return {
        group_file_id(rung): unique_data(size, seed=derived_seed(seed, "group", rung))
        for rung, size in enumerate(ladder(seed))
    }


def revoked_batches(round_index: int) -> tuple[list[int], list[int]]:
    """(lazy, active) batches round ``round_index`` revokes from: every
    other live batch after the oldest, so consecutive rounds are
    disjoint."""
    batches = list(range(round_index + 1, round_index + POOL_BATCHES, 2))
    return batches[:LAZY_BATCHES], batches[LAZY_BATCHES:LAZY_BATCHES + ACTIVE_BATCHES]


def expected_live(seed: int, rounds: int) -> list[bytes]:
    """The live inputs after ``rounds`` measured rounds."""
    blobs = list(group_data(seed).values())
    for batch in range(rounds, rounds + POOL_BATCHES):
        blobs.extend(batch_data(seed, batch).values())
    return blobs


class World:
    """One booted, enrolled, warmed-up and populated cluster."""

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
        self.owner = self._new_client(OWNER)
        self.members = {member(i): self._new_client(member(i), owner=False) for i in range(MEMBERS)}
        self.groups = GroupManager(self.owner)
        owner = self.owner
        everyone = FilePolicy.for_users(EVERYONE)

        # Warm-up: lazy imports, both rekey paths and every client's first
        # dials, on a file that is deleted and compacted away.
        warm = unique_data(64 * KiB, seed=derived_seed(self.seed, "warm-up"))
        owner.upload("warm-up", warm, policy=everyone)
        for client in self.members.values():
            if client.download("warm-up").data != warm:
                raise RuntimeError("warm-up file restored with different bytes")
        owner.revoke_users("warm-up", {member(0)}, RevocationMode.LAZY)
        owner.revoke_users("warm-up", {member(1)}, RevocationMode.ACTIVE)
        owner.rekey("warm-up", everyone, RevocationMode.LAZY)
        owner.delete("warm-up")
        owner.storage.gc_run()

        self.groups.create_group(GROUP, everyone)
        self.group_files = group_data(self.seed)
        for name, data in self.group_files.items():
            self.groups.upload(GROUP, name, data)
        self.batches = {}
        for batch in range(POOL_BATCHES):
            self.batches[batch] = batch_data(self.seed, batch)
            for name, data in self.batches[batch].items():
                owner.upload(name, data, policy=everyone)

        # Round -1's revocations, so round 0 has a member to re-admit.
        lazy, active = revoked_batches(-1)
        for batch, mode in [(b, RevocationMode.LAZY) for b in lazy] + [
            (b, RevocationMode.ACTIVE) for b in active
        ]:
            for name in self.batches[batch]:
                owner.revoke_users(name, {member(-1)}, mode)
        self.groups.revoke_users(GROUP, {member(-1)}, RevocationMode.ACTIVE)
        #: ``stored_per_live`` after each round's compaction pass.
        self.stored_ratios: list[float] = []
        self.stored_bytes = 0

    def run_round(self, index: int, ledger) -> None:
        owner = self.owner
        revoked, readmitted = member(index), member(index - 1)
        reader = self.members[member(index + MEMBERS // 2)]
        everyone = FilePolicy.for_users(EVERYONE)

        new = POOL_BATCHES + index
        self.batches[new] = batch_data(self.seed, new)
        for rung, (name, data) in zip(rungs(new), self.batches[new].items()):
            ledger.op(
                "upload", lambda: owner.upload(name, data, policy=everyone), len(data), rung
            )

        lazy, active = revoked_batches(index)
        for kind, mode, batches in (
            ("revoke_lazy", RevocationMode.LAZY, lazy),
            ("revoke_active", RevocationMode.ACTIVE, active),
        ):
            for batch in batches:
                for name in self.batches[batch]:
                    ledger.op(kind, lambda: owner.revoke_users(name, {revoked}, mode), 1)
        result = ledger.op(
            "revoke_group",
            lambda: self.groups.revoke_users(GROUP, {revoked}, RevocationMode.ACTIVE),
            len(self.group_files),
        )
        with ledger.untimed():
            ledger.check(result.files_rewrapped == GROUP_FILES, "group revocation skipped files")
            loser = self.members[revoked]
            names = [name for batch in lazy + active for name in self.batches[batch]]
            names += [group_file_id(index % GROUP_FILES), group_file_id((index + 7) % GROUP_FILES)]
            for name in names:
                ledger.check(_denied(loser, name), f"round {index}: {revoked} still reads {name}")

        back_lazy, back_active = revoked_batches(index - 1)
        for batch in back_lazy + back_active:
            for name in self.batches[batch]:
                ledger.op("readmit", lambda: _readmit(owner, name, readmitted), 1)
        ledger.op("readmit_group", lambda: self.groups.rekey(
            GROUP, _with_user(owner, owner.group_record_id(GROUP), readmitted),
            RevocationMode.LAZY,
        ))

        back = back_lazy[1]
        reads = [
            (reader, name, data, ("new", rung))
            for rung, (name, data) in zip(rungs(new), self.batches[new].items())
        ]
        reads += [
            (self.members[readmitted], name, data, ("readmitted", rung))
            for rung, (name, data) in zip(rungs(back), self.batches[back].items())
        ]
        phase = index % (LADDER // BATCH_FILES)
        for client, rung in ((reader, 4 * phase + 1), (self.members[readmitted], 4 * phase + 2)):
            name = group_file_id(rung)
            reads.append((client, name, self.group_files[name], ("group", rung)))
        for client, name, data, shape in reads:
            restored = ledger.op("download", lambda: client.download(name), len(data), shape)
            with ledger.untimed():
                ledger.check(
                    restored.data == data, f"round {index}: {client.user_id} reads wrong {name}"
                )

        expired = self.batches.pop(index)
        for rung, (name, data) in zip(rungs(index), expired.items()):
            ledger.op("expire", lambda: owner.delete(name), len(data), rung)
        ledger.op("gc", owner.storage.gc_run)
        with ledger.untimed():
            listed = set(owner.storage.recipe_list())
            for name in expired:
                ledger.check(name not in listed, f"expired {name} still listed")
                ledger.check(_missing(owner, name), f"expired {name} still downloads")
            self.stored_ratios.append(self._stored_per_live())

    def _live(self) -> list[bytes]:
        blobs = list(self.group_files.values())
        for batch in self.batches.values():
            blobs.extend(batch.values())
        return blobs

    def _stored_per_live(self) -> float:
        held = sum(server.store.backend.total_bytes() for server in self.cluster.servers)
        held += self.cluster.keystore.backend.total_bytes()
        self.stored_bytes = held
        return held / sum(map(len, self._live()))

    def final_checks(self, ledger) -> None:
        listed = {name for name in self.owner.storage.recipe_list() if name.startswith("file-")}
        expected_ids = {name for batch in self.batches.values() for name in batch}
        ledger.check(
            listed == expected_ids, f"listed files differ: {sorted(listed ^ expected_ids)}"
        )
        held = sum(len(server.store.list_chunks()) for server in self.cluster.servers)
        expected = distinct_chunks(self._live())
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


def _with_user(client, record_id: str, user: str) -> FilePolicy:
    """The record's current policy with ``user`` added back."""
    current = FilePolicy.parse(client.keystore.get(record_id).policy_text)
    return FilePolicy.for_users(current.authorized_users + [user])


def _readmit(owner, name: str, user: str):
    return owner.rekey(name, _with_user(owner, name, user), RevocationMode.LAZY)


def _denied(client, name: str) -> bool:
    try:
        client.download(name)
    except AccessDeniedError:
        return True
    return False


def _missing(client, name: str) -> bool:
    try:
        client.download(name)
    except NotFoundError:
        return True
    return False
