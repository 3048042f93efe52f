"""One request list, three execution tiers, one end state.

The RDMA substrate executes messages per packet (``RdmaClient.post``),
per work-request burst (``post_burst``) and per array burst
(``kernels.burst.write_rows`` / ``fetch_add_many``).  All three account
through the same ``Nic.charge`` / ``QueuePair.responder_commit`` /
``requester_commit`` / ``RdmaClient.note_posted``, so region bytes and
every counter must be *equal* — exact ``==``, busy time included —
whatever the QP census.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.transport import make_direct_client
from repro.kernels import burst as kburst
from repro.rdma.nic import FS_PER_NS, Nic
from repro.rdma.qp import QpState
from repro.rdma.verbs import Opcode, WorkRequest

REGION_BYTES = 512
#: Connected QPs on the collector NIC: inside the connection cache
#: (degradation 1.0) and past it (degradation ~1.32).
CENSUSES = (1, 40)


class Deployment:
    def __init__(self, census: int) -> None:
        self.nic = Nic("collector")
        self.region = self.nic.register_memory(REGION_BYTES)
        self.server = self.nic.create_qp()
        self.client = make_direct_client(self.nic, self.server)
        for _ in range(census - 1):
            self.nic.connect_qp(self.nic.create_qp(), dest_qpn=1)
        assert self.nic.active_qps == census

    def state(self) -> dict:
        qp = self.client.qp
        return {
            "memory": bytes(self.region.buf),
            "nic": self.nic.stats.as_dict(),
            "server": self.server.counters.as_dict(),
            "requester": qp.counters.as_dict(),
            "psn": (qp.send_psn, self.server.expected_psn, self.server.msn),
            "client": (self.client.posted, self.client.payload_bytes),
            "qp_state": (qp.state, self.server.state),
            "received": [(c.opcode, c.byte_len, c.data, c.imm)
                         for c in self.server.completions],
        }


def _uniform_plan(seed: int, writes: int = 24) -> list:
    """``(row_bytes | None, slots, payload)`` steps the array tier can
    run: two write sizes of ``writes`` rows each (into at most 64
    slots) and one fetch-add run, slots repeating."""
    rng = random.Random(seed)
    plan = []
    for row_bytes in (8, 16):
        slots = [rng.randrange(min(64, REGION_BYTES // row_bytes))
                 for _ in range(writes)]
        slots[5] = slots[11] = slots[0]         # last write must win
        plan.append((row_bytes, slots,
                     [rng.randbytes(row_bytes) for _ in slots]))
    slots = [rng.randrange(REGION_BYTES // 8) for _ in range(24)]
    slots[7] = slots[2]
    addends = [rng.randrange(1 << 62) for _ in slots]
    addends[3] = (1 << 63) - 1                  # wraps mod 2**64
    plan.append((None, slots, addends))
    return plan


def _uniform_requests(plan, region) -> list:
    wrs = []
    for row_bytes, slots, payload in plan:
        if row_bytes is None:
            wrs += [WorkRequest(Opcode.FETCH_ADD, rkey=region.rkey,
                                remote_addr=region.addr + 8 * slot,
                                swap=addend)
                    for slot, addend in zip(slots, payload)]
        else:
            wrs += [WorkRequest(Opcode.WRITE, rkey=region.rkey,
                                remote_addr=region.addr + row_bytes * slot,
                                data=row)
                    for slot, row in zip(slots, payload)]
    return wrs


def _mixed_requests(region) -> list:
    """Every verb, mixed payload sizes, a slot written twice."""
    addr, rkey = region.addr, region.rkey
    return [
        WorkRequest(Opcode.WRITE, addr, rkey, data=b"abcd"),
        WorkRequest(Opcode.WRITE, addr + 64, rkey, data=bytes(range(48))),
        WorkRequest(Opcode.FETCH_ADD, addr + 128, rkey, swap=7),
        WorkRequest(Opcode.WRITE_IMM, addr + 8, rkey, data=b"x" * 12,
                    imm=0xBEEF),
        WorkRequest(Opcode.READ, addr + 64, rkey, length=48),
        WorkRequest(Opcode.CMP_SWAP, addr + 128, rkey, compare=7, swap=99),
        WorkRequest(Opcode.CMP_SWAP, addr + 128, rkey, compare=7, swap=1),
        WorkRequest(Opcode.SEND, data=b"hello collector"),
        WorkRequest(Opcode.SEND, data=b"hello", imm=0xBEEF),
        WorkRequest(Opcode.WRITE, addr, rkey, data=b"wxyz"),
        WorkRequest(Opcode.FETCH_ADD, addr + 128, rkey, swap=(1 << 64) - 1),
        WorkRequest(Opcode.READ, addr + 128, rkey, length=8),
    ]


def _completions(client) -> list:
    return [(c.opcode, c.status, c.byte_len, c.data)
            for c in client.drain_completions()]


@pytest.mark.parametrize("census", CENSUSES)
def test_per_packet_equals_wr_burst_for_every_verb(census):
    packet, burst = Deployment(census), Deployment(census)
    for wr in _mixed_requests(packet.region):
        packet.client.post(wr)
    burst.client.post_burst(_mixed_requests(burst.region))

    assert packet.state() == burst.state()
    assert _completions(packet.client) == _completions(burst.client)
    assert packet.nic.stats.messages == 12
    assert packet.nic.stats.atomics == 4


def _mixed_signaling_requests(region) -> list:
    """:func:`_mixed_requests` with every other verb unsignaled."""
    wrs = _mixed_requests(region)
    for wr in wrs[::2]:
        wr.signaled = False
    return wrs


@pytest.mark.parametrize("census", CENSUSES)
def test_per_packet_equals_wr_burst_on_mixed_signaling(census):
    """Both tiers complete exactly the signaled verbs, alike."""
    packet, burst = Deployment(census), Deployment(census)
    for wr in _mixed_signaling_requests(packet.region):
        packet.client.post(wr)
    burst.client.post_burst(_mixed_signaling_requests(burst.region))

    assert packet.state() == burst.state()
    completions = _completions(packet.client)
    assert completions == _completions(burst.client)
    assert [opcode for opcode, *_ in completions] == [
        wr.opcode for wr in _mixed_signaling_requests(packet.region)
        if wr.signaled]


@pytest.mark.parametrize("census", CENSUSES)
def test_three_tiers_agree_on_uniform_bursts(census):
    # 10 000 writes into at most 64 slots: long runs of duplicate slots.
    for writes in (24, 10_000):
        _three_tiers_agree(census, writes)


def _three_tiers_agree(census: int, writes: int) -> None:
    plan = _uniform_plan(seed=census, writes=writes)
    packet, burst, array = (Deployment(census) for _ in range(3))
    for wr in _uniform_requests(plan, packet.region):
        packet.client.post(wr)
    burst.client.post_burst(_uniform_requests(plan, burst.region))
    for row_bytes, slots, payload in plan:
        atomic = row_bytes is None
        target = kburst.resolve_target(array.client, array.region.rkey,
                                       atomic=atomic)
        assert target is not None
        indices = np.asarray(slots, dtype=np.int64)
        if atomic:
            done = kburst.fetch_add_many(
                target, array.client, indices,
                np.asarray(payload, dtype=np.int64))
        else:
            done = kburst.write_rows(
                target, array.client, indices,
                np.frombuffer(b"".join(payload),
                              dtype=np.uint8).reshape(len(slots), row_bytes))
        assert done == len(slots)

    reference = packet.state()
    assert burst.state() == reference
    assert array.state() == reference

    model = packet.nic.model
    degradation = model.qp_degradation(census)
    assert (degradation > 1.0) == (census > model.qp_cache_size)
    per_message = [model.t_msg_ns + 8 * model.t_byte_ns,
                   model.t_msg_ns + 16 * model.t_byte_ns,
                   model.t_msg_ns * model.fetch_add_penalty]
    assert reference["nic"]["busy_fs"] == sum(
        count * round(t * degradation * FS_PER_NS)
        for count, t in zip((writes, writes, 24), per_message))


@pytest.mark.parametrize("census", CENSUSES)
def test_strided_rows_and_span_writes_agree_with_the_wr_burst(census):
    """The two shapes the stateful plans add: rows narrower than their
    stride (Postcarding: 20 B chunks on 32 B slots — the padding stays
    untouched) and a few contiguous writes of differing sizes (Append
    flushes, Sketch-Merge transfers), one of which overwrites another.
    Then the same with 10 000 rows on the region's 16 slots."""
    for writes in (5, 10_000):
        _strided_rows_and_spans_agree(census, writes)


def _strided_rows_and_spans_agree(census: int, writes: int) -> None:
    rng = random.Random(census)
    burst, array = Deployment(census), Deployment(census)
    for dep in (burst, array):
        dep.region.buf[:] = bytes(range(256)) * 2       # visible padding
    slots = [3, 9, 3, 0, 15]                            # slot 3 twice
    slots[4:] = [rng.randrange(REGION_BYTES // 32)
                 for _ in range(writes - 5)] + [15]
    rows = [rng.randbytes(20) for _ in slots]
    spans = [(2, rng.randbytes(48)), (10, rng.randbytes(16)),
             (4, rng.randbytes(48)), (3, rng.randbytes(32))]

    region = burst.region
    burst.client.post_burst(
        [WorkRequest(Opcode.WRITE, region.addr + 32 * slot, region.rkey,
                     data=row) for slot, row in zip(slots, rows)])
    burst.client.post_burst(
        [WorkRequest(Opcode.WRITE, region.addr + 16 * slot, region.rkey,
                     data=data) for slot, data in spans])

    target = kburst.resolve_target(array.client, array.region.rkey)
    assert kburst.write_rows(
        target, array.client, np.asarray(slots, dtype=np.int64),
        np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(writes, 20),
        32) == writes
    assert kburst.write_spans(
        target, array.client, [slot for slot, _ in spans],
        [data for _, data in spans], 16) == 4

    assert array.state() == burst.state()
    memory = array.state()["memory"]
    assert memory[32 * 15:32 * 15 + 20] == rows[-1]
    assert memory[32 * 15 + 20:32 * 16] == bytes(range(244, 256))
    assert memory[16 * 3:16 * 5] == spans[3][1]     # the later write won


def test_array_tiers_decline_out_of_bounds_with_nothing_touched():
    dep = Deployment(1)
    before = dep.state()
    target = kburst.resolve_target(dep.client, dep.region.rkey)
    rows = np.zeros((2, 20), dtype=np.uint8)
    # 2**62 - 1 is in int64 range, but its ``slot * n`` key is not.
    for indices in ([0, REGION_BYTES // 32], [-1, 0], [(1 << 62) - 1, 0]):
        assert kburst.write_rows(target, dep.client,
                                 np.asarray(indices, dtype=np.int64),
                                 rows, 32) is None
    assert kburst.write_rows(target, dep.client,
                             np.asarray([0, 1], dtype=np.int64),
                             rows, 16) is None          # row wider than stride
    for slots in ([0, REGION_BYTES // 16 - 1], [-1, 0]):
        assert kburst.write_spans(target, dep.client, slots,
                                  [bytes(16), bytes(32)], 16) is None
    assert dep.state() == before


def test_revoked_region_mid_burst_faults_both_scalar_tiers_alike():
    """Writes, then a write to a revoked region, with more queued
    behind it: both tiers commit the prefix, charge and NAK the
    offender, and recover (replaying what was queued) identically."""
    def requests(dep, revoked):
        addr, rkey = dep.region.addr, dep.region.rkey
        return [
            WorkRequest(Opcode.WRITE, addr, rkey, data=b"before!!"),
            WorkRequest(Opcode.FETCH_ADD, addr + 8, rkey, swap=5),
            WorkRequest(Opcode.WRITE, revoked.addr, revoked.rkey,
                        data=b"denied"),
            WorkRequest(Opcode.WRITE, addr + 16, rkey, data=b"after"),
        ]

    states = []
    for tier in ("packet", "burst"):
        dep = Deployment(1)
        revoked = dep.nic.register_memory(64)
        revoked.invalidate()
        wrs = requests(dep, revoked)
        if tier == "packet":
            for wr in wrs:
                dep.client.post(wr)
        else:
            dep.client.post_burst(wrs)
        state = dep.state()
        # Recovery re-handshakes with PSNs drawn from a process-wide
        # seed: only their agreement is comparable across deployments.
        send_psn, expected_psn, _msn = state.pop("psn")
        assert send_psn == expected_psn
        state["revoked"] = bytes(revoked.buf)
        state["recovery"] = (dep.client.recoveries,
                             dep.client.recovery_failures)
        state["statuses"] = [(c.opcode, c.status)
                             for c in dep.client.drain_completions()]
        states.append(state)

    packet, burst = states
    assert packet == burst
    assert packet["revoked"] == bytes(64)
    assert packet["recovery"] == (1, 0)
    assert packet["qp_state"] == (QpState.RTS, QpState.RTS)
    assert packet["memory"][:8] == b"before!!"
    assert packet["memory"][16:21] == b"after"
