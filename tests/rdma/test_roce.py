"""RoCEv2 codec: round-trips, header sizes, malformed input."""

import pytest
from hypothesis import given, strategies as st

from repro.rdma import roce
from repro.rdma.verbs import Opcode


class TestEncodeDecode:
    def test_write_roundtrip(self):
        raw = roce.encode_request(Opcode.WRITE, dest_qp=7, psn=42,
                                  remote_addr=0x1000, rkey=0xAB,
                                  payload=b"data")
        pkt = roce.decode(raw)
        assert pkt.verb == Opcode.WRITE
        assert pkt.bth.dest_qp == 7
        assert pkt.bth.psn == 42
        assert pkt.remote_addr == 0x1000
        assert pkt.rkey == 0xAB
        assert pkt.payload == b"data"

    def test_write_imm_carries_immediate(self):
        raw = roce.encode_request(Opcode.WRITE_IMM, dest_qp=1, psn=0,
                                  remote_addr=8, rkey=2, payload=b"x",
                                  imm=0xCAFE)
        pkt = roce.decode(raw)
        assert pkt.verb == Opcode.WRITE_IMM
        assert pkt.imm == 0xCAFE
        assert pkt.payload == b"x"

    def test_read_roundtrip(self):
        raw = roce.encode_request(Opcode.READ, dest_qp=3, psn=9,
                                  remote_addr=0x20, rkey=5, read_length=128)
        pkt = roce.decode(raw)
        assert pkt.verb == Opcode.READ
        assert pkt.dma_length == 128
        assert pkt.payload == b""

    def test_fetch_add_roundtrip(self):
        raw = roce.encode_request(Opcode.FETCH_ADD, dest_qp=2, psn=1,
                                  remote_addr=0x40, rkey=6, swap=99)
        pkt = roce.decode(raw)
        assert pkt.verb == Opcode.FETCH_ADD
        assert pkt.swap == 99

    def test_cmp_swap_roundtrip(self):
        raw = roce.encode_request(Opcode.CMP_SWAP, dest_qp=2, psn=1,
                                  remote_addr=0x40, rkey=6,
                                  compare=11, swap=22)
        pkt = roce.decode(raw)
        assert pkt.verb == Opcode.CMP_SWAP
        assert pkt.compare == 11
        assert pkt.swap == 22

    def test_send_roundtrip(self):
        raw = roce.encode_request(Opcode.SEND, dest_qp=4, psn=5,
                                  payload=b"advert")
        pkt = roce.decode(raw)
        assert pkt.verb == Opcode.SEND
        assert pkt.payload == b"advert"
        assert pkt.imm is None

    def test_send_with_immediate_roundtrip(self):
        raw = roce.encode_request(Opcode.SEND, dest_qp=4, psn=5,
                                  payload=b"hello", imm=0xBEEF)
        assert roce.Bth.unpack(raw).opcode == \
            roce.BthOpcode.RC_SEND_ONLY_WITH_IMMEDIATE
        pkt = roce.decode(raw)
        assert pkt.verb == Opcode.SEND
        assert pkt.imm == 0xBEEF
        assert pkt.payload == b"hello"
        assert pkt.wire_size == len(raw)

    def test_ack_roundtrip(self):
        raw = roce.encode_ack(dest_qp=9, psn=77, syndrome=0, msn=3)
        pkt = roce.decode(raw)
        assert pkt.is_ack
        assert pkt.syndrome == 0
        assert pkt.msn == 3
        assert pkt.bth.psn == 77

    def test_nak_roundtrip(self):
        raw = roce.encode_ack(dest_qp=9, psn=12, syndrome=0x60, msn=1)
        pkt = roce.decode(raw)
        assert pkt.syndrome == 0x60

    def test_read_response_carries_data(self):
        raw = roce.encode_ack(dest_qp=9, psn=12, payload=b"\x01\x02")
        pkt = roce.decode(raw)
        assert pkt.payload == b"\x01\x02"

    def test_atomic_ack_flagged(self):
        raw = roce.encode_ack(dest_qp=9, psn=12, payload=b"\x00" * 8,
                              atomic=True)
        pkt = roce.decode(raw)
        assert pkt.bth.opcode == roce.BthOpcode.RC_ATOMIC_ACKNOWLEDGE


class TestRobustness:
    def test_truncated_bth_raises(self):
        with pytest.raises(roce.RoceDecodeError):
            roce.decode(b"\x00\x01")

    def test_unknown_opcode_raises(self):
        raw = bytearray(roce.encode_request(
            Opcode.WRITE, dest_qp=1, psn=0, remote_addr=0, rkey=0,
            payload=b""))
        raw[0] = 0xEE
        with pytest.raises(roce.RoceDecodeError):
            roce.decode(bytes(raw))

    def test_psn_wraps_24_bits(self):
        raw = roce.encode_request(Opcode.WRITE, dest_qp=1,
                                  psn=(1 << 24) + 5, remote_addr=0, rkey=0,
                                  payload=b"")
        assert roce.decode(raw).bth.psn == 5

    @given(st.binary(max_size=64), st.integers(0, 0xFFFFFF),
           st.integers(0, 0xFFFFFF))
    def test_write_roundtrip_property(self, payload, qp, psn):
        raw = roce.encode_request(Opcode.WRITE, dest_qp=qp, psn=psn,
                                  remote_addr=0xFFFF, rkey=1,
                                  payload=payload)
        pkt = roce.decode(raw)
        assert pkt.payload == payload
        assert pkt.bth.dest_qp == qp
        assert pkt.bth.psn == psn
