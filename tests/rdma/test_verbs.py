"""Work requests/completions: byte accounting and classification."""

import pytest

from repro.core.transport import make_direct_client
from repro.rdma.nic import Nic
from repro.rdma.verbs import Opcode, WcStatus, WorkCompletion, WorkRequest


class TestOpcodeProperties:
    def test_atomics_classified(self):
        assert Opcode.FETCH_ADD.is_atomic
        assert Opcode.CMP_SWAP.is_atomic
        assert not Opcode.WRITE.is_atomic
        assert not Opcode.READ.is_atomic

    def test_response_requirements(self):
        assert Opcode.READ.needs_response
        assert Opcode.FETCH_ADD.needs_response
        assert not Opcode.WRITE.needs_response
        assert not Opcode.SEND.needs_response


class TestByteAccounting:
    def test_write_payload_is_data_length(self):
        wr = WorkRequest(opcode=Opcode.WRITE, data=b"\x00" * 24)
        assert wr.payload_bytes == 24

    def test_read_moves_bytes_backward(self):
        wr = WorkRequest(opcode=Opcode.READ, length=128)
        assert wr.payload_bytes == 0

    def test_atomic_is_word_sized_both_ways(self):
        wr = WorkRequest(opcode=Opcode.FETCH_ADD, swap=5)
        assert wr.payload_bytes == 8

    def test_narrow_atomic_width(self):
        """An atomic is one 8-byte word on both tiers: +1 on two words
        of ``0xff`` wraps the first and leaves the second, 8 bytes are
        counted posted, and no request takes a narrower width."""
        with pytest.raises(TypeError):
            WorkRequest(opcode=Opcode.FETCH_ADD, swap=1, atomic_width=4)
        for burst in (False, True):
            nic = Nic("collector")
            region = nic.register_memory(16)
            region.buf[:] = b"\xff" * 16
            client = make_direct_client(nic, nic.create_qp())
            wr = WorkRequest(opcode=Opcode.FETCH_ADD, rkey=region.rkey,
                             remote_addr=region.addr, swap=1)
            client.post_burst([wr]) if burst else client.post(wr)
            assert bytes(region.buf).hex() == "00" * 8 + "ff" * 8, burst
            assert client.payload_bytes == 8, burst

    def test_wr_ids_unique(self):
        a = WorkRequest(opcode=Opcode.WRITE)
        b = WorkRequest(opcode=Opcode.WRITE)
        assert a.wr_id != b.wr_id


class TestCompletion:
    def test_ok_only_on_success(self):
        assert WorkCompletion(wr_id=1, opcode=Opcode.WRITE,
                              status=WcStatus.SUCCESS).ok
        assert not WorkCompletion(wr_id=1, opcode=Opcode.WRITE,
                                  status=WcStatus.RETRY_EXC_ERR).ok
