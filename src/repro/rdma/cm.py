"""A minimal RDMA_CM-style connection manager.

Section 4.2: "A translator controller ... is in charge of setting up the
RDMA connection to the collector by crafting RDMA Communication Manager
(RDMA_CM) packets, which are then injected into the ASIC."  We model the
same three-way exchange (REQ / REP / RTU) over plain message passing and
the metadata advertisement the collector performs over RDMA Send
(Section 4.3): each primitive service publishes its region address,
rkey, and layout parameters on a distinct CM port.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.rdma.nic import Nic
from repro.rdma.qp import QpState, QueuePair


@dataclass(frozen=True)
class ServiceAdvert:
    """Metadata a collector service advertises to its translator.

    Mirrors the RDMA-Send advertisement of Section 4.3: where the
    primitive's memory region lives and how it is laid out.
    """

    primitive: str
    addr: int
    rkey: int
    length: int
    params: dict = field(default_factory=dict, hash=False)


@dataclass
class Connection:
    """An established translator<->collector RDMA connection."""

    local_qp: QueuePair
    remote_qp: QueuePair
    advert: ServiceAdvert


class CmListener:
    """Collector-side CM endpoint: one listening port per primitive."""

    _psn_seed = itertools.count(100)

    def __init__(self, nic: Nic) -> None:
        self.nic = nic
        self._services: dict[int, ServiceAdvert] = {}
        self.connections: list[Connection] = []

    def listen(self, port: int, advert: ServiceAdvert) -> None:
        """Bind a primitive's advertisement to a CM port."""
        if port in self._services:
            raise ValueError(f"CM port {port} already bound")
        self._services[port] = advert

    def ports(self) -> dict[int, ServiceAdvert]:
        return dict(self._services)

    def handle_connect(self, port: int,
                       client_nic: Nic) -> tuple[Connection, ServiceAdvert]:
        """Accept a REQ on ``port``: create QPs both sides, wire them up.

        Returns the established connection (client perspective is the
        ``local_qp`` of the returned Connection's *remote* NIC) and the
        advert so the client learns the memory layout.
        """
        advert = self._services.get(port)
        if advert is None:
            raise ConnectionRefusedError(f"no service on CM port {port}")
        server_qp = self.nic.create_qp()
        client_qp = client_nic.create_qp()
        psn_a = next(self._psn_seed)
        psn_b = next(self._psn_seed)
        self.nic.connect_qp(server_qp, client_qp.qpn,
                            send_psn=psn_a, expected_psn=psn_b)
        client_nic.connect_qp(client_qp, server_qp.qpn,
                              send_psn=psn_b, expected_psn=psn_a)
        conn = Connection(local_qp=client_qp, remote_qp=server_qp,
                          advert=advert)
        self.connections.append(conn)
        return conn, advert


def reestablish(server_nic: Nic, server_qp: QueuePair,
                client_qp: QueuePair) -> tuple[int, int]:
    """Re-handshake an errored connection: ERROR -> RESET -> ... -> RTS.

    Models the translator controller re-running the CM exchange after a
    fatal NAK tore the connection down (Section 4.2: the controller
    crafts the RDMA_CM packets).  Both halves reset — preserving their
    construction-time configuration, see
    :meth:`repro.rdma.qp.QueuePair.modify` — and walk back to RTS with
    fresh PSNs so stale in-flight packets from the dead incarnation are
    rejected as sequence errors rather than executed.

    Returns the ``(server_send_psn, client_send_psn)`` pair chosen for
    the new incarnation.
    """
    psn_server = next(CmListener._psn_seed)
    psn_client = next(CmListener._psn_seed)
    server_qp.modify(QpState.RESET)
    client_qp.modify(QpState.RESET)
    server_nic.connect_qp(server_qp, client_qp.qpn,
                          send_psn=psn_server, expected_psn=psn_client)
    client_qp.modify(QpState.INIT)
    client_qp.modify(QpState.RTR, dest_qpn=server_qp.qpn,
                     expected_psn=psn_server)
    client_qp.modify(QpState.RTS, send_psn=psn_client)
    return psn_server, psn_client
