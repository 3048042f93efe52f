"""Vectorized numeric kernels for the batched hot path.

The scalar implementations (``repro.switch.crc``, the per-verb
translator lanes) remain the reference semantics; every kernel in this
package is differentially tested to be *bit-exact* against them — same
hash values, same store bytes, same obs digests — so flipping
vectorization on changes throughput and nothing else.  The layout
mirrors the hot path it accelerates:

* :mod:`repro.kernels.crc` — table-driven CRC/hash-family lanes over
  whole key batches (numpy column-at-a-time table walks).
* :mod:`repro.kernels.wire` — the socket lane's envelope frames and DTA
  reports decoded a whole frame at a time into batch columns.
* :mod:`repro.kernels.burst` — whole-burst RDMA write/atomic execution
  against a direct-mode collector: one numpy scatter, accounted through
  :mod:`repro.rdma`'s own charge and commit methods.
"""

from __future__ import annotations

#: Below this batch size the scalar reference path is used even when
#: vectorization is enabled: per-call numpy overhead (array creation,
#: dtype promotion) exceeds the per-report savings for tiny batches.
MIN_VECTOR_BATCH = 4

__all__ = ["MIN_VECTOR_BATCH"]
