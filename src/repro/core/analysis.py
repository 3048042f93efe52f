"""Closed-form probabilistic analysis of Key-Write and Postcarding.

Implements the bounds of Sections 3.2 / A.6 / A.7:

* Key-Write *empty return* (the store cannot answer; Equations 1-3)
  and *return error* (it answers wrongly; Equation 4).
* Postcarding analogues (Equations 5-8 / 9-12).
* The Poisson overwrite approximation underlying both: after K = αM
  distinct-key writes, any one of a key's N slots was overwritten with
  probability ``1 - exp(-α N)`` (each write consumes N slots, hence the
  N in the exponent).
* Load-averaged query success rates and the optimal-N analysis of
  Fig. 18, and the data-longevity curves of Fig. 20.

Numeric examples from the paper double as regression tests:
``N=2, b=32, α=0.1`` gives ≤3.3 % empty / ≤1.6e-11 wrong for Key-Write,
and ≤3.3 % / <1e-22 for Postcarding with ``|V|=2^18, B=5``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _check_common(alpha: float, redundancy: int) -> None:
    if alpha < 0:
        raise ValueError("alpha (load since write) must be >= 0")
    if redundancy < 1:
        raise ValueError("redundancy must be >= 1")


def overwrite_probability(alpha: float, redundancy: int) -> float:
    """P(one specific slot was overwritten) = 1 - exp(-alpha*N).

    ``alpha`` is the number of later-written distinct keys over the
    number of slots M; each of those keys writes N slots.
    """
    _check_common(alpha, redundancy)
    return 1.0 - math.exp(-alpha * redundancy)


# ---------------------------------------------------------------------------
# Key-Write (Appendix A.6, Equations 1-4)
# ---------------------------------------------------------------------------

def keywrite_empty_return(alpha: float, redundancy: int = 2,
                          checksum_bits: int = 32) -> float:
    """Upper bound on P(no output for a written key) — Equations 1-3."""
    _check_common(alpha, redundancy)
    n, b = redundancy, checksum_bits
    p = overwrite_probability(alpha, n)
    q = 2.0 ** -b                       # checksum collision probability
    keep = 1.0 - q

    # (1) every slot overwritten, none of the overwriters shares our
    # checksum -> nothing to return.
    term1 = p ** n * keep ** n
    # (2) every slot overwritten and >= 2 overwriters share our checksum
    # (conflicting candidates -> empty return under the single-match rule).
    term2 = p ** n * (1.0 - keep ** n - n * q * keep ** (n - 1))
    # (3) some slots survive, but >= 1 overwritten slot forged our
    # checksum, creating a conflicting candidate.
    term3 = 0.0
    for j in range(1, n):
        term3 += (math.comb(n, j) * p ** j
                  * math.exp(-alpha * n * (n - j))
                  * (1.0 - keep ** j))
    return min(1.0, term1 + term2 + term3)


def keywrite_wrong_output(alpha: float, redundancy: int = 2,
                          checksum_bits: int = 32) -> float:
    """Upper bound on P(returning an incorrect value) — Equation 4."""
    _check_common(alpha, redundancy)
    n, b = redundancy, checksum_bits
    p = overwrite_probability(alpha, n)
    return min(1.0, p ** n * n * 2.0 ** -b)


def keywrite_success(alpha: float, redundancy: int = 2,
                     checksum_bits: int = 32) -> float:
    """P(query answers, correctly): 1 - empty - wrong (lower bound)."""
    return max(0.0, 1.0
               - keywrite_empty_return(alpha, redundancy, checksum_bits)
               - keywrite_wrong_output(alpha, redundancy, checksum_bits))


# ---------------------------------------------------------------------------
# Postcarding (Appendix A.7, Equations 5-8 / 9-12)
# ---------------------------------------------------------------------------

def postcarding_valid_collision(value_set_size: int, slot_bits: int,
                                hops: int) -> float:
    """P(an overwritten chunk decodes as *valid* for our key).

    Each of the B slots must decode into V ∪ {⊔}: ((|V|+1)·2^-b)^B.
    """
    if value_set_size < 1 or hops < 1:
        raise ValueError("value_set_size and hops must be >= 1")
    per_slot = (value_set_size + 1) * 2.0 ** -slot_bits
    return min(1.0, per_slot ** hops)


def postcarding_empty_return(alpha: float, redundancy: int = 1,
                             value_set_size: int = 2 ** 18,
                             slot_bits: int = 32, hops: int = 5) -> float:
    """Upper bound on P(no output for a collected report) — Eqs. 9-11."""
    _check_common(alpha, redundancy)
    n = redundancy
    p = overwrite_probability(alpha, n)
    q = postcarding_valid_collision(value_set_size, slot_bits, hops)
    keep = 1.0 - q

    term1 = p ** n * keep ** n                                   # (9)
    term2 = p ** n * (1.0 - keep ** n - n * q * keep ** (n - 1))  # (10)
    term3 = 0.0                                                  # (11)
    for j in range(1, n):
        term3 += (math.comb(n, j) * p ** j
                  * math.exp(-alpha * n * (n - j))
                  * (1.0 - keep ** j))
    return min(1.0, term1 + term2 + term3)


def postcarding_wrong_output(alpha: float, redundancy: int = 1,
                             value_set_size: int = 2 ** 18,
                             slot_bits: int = 32, hops: int = 5) -> float:
    """Upper bound on P(answering with a wrong path) — Equation 12."""
    _check_common(alpha, redundancy)
    n = redundancy
    p = overwrite_probability(alpha, n)
    q = postcarding_valid_collision(value_set_size, slot_bits, hops)
    return min(1.0, p ** n * n * q)


def keywrite_per_hop_wrong_output(alpha: float, redundancy: int,
                                  checksum_bits: int, hops: int) -> float:
    """Wrong-output probability when KW stores each hop separately.

    The Section 3.2 comparison: per-hop KW wrong output summed over B
    hops (union bound) — ~8e-11 for N=2, b=32, B=5, α=0.1, versus
    Postcarding's <1e-22 at *half* the per-entry width.
    """
    per_hop = keywrite_wrong_output(alpha, redundancy, checksum_bits)
    return min(1.0, hops * per_hop)


# ---------------------------------------------------------------------------
# Load-averaged success and optimal redundancy (Fig. 18)
# ---------------------------------------------------------------------------

def average_success_at_load(load_factor: float, redundancy: int = 2,
                            checksum_bits: int = 32,
                            samples: int = 256) -> float:
    """Mean query success over key ages at a given load factor.

    The load factor is (total keys written) / M.  For a uniformly random
    previously-written key, the number written after it is uniform in
    [0, load*M], so we average the per-age success over α ∈ [0, load].
    (Numeric midpoint integration; ``samples`` controls resolution.)
    """
    if load_factor < 0:
        raise ValueError("load factor must be >= 0")
    if load_factor == 0:
        return 1.0
    total = 0.0
    for i in range(samples):
        alpha = load_factor * (i + 0.5) / samples
        total += keywrite_success(alpha, redundancy, checksum_bits)
    return total / samples


def optimal_redundancy(load_factor: float,
                       candidates: tuple = (1, 2, 4),
                       checksum_bits: int = 32) -> int:
    """The N among ``candidates`` maximising average success (Fig. 18).

    Low loads favour larger N (more copies survive); high loads favour
    N=1 (each key's extra copies evict other keys' data).
    """
    return max(candidates,
               key=lambda n: average_success_at_load(load_factor, n,
                                                     checksum_bits))


# ---------------------------------------------------------------------------
# Data longevity (Fig. 20)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LongevityPoint:
    """One (storage, age) point of the Fig. 20 longevity surface."""

    storage_bytes: float
    age_reports: float
    success: float


def longevity_success(storage_bytes: float, age_reports: float, *,
                      data_bytes: int = 20, checksum_bits: int = 32,
                      redundancy: int = 2) -> float:
    """Queryability of a report with ``age_reports`` newer reports.

    Fig. 20's setup: INT 5-hop path tracing (20 B values + 4 B
    checksums), N=2.  A storage of S bytes provides M = S / slot
    slots; the age maps to α = age / M.
    """
    slot_bytes = checksum_bits // 8 + data_bytes
    slots = storage_bytes / slot_bytes
    if slots < 1:
        raise ValueError("storage too small for a single slot")
    alpha = age_reports / slots
    return keywrite_success(alpha, redundancy, checksum_bits)
