"""Mergeable sketches: the data structures behind DTA's Sketch-Merge.

Section 3.2 ("Sketch-Merge"): sketches summarise traffic in small
memory with provable guarantees, and the key enabler for network-wide
views is *mergeability* — Count-Min merges by counter-wise sum.
Reporter switches run these sketches locally and ship columns to the
translator, which merges them into a network-wide sketch before a
single RDMA write per w columns lands them in collector memory.
Count sketch, HyperLogLog (register-wise max) and AROMA (best-priority
samples) live in ``tests/table2/``: no entry point runs them.
"""

from repro.sketches.base import MergeError, Sketch
from repro.sketches.countmin import CountMinSketch

__all__ = [
    "MergeError",
    "Sketch",
    "CountMinSketch",
]
