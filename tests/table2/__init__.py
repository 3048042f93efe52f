"""Table 2 fixtures and test oracles.

The paper's Table 2 maps the monitoring literature onto DTA's five
primitives.  The mappings here are the rows no entry point of the
system runs: Sonata (and its general dataflow operator model), PINT,
PacketScope, Trajectory Sampling, the microburst and suspicious-flow
event detectors with their queue-depth workload, and the count sketch,
HyperLogLog and AROMA sketches.  ``tests/integration/test_table2_coverage.py``
drives them through the real reporter, translator and collector to
check the table; their own suites live beside the system's, under
``tests/telemetry``, ``tests/sketches`` and ``tests/workloads``.
"""
