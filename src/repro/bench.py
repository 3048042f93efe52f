"""Gates and the verdict the ``repro`` run commands print.

``repro serve``, ``retain`` and ``faults`` each drive one lane of the
system and hold the result to correctness gates — digest equality with
the scalar reference, conservation, zero loss.  They report the same
way:

* :func:`gate` — ``{gate, value, threshold, pass}``: a boolean must
  equal its threshold, a number must reach it;
* :func:`verdict` — print the lane's digests, one line per gate and
  ``overall: PASS|FAIL``; return the exit code;
* :func:`deployment` — the fresh-registry direct-mode deployment the
  in-process lanes and their tests run on.

Speed is ``perf/``'s job (``perf/compare.py``), see
``docs/BENCHMARKS.md``; nothing here times anything.
"""

from __future__ import annotations

import contextlib

from repro import obs
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from repro.workloads import reports as workload


def gate(name: str, value, threshold=True) -> dict:
    """One enforced condition, with the value that decided it."""
    if isinstance(threshold, bool):
        ok = value is threshold
    else:
        ok = value is not None and value >= threshold
    return {"gate": name, "value": value, "threshold": threshold,
            "pass": ok}


def gate_lines(gates: list) -> list:
    return [f"  gate: {g['gate']} (value {g['value']}, "
            f"need {g['threshold']}) -> {'pass' if g['pass'] else 'FAIL'}"
            for g in gates]


def verdict(digests: dict, gates: list) -> int:
    """Print ``name digest`` lines, the gates and the overall verdict;
    return the exit code (0 only if every gate passed)."""
    for name, value in digests.items():
        for digest in value if isinstance(value, list) else [value]:
            print(f"{name} {digest}")
    print("\n".join(gate_lines(gates)))
    passed = all(g["pass"] for g in gates)
    print(f"overall: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


@contextlib.contextmanager
def deployment(*, vectorized: bool = False, sketch_width: int = 0):
    """A fresh direct-mode deployment on a fresh obs registry.

    Yields ``(registry, collector, translator, reporter)``; the previous
    registry is restored on exit.
    """
    registry = obs.Registry()
    previous = obs.set_registry(registry)
    try:
        collector = workload.provision_collector(
            "collector", sketch_width=sketch_width)
        translator = Translator(vectorized=vectorized)
        collector.connect_translator(translator)
        reporter = Reporter("bench", 1, transmit=translator.handle_report,
                            transmit_batch=translator.process_batch)
        yield registry, collector, translator, reporter
    finally:
        obs.set_registry(previous)
