#!/usr/bin/env python
"""Check that per-primitive code stays where a primitive lives.

"Adding a sixth primitive touches one module plus the registry" is only
true while no other module names a primitive.  This fails if a
``DtaPrimitive.<one of the five>`` literal, or an ``isinstance(...,
(KeyWrite | KeyIncrement | Postcard | Append | SketchColumn))`` arm,
appears under ``src/repro/`` outside

* ``core/packets.py`` and ``core/primitives.py`` (the wire tables and
  the registry),
* a primitive's own store module under ``core/stores/``, and
* ``switch/`` (the independently written ASIC model, ROADMAP item 11).

Everything else reads ``repro.core.primitives`` (``REGISTRY``,
``BY_CODE``, ``BY_SERVICE``) or asks the translator's lane.

Usage::

    python tools/check_primitive_locality.py

Exit code 0 when clean, 1 otherwise (offences listed one per line as
``file:line: text``).
"""

from __future__ import annotations

import pathlib
import re
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

ALLOWED = ("core/packets.py", "core/primitives.py", "core/stores/",
           "switch/")

_OPS = "KeyWrite|KeyIncrement|Postcard|Append|SketchColumn"
_OFFENCE = re.compile(
    r"DtaPrimitive\.(KEY_WRITE|KEY_INCREMENT|POSTCARDING|APPEND|SKETCH_MERGE)\b"
    rf"|isinstance\([^()]*,\s*\(?\s*(?:packets\.)?({_OPS})\b")


def offences() -> list:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative.startswith(ALLOWED):
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if _OFFENCE.search(line):
                found.append(f"src/repro/{relative}:{number}: "
                             f"{line.strip()}")
    return found


def main() -> int:
    found = offences()
    for offence in found:
        print(offence)
    if found:
        print(f"{len(found)} per-primitive reference(s) outside "
              f"{', '.join(ALLOWED)}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
