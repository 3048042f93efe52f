#!/usr/bin/env python
"""Check that per-primitive code stays where a primitive lives.

"Adding a sixth primitive touches one module plus the registry" is only
true while no other module names a primitive.  This fails if

* a ``DtaPrimitive.<one of the five>`` literal, an ``isinstance(...,
  (KeyWrite | KeyIncrement | Postcard | Append | SketchColumn))`` arm,
  or a lane class named outright (``KeyWriteLane`` … — a store module
  declares its ``LANE``, reached through the registry row's ``home``)
  appears under ``src/repro/`` outside ``core/packets.py`` and
  ``core/primitives.py`` (the wire tables and the registry) and a
  primitive's own store module under ``core/stores/``; or
* a quoted store or service name (``"keywrite"`` … ``"sketch_merge"``)
  appears in the collector half — ``core/`` (but those same modules),
  ``retention/``, ``runtime/``, ``transport/`` and
  ``queries/snapshot.py`` — other than the user-facing defaults in
  :data:`DEFAULTS`.

Everything else reads ``repro.core.primitives`` (``REGISTRY``,
``BY_CODE``, ``BY_SERVICE``, ``STORES``, a row's store module and its
``column_specs`` — what ``ReportBatch.concat`` joins a held run by) or
asks the translator's lane.

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

ALLOWED = ("core/packets.py", "core/primitives.py", "core/stores/")

#: Where a quoted primitive name is an offence too.
COLLECTOR_HALF = ("core/", "retention/", "runtime/", "transport/",
                  "queries/snapshot.py")

#: User-facing defaults that name a primitive on purpose, as
#: ``(file, line pattern)``: ``ServeSpec.primitive`` and the
#: ``--primitive`` CLI default of ``repro serve``.
DEFAULTS = (
    ("transport/serve.py", re.compile(r'^\s*primitive: str = "key_write"$')),
    ("transport/cli.py", re.compile(r'^\s*default="key_write",$')),
)

_OPS = "KeyWrite|KeyIncrement|Postcard|Append|SketchColumn"
_OFFENCE = re.compile(
    r"DtaPrimitive\.(KEY_WRITE|KEY_INCREMENT|POSTCARDING|APPEND|SKETCH_MERGE)\b"
    rf"|isinstance\([^()]*,\s*\(?\s*(?:packets\.)?({_OPS})\b"
    r"|\b(KeyWrite|KeyIncrement|Postcarding|Append|SketchMerge)Lane\b")
_NAME = re.compile(
    r"""["'](keywrite|keyincrement|postcarding|append|sketch|key_write"""
    r"""|key_increment|sketch_merge)["']""")


def _default(relative: str, line: str) -> bool:
    return any(relative == path and pattern.search(line)
               for path, pattern in DEFAULTS)


def offences() -> list:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative.startswith(ALLOWED):
            continue
        names = relative.startswith(COLLECTOR_HALF)
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if _OFFENCE.search(line) or (
                    names and _NAME.search(line)
                    and not _default(relative, line)):
                found.append(f"src/repro/{relative}:{number}: "
                             f"{line.strip()}")
    return found


def main() -> int:
    found = offences()
    for offence in found:
        print(offence)
    if found:
        print(f"{len(found)} per-primitive reference(s) outside the "
              "registry and the store modules", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
