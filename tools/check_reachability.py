#!/usr/bin/env python
"""Check that every ``src/repro`` module is reachable from an entry point.

A module that only ``tests/`` import is code the system never runs.
This walks the static import graph (``import`` / ``from … import``
statements anywhere in a file, plus any string literal in ``src/``
that names a ``repro`` module, which is how a registry row names its
store module for ``importlib``) from the entry points:

* ``repro.cli`` (and ``repro.__main__``, ``python -m repro``);
* every file under ``perf/``, ``tools/``, ``benchmarks/`` and
  ``examples/``.

Importing ``repro.a.b`` runs the packages ``repro`` and ``repro.a``
first, so those count as reached too, but the walk does not follow
what their ``__init__.py`` imports: a re-export is not reach.  A
package's ``__init__.py`` is followed only when a file imports the
package itself, by ``import repro.a`` or by ``from repro.a import
Name`` where ``Name`` is not a submodule.  So a module that only its
package ``__init__`` imports counts as unreached even when a sibling
is reached.  Every ``src/repro`` module the walk misses is an offence
unless :data:`ALLOWED` names it with a reason; an allowlisted module
that the walk *does* reach, or that does not exist, is an offence as
well, so the list only shrinks.

Usage::

    python tools/check_reachability.py

Exit code 0 when clean, 1 otherwise (one line per module).
"""

from __future__ import annotations

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENTRY_MODULES = ("repro.__main__", "repro.cli")
ENTRY_DIRS = ("perf", "tools", "benchmarks", "examples")

#: Modules that may stay unreached, each with why.
ALLOWED: dict = {}


def modules() -> dict:
    """Every ``src/repro`` module name -> its file."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        found[".".join(parts)] = path
    return found


def _packages(name: str) -> set:
    """The packages that importing ``name`` runs first."""
    parts = name.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts))}


def imports(path: pathlib.Path, name: str | None, known: dict) -> set:
    """The ``repro`` modules a file imports or names, each of which
    the walk follows (their enclosing packages are not)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    is_package = path.name == "__init__.py"
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level and name is not None:
                package = name.split(".")
                if not is_package:
                    package.pop()
                package = package[:len(package) - node.level + 1]
                base = ".".join(package + ([base] if base else []))
            for alias in node.names:
                submodule = f"{base}.{alias.name}"
                found.add(submodule if submodule in known else base)
        elif (name is not None and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and node.value in known):
            found.add(node.value)
    return found & set(known)


def reached(roots: set, known: dict) -> set:
    """Every module the walk follows from ``roots``, plus the packages
    that contain them."""
    seen = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo.extend(imports(known[name], name, known) - seen)
    return seen.union(*map(_packages, seen))


def offences() -> list:
    known = modules()
    roots = set(ENTRY_MODULES) & set(known)
    for directory in ENTRY_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            roots |= imports(path, None, known)
    live = reached(roots, known)
    found = [f"{name}: reached from no entry point "
             f"({known[name].relative_to(ROOT)})"
             for name in sorted(set(known) - live - set(ALLOWED))]
    found += [f"{name}: allowlisted but reached; drop it from ALLOWED"
              for name in sorted(set(ALLOWED) & live)]
    found += [f"{name}: allowlisted but no such module; drop it from "
              "ALLOWED" for name in sorted(set(ALLOWED) - set(known))]
    return found


def main() -> int:
    found = offences()
    for offence in found:
        print(offence)
    if found:
        print(f"{len(found)} module(s) off the entry points' import graph",
              file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
