"""The entry-point reachability check (``tools/check_reachability.py``).

Run here the way CI's docs job runs it, so a module that only tests
import fails locally too; then its two allowlist rules, against a
patched module set and allowlist; then how the walk treats a package
``__init__``, against small trees of its own.
"""

from __future__ import annotations

import importlib.util
import pathlib
import subprocess
import sys

_TOOL = (pathlib.Path(__file__).resolve().parents[2]
         / "tools" / "check_reachability.py")
_spec = importlib.util.spec_from_file_location("check_reachability", _TOOL)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


def test_every_src_module_is_reached_from_an_entry_point():
    done = subprocess.run([sys.executable, str(_TOOL)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert checker.ALLOWED == {}


def test_an_orphan_module_is_an_offence(monkeypatch):
    # Any file under the repository can stand in for the orphan's
    # source: nothing reaches it, so it is never parsed.
    orphan = pathlib.Path(__file__)
    real = checker.modules()
    monkeypatch.setattr(checker, "modules",
                        lambda: {**real, "repro.orphan": orphan})
    assert checker.offences() == [
        "repro.orphan: reached from no entry point "
        "(tests/integration/test_check_reachability.py)"]
    monkeypatch.setattr(checker, "ALLOWED", {"repro.orphan": "why"})
    assert checker.offences() == []


def test_an_allowlist_entry_for_no_module_is_an_offence(monkeypatch):
    monkeypatch.setattr(checker, "ALLOWED", {"repro.no_such": "why"})
    assert checker.offences() == [
        "repro.no_such: allowlisted but no such module; drop it from "
        "ALLOWED"]


def test_an_allowlist_entry_that_is_reached_is_an_offence(monkeypatch):
    monkeypatch.setattr(checker, "ALLOWED", {"repro.cli": "why"})
    assert checker.offences() == [
        "repro.cli: allowlisted but reached; drop it from ALLOWED"]


def _offences_in(tree: dict, tmp_path, monkeypatch) -> list:
    """The check's offences over a tree of ``{path: source}`` (``src/``
    holds the ``repro`` package; ``repro.cli`` is the entry point)."""
    for name, source in tree.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    monkeypatch.setattr(checker, "ROOT", tmp_path)
    monkeypatch.setattr(checker, "SRC", tmp_path / "src")
    return checker.offences()


def _package(init: str, cli: str, **modules) -> dict:
    tree = {"src/repro/__init__.py": "",
            "src/repro/cli.py": cli,
            "src/repro/pkg/__init__.py": init,
            "src/repro/pkg/used.py": "def f():\n    pass\n"}
    tree.update({f"src/repro/pkg/{name}.py": source
                 for name, source in modules.items()})
    return tree


def test_a_module_only_its_package_init_imports_is_an_offence(
        tmp_path, monkeypatch):
    # The entry point imports a sibling submodule; the package's
    # re-export of the orphan is not reach.
    tree = _package(init="from repro.pkg.used import f\n"
                         "from repro.pkg.orphan import g\n",
                    cli="from repro.pkg import used\n",
                    orphan="def g():\n    pass\n")
    assert _offences_in(tree, tmp_path, monkeypatch) == [
        "repro.pkg.orphan: reached from no entry point "
        "(src/repro/pkg/orphan.py)"]


def test_importing_a_name_from_a_package_follows_its_init(
        tmp_path, monkeypatch):
    tree = _package(init="from repro.pkg.used import f\n"
                         "from repro.pkg.orphan import g\n",
                    cli="from repro.pkg import g\n",
                    orphan="def g():\n    pass\n")
    assert _offences_in(tree, tmp_path, monkeypatch) == []


def test_a_relative_import_inside_a_package_is_followed(
        tmp_path, monkeypatch):
    tree = _package(init="",
                    cli="import repro.pkg.used\n",
                    used="from . import deeper\n",
                    deeper="from .helper import h\n",
                    helper="def h():\n    pass\n")
    assert _offences_in(tree, tmp_path, monkeypatch) == []
