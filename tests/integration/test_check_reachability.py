"""The entry-point reachability check (``tools/check_reachability.py``).

Run here the way CI's docs job runs it, so a module that only tests
import fails locally too; then its two allowlist rules, against a
patched module set and allowlist.
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
