"""The public API: one entry point per derived result."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import effalg

# Wrappers that read one field of ``structure_profile(E)`` or one bit of
# ``compatibility(E)``, the two errors only they raised, the error for a
# pair declared twice, now an ``Ei`` violation of ``AxiomViolation``, the
# error for an element with no atom below it, which no finite algebra has,
# and the state report's own violation type, now ``Violation``.
REMOVED = (
    "atoms",
    "sharp_elements",
    "meager_elements",
    "is_sharp",
    "isotropic_index",
    "sharp_bounds",
    "SharpBounds",
    "is_sharply_dominating",
    "is_s_dominating",
    "is_atomic",
    "is_archimedean",
    "compatible",
    "ZeroElement",
    "BoundsMissing",
    "DuplicateSum",
    "NotDecomposable",
    "StateViolation",
)


def test_all_lists_each_export_once_and_every_one_resolves():
    assert len(effalg.__all__) == len(set(effalg.__all__))
    for name in effalg.__all__:
        assert hasattr(effalg, name), name
    assert "compatibility" in effalg.__all__


def test_removed_wrappers_are_gone():
    for name in REMOVED:
        assert not hasattr(effalg, name), name
    assert not hasattr(effalg.EffectAlgebra, "sum")
    assert not hasattr(effalg.EffectAlgebra, "orth")


# Run in a fresh interpreter, so that no import made by this session hides
# an eager one: the effalg modules loaded after ``import effalg`` and after
# each command given as JSON, then whether each public name is the object
# its defining module holds.
COLD_START = """
import contextlib, importlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("effalg."))

import effalg
steps = [loaded()]
from effalg import cli
for command in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(command) == 0, command
    steps.append(loaded())
modules = effalg._MODULE_OF
same = [
    getattr(effalg, name)
    is getattr(importlib.import_module(f"effalg.{modules[name]}"), name)
    for name in effalg.__all__
]
print(json.dumps({"steps": steps, "same": all(same)}))
"""


def test_import_and_each_command_load_only_what_they_run():
    package = Path(effalg.__file__).resolve().parent
    fixtures = package / "fixtures"
    e44, hsum = str(fixtures / "example-4.4.eaf"), str(fixtures / "hsum-c2-c3.eaf")
    commands = [
        ["verify", e44],
        ["analyze", e44],
        ["states", hsum],
        ["smear", hsum, "--state", str(fixtures / "trivial-01.state")],
    ]
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(commands)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    on_verify = ["effalg.cli", "effalg.core", "effalg.eaf", "effalg.errors"]
    on_analyze = sorted(on_verify + ["effalg.order", "effalg.structure"])
    # states and smear lift from atom values and read no decomposition
    on_states = sorted(on_analyze + ["effalg.linear", "effalg.states"])
    assert got["steps"] == [[], on_verify, on_analyze, on_states, on_states]
    assert got["same"]


def test_public_names_resolve_on_first_use():
    from effalg import laws

    assert set(effalg.__all__) <= set(dir(effalg))
    assert effalg.__getattr__("laws") is laws
    assert effalg.__getattr__("LAW_IDS") is laws.LAW_IDS
    with pytest.raises(AttributeError, match="'effalg' has no attribute 'nope'"):
        effalg.nope
