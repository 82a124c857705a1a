"""The import graph is the module graph.

Each module is imported in a fresh interpreter, and what that leaves in
sys.modules is checked: the package re-exports nothing, the base layer
loads only the errors, the solver loads no template parser and no YAML,
and the lifecycle engine loads neither the file store nor the CLI.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slicectl


def _loaded(module: str) -> set[str]:
    """The slicectl modules, and yaml if it is there, that importing module
    in a fresh interpreter loads."""
    code = (
        "import json, sys\n"
        f"import {module}\n"
        "print(json.dumps([m for m in sys.modules"
        " if m in ('slicectl', 'yaml') or m.startswith('slicectl.')]))\n"
    )
    package_root = Path(slicectl.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    return set(json.loads(result.stdout))


@pytest.mark.parametrize(
    "module, loads",
    [("slicectl", set()), ("slicectl.model", {"slicectl.errors"})],
)
def test_a_base_layer_loads_only_what_it_names(module, loads):
    assert _loaded(module) == {"slicectl", module, *loads}


@pytest.mark.parametrize(
    "module, never",
    [
        (
            "slicectl.placement",
            {
                "yaml",
                "slicectl.template",
                "slicectl.lifecycle",
                "slicectl.store",
                "slicectl.cli",
            },
        ),
        ("slicectl.lifecycle", {"slicectl.store", "slicectl.cli"}),
    ],
)
def test_a_layer_loads_nothing_above_it(module, never):
    loaded = _loaded(module)
    assert not loaded & never, sorted(loaded & never)
