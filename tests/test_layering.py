"""The import graph is the module graph, and a command loads what it runs.

Each module is imported, or each command run, in a fresh interpreter, and
what that leaves in sys.modules is checked: the package re-exports nothing,
the base layer loads only the errors, the solver loads no template parser
and no YAML, and the lifecycle engine loads neither the file store nor the
CLI. Importing the CLI, the engine or the store loads no YAML, no template
parser and no solver; each loads with the first command that parses or
plans. A name that loads that way is still the module's own, so one
rebound on the module, as bench/spans.py rebinds them, is the one called.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scenario
import slicectl
from slicectl import cli, lifecycle

FIXTURES = Path(slicectl.__file__).resolve().parent / "fixtures"

# What a command that parses no YAML, no template and plans nothing must not
# load, and what importing the CLI, the engine or the store loads none of.
PARSER_AND_SOLVER = {"yaml", "slicectl.template", "slicectl.placement"}


def _loaded(module: str, then: str = "") -> set[str]:
    """The slicectl modules, and yaml if it is there, that importing module
    and running the statement then in a fresh interpreter loads."""
    code = (
        "import json, sys\n"
        f"import {module}\n"
        f"{then}\n"
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


def _loaded_by_command(argv: list[str], exit_code: int) -> set[str]:
    """What running the CLI with argv in a fresh interpreter loads; the
    command must exit with exit_code."""
    then = f"assert slicectl.cli.run({argv!r}).exit_code == {exit_code}"
    return _loaded("slicectl.cli", then)


def _demo_lab(root: Path, checkpoint: bool) -> None:
    """root as demo slice-a leaves it, and where checkpoint is true, as one
    ok writer after it leaves it: with checkpoint.json, which the first
    writer on a lab that has none always writes."""
    assert cli.run(["demo", "slice-a", "--catalog", str(root)]).exit_code == 0
    if checkpoint:
        argv = ["create-service", "X", "--vf", "vf-core-cp", "--id", "svc-x"]
        assert cli.run([*argv, "--as", "designer", "--catalog", str(root)]).exit_code == 0
        assert (root / "checkpoint.json").exists()


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


@pytest.mark.parametrize("module", ["slicectl.cli", "slicectl.lifecycle", "slicectl.store"])
def test_importing_loads_no_yaml_parser_or_solver(module):
    loaded = _loaded(module)
    assert not loaded & PARSER_AND_SOLVER, sorted(loaded & PARSER_AND_SOLVER)


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["certify-vf", "vf-core-cp", "--as", "designer"], 1),
        (["audit", "--tail", "5"], 0),
        (["teardown-slice", "slice-a", "--as", "operator"], 0),
        (["status", "slice-a"], 0),
    ],
    ids=["certify-vf-denied", "audit", "teardown-slice", "status-subject"],
)
def test_a_command_from_a_checkpoint_loads_no_yaml_parser_or_solver(
    tmp_path, argv, exit_code
):
    _demo_lab(tmp_path, checkpoint=True)
    loaded = _loaded_by_command([*argv, "--catalog", str(tmp_path)], exit_code)
    assert not loaded & PARSER_AND_SOLVER, sorted(loaded & PARSER_AND_SOLVER)


def test_status_loads_no_template_parser_or_solver(tmp_path):
    """status reads inventory.yaml, so it loads YAML, but it plans nothing."""
    _demo_lab(tmp_path, checkpoint=False)
    loaded = _loaded_by_command(["status", "--catalog", str(tmp_path)], 0)
    never = {"slicectl.template", "slicectl.placement"}
    assert not loaded & never, sorted(loaded & never)


def test_lint_template_loads_no_solver():
    loaded = _loaded_by_command(["lint-template", str(FIXTURES / "core_cp.yaml")], 0)
    assert "slicectl.template" in loaded
    assert "slicectl.placement" not in loaded


def test_a_name_rebound_on_its_module_is_the_one_called(monkeypatch):
    called = []

    def recorder(module, name):
        original = getattr(module, name)

        def record(*args, **kwargs):
            called.append(f"{module.__name__}.{name}")
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, record)

    recorder(lifecycle, "plan_placement")
    recorder(cli, "parse_template")
    engine = scenario.slice_a_engine()
    assert engine.plan_slice("slice-a").feasible
    result = cli.run(["lint-template", str(FIXTURES / "core_cp.yaml")])
    assert result.exit_code == 0
    assert called == ["slicectl.lifecycle.plan_placement", "slicectl.cli.parse_template"]
