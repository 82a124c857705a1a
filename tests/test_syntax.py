"""Every Python file of the project parses as Python 3.10, the oldest
version pyproject.toml allows and CI's oldest leg.

This checks syntax only (ast.parse with feature_version), so it runs on
any newer interpreter. A standard-library name or behaviour that 3.10
lacks still passes here; only a run on 3.10 shows that.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_python_file_parses_as_python_3_10():
    paths = sorted(
        path for part in ("src", "tests", "bench") for path in (ROOT / part).rglob("*.py")
    )
    assert len(paths) > 30
    refused = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            refused.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert refused == []
