"""Every slicectl command the README shows parses with this build's parser,
so a renamed flag or subcommand fails here instead of leaving the docs
stale.

The commands are parsed, not run: a line's comment is stripped, and a
shell variable such as $SLICECTL_CATALOG stays literal text, which parses
as any path would.
"""

from __future__ import annotations

import contextlib
import io
import shlex
from pathlib import Path

from slicectl.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    """Each line of a fenced code block in the README that runs slicectl."""
    commands, fenced = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("slicectl "):
            commands.append(line)
    return commands


def test_every_readme_command_parses():
    commands = readme_commands()
    assert len(commands) > 10
    refused = []
    for line in commands:
        argv = shlex.split(line, comments=True)[1:]
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                args = build_parser().parse_args(argv)
        except SystemExit:
            refused.append(f"{line}: {stderr.getvalue().strip()}")
            continue
        assert callable(args.handler), line
    assert refused == []
