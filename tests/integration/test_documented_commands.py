"""The commands the documentation shows still exist.

Every fenced code block of ``README.md``, ``docs/*.md`` and the verify
skill is scanned (nothing is executed).  A ``python -m repro.<module>``
must name a module that resolves, and a ``repro ...`` or ``python -m
repro ...`` line must parse with the CLI's own argument parser, with
``<placeholder>`` tokens read as ``0`` and ``\\`` continuations joined.
A deleted subcommand, flag or module then fails here, not in a reader's
shell.
"""

import importlib.util
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import _build_parser

ROOT = Path(__file__).resolve().parents[2]
DOCUMENTS = [
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]

#: Where a command starts: an optional ``VAR=value`` prefix, then the
#: ``repro`` entry point or ``python -m repro[.module]``.
_COMMAND = re.compile(
    r"^(?:[A-Z_]+=\S+\s+)*(?:python3?\s+-m\s+(repro(?:\.[\w.]+)?)|(repro))\s"
)
#: Shell tokens that end the command's own arguments (and redirects).
_SHELL_BREAKS = {"|", "||", "&&", ";"}


def _code_lines(path: Path) -> list[tuple[int, str]]:
    """(number, line) of *path*'s fenced lines, ``\\`` continuations
    joined onto the line they start on."""
    lines, fenced, pending, start = [], False, "", 0
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        if raw.lstrip().startswith("```"):
            fenced, pending = not fenced, ""
            continue
        if not fenced:
            continue
        if not pending:
            start = number
        line = pending + raw.strip()
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        lines.append((start, line))
    return lines


def _documented_commands() -> list[tuple[str, str, str]]:
    """(``document:line``, module, command) for each command in a block."""
    found = []
    for path in DOCUMENTS:
        for number, line in _code_lines(path):
            match = _COMMAND.match(line + " ")
            if match:
                where = f"{path.relative_to(ROOT).as_posix()}:{number}"
                found.append((where, match.group(1) or match.group(2), line))
    return found


COMMANDS = _documented_commands()


def _cli_argv(line: str) -> list[str]:
    """The arguments after ``repro`` / ``python -m repro`` on *line*."""
    tokens = shlex.split(re.sub(r"<[^<>\s]+>", "0", line), comments=True)
    start = tokens.index("repro") + 1
    argv = []
    for token in tokens[start:]:
        if token in _SHELL_BREAKS or token.startswith(">"):
            break
        argv.append(token)
    return argv


def test_the_scan_finds_the_documented_commands():
    modules = {module for _, module, _ in COMMANDS}
    assert "repro" in modules
    assert len(COMMANDS) >= 20


def _module_exists(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:  # a parent package is gone too
        return False


@pytest.mark.parametrize(
    "document,module,line", COMMANDS, ids=[where for where, _, _ in COMMANDS]
)
def test_documented_command_exists(document, module, line):
    if module != "repro":
        assert _module_exists(module), (
            f"{document} runs a module that no longer exists: {line}"
        )
        return
    try:
        _build_parser().parse_args(_cli_argv(line))
    except SystemExit as exit:
        pytest.fail(f"{document} shows a command the CLI refuses ({exit.code}): {line}")
