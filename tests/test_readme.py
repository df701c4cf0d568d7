"""The README's console examples print what the CLI prints.

Every `$ shorsim ...` line in a `console` block that shows output and
has no `<...>` placeholder is run through cli.dispatch. JSON output is
compared as parsed values, so the README may lay it out compactly; any
other output must match exactly.
"""

import json
import shlex
from pathlib import Path

import pytest

from shorsim import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _console_examples():
    """(command, shown output) for each `$ shorsim` line with output."""
    examples = []
    current = None
    in_console = False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_console = line.strip() == "```console"
            current = None
        elif in_console and line.startswith("$ "):
            current = (line[2:], [])
            examples.append(current)
        elif in_console and current is not None:
            current[1].append(line)
    return [
        (command, "\n".join(shown) + "\n")
        for command, shown in examples
        if command.startswith("shorsim ") and shown and "<" not in command
    ]


EXAMPLES = _console_examples()


def test_readme_has_checked_examples():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("command, shown", EXAMPLES,
                         ids=[command for command, _ in EXAMPLES])
def test_readme_example_output(capsys, command, shown):
    code = cli.dispatch(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code == 0
    try:
        expected = json.loads(shown)
    except json.JSONDecodeError:
        assert out == shown
    else:
        assert json.loads(out) == expected
