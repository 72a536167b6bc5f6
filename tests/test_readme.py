"""The command examples of README.md run as their comments say: exit 1 where
a comment ends in "(exit 1)", exit 0 otherwise, and the first line printed,
to stderr for an error and to stdout otherwise, starts with the output a
comment shows."""

import shlex
from pathlib import Path

import pytest

from qheis.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

#: (argv, comment) of each line of the README that runs qheis
EXAMPLES = [
    (shlex.split(command)[1:], comment.strip())
    for command, _, comment in (line.partition("#") for line in README.read_text().splitlines())
    if command.startswith("qheis ")
]


def test_the_readme_has_its_examples():
    assert len(EXAMPLES) >= 19


@pytest.mark.parametrize("argv, comment", EXAMPLES, ids=[shlex.join(argv) for argv, _ in EXAMPLES])
def test_readme_example(argv, comment, capsys):
    fails = comment.endswith("(exit 1)")
    shown = comment.removesuffix("(exit 1)").strip()
    assert main(argv) == (1 if fails else 0)
    out, err = capsys.readouterr()
    printed = err if fails else out
    assert printed.strip() != ""
    assert printed.splitlines()[0].startswith(shown)
