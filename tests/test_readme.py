"""The README's examples, run as written and compared with the output it shows.

Each `$ cutcx ...` line in a shell block that shows output is run through
main(argv); a trailing `| tail -1` keeps the last line.  Each commented
expression in the Library block is evaluated after the statements above it
and its repr compared with the comment.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from cutcx.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def shell_examples() -> list[tuple[str, str]]:
    """(command line, shown output) for every example that shows output."""
    examples = []
    for block in blocks("sh"):
        for example in block.strip("\n").split("\n\n"):
            command, *shown = example.split("\n")
            if command.startswith("$ cutcx ") and shown:
                examples.append((command[2:], "\n".join(shown) + "\n"))
    return examples


@pytest.mark.parametrize("command, shown", shell_examples(), ids=[command for command, _ in shell_examples()])
def test_shell_example(capsys, command, shown):
    line, _, pipe = command.partition(" | ")
    assert pipe in ("", "tail -1"), pipe
    code = main(shlex.split(line)[1:])
    out = capsys.readouterr().out
    assert code == 0
    assert (out.splitlines(keepends=True)[-1] if pipe else out) == shown


def test_library_block():
    (block,) = blocks("python")
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        _, commented, comment = lines[stmt.end_lineno - 1].partition("  # ")
        if commented:
            assert repr(eval(source, namespace)) == comment.strip(), source
            checked += 1
        else:
            exec(source, namespace)
    assert checked == 9
