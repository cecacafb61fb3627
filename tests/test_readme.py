"""README's command-line examples, run in process.

Each `$ ehsmc ...` line in README's "Command line" section is run through
`ehsmc.cli.main` from the root of the checkout. Its standard output must
be the lines printed below it, except for the figure after `elapsed:`,
and its exit status the one in its `# exit status N` comment (0 when it
has none). A `| tail -N` after the command keeps the last N lines.
"""

import os
import re
import shlex

import pytest

from ehsmc.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXIT_COMMENT = re.compile(r"\s*# exit status (\d+).*$")
ELAPSED = re.compile(r"^elapsed: \S+$")


def _examples():
    """(command, printed lines, exit status) per example, in order."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    in_block = False
    for line in section.splitlines():
        line = line.strip()
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("$ ehsmc "):
            examples.append([line[2:], [], 0])
        elif in_block and examples and line:
            comment = EXIT_COMMENT.search(line)
            if comment:
                examples[-1][2] = int(comment.group(1))
                line = line[:comment.start()]
            if line:
                examples[-1][1].append(line)
    return [tuple(e) for e in examples]


EXAMPLES = _examples()


def _mask(lines):
    return ["elapsed: ..." if ELAPSED.match(line) else line for line in lines]


def test_the_section_has_examples():
    assert len(EXAMPLES) >= 5
    assert any(status == 3 for _, _, status in EXAMPLES)


@pytest.mark.parametrize("command, printed, status", EXAMPLES,
                         ids=[command for command, _, _ in EXAMPLES])
def test_readme_example(command, printed, status, capsys, monkeypatch):
    command, _, pipe = command.partition(" | ")
    argv = shlex.split(command)
    assert argv[0] == "ehsmc"
    monkeypatch.chdir(ROOT)
    code = main(argv[1:])
    out = capsys.readouterr().out.splitlines()
    if pipe:
        tail = re.fullmatch(r"tail -(\d+)", pipe)
        assert tail, f"unsupported pipe {pipe!r}"
        out = out[-int(tail.group(1)):]
    assert _mask(out) == _mask(printed)
    assert code == status
