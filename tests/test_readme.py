"""The shell examples in README.md run and give the results they state."""

import json
import pathlib
import re
import shlex

from superelliptic.cli import run

README = pathlib.Path(__file__).parent.parent / "README.md"


def _examples():
    """(argv, comment, stated "u" or None) for each ``superelliptic`` line
    of the README's sh blocks, ``catalog`` and ``batch`` left out (they
    write files and read request files)."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    out = []
    for line in "\n".join(blocks).splitlines():
        match = re.match(r'# -> "u": (\[[^\]]*\])', line)
        if match:
            argv, comment, _ = out[-1]
            out[-1] = (argv, comment, json.loads(match.group(1)))
        elif line.startswith("superelliptic "):
            argv = shlex.split(line, comments=True)[1:]
            if argv[0] not in ("catalog", "batch"):
                out.append((argv, line.partition(" #")[2], None))
    return out


def test_readme_examples():
    examples = _examples()
    assert len(examples) == 12
    assert sum(u is not None for _, _, u in examples) == 2
    for argv, comment, u in examples:
        code, text = run(argv)
        assert code == (3 if "exit 3" in comment else 0), (argv, text)
        if u is not None:
            assert json.loads(text)["result"]["u"] == u, argv
