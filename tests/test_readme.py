"""The README's command-line examples print what the README shows.

Every `$ ivp ...` line of the README's sh blocks runs through cli.main;
the lines after it, up to a blank line or the next command, are its
output.  Trailing `# ...` comments are stripped from both.  An output
that reads as JSON is compared by value, since the README shows it
compacted.
"""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from ivp import cli
from ivp.config import Config

README = Path(__file__).resolve().parent.parent / "README.md"
_COMMENT = re.compile(r"\s+#.*$")


def _examples():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
    examples, current = [], None
    for block in blocks:
        for line in block.splitlines():
            line = _COMMENT.sub("", line).rstrip()
            if line.startswith("$ ivp "):
                current = (line[2:], [])
                examples.append(current)
            elif not line:
                current = None
            elif current is not None:
                current[1].append(line)
    return examples


EXAMPLES = _examples()


def test_readme_has_the_examples():
    assert len(EXAMPLES) == 11


@pytest.mark.parametrize("command, expected", EXAMPLES,
                         ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, expected, capsys):
    assert cli.main(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out
    try:
        want = json.loads("\n".join(expected))
    except json.JSONDecodeError:
        assert out.splitlines() == expected
    else:
        assert json.loads(out) == want


def test_limits_section_names_every_config_field():
    limits = re.search(r"### Limits\n(.*?)\n#", README.read_text(),
                       re.DOTALL).group(1)
    for field in Config.__dataclass_fields__:
        flag = "--" + field.replace("_", "-")
        assert f"`{field}`" in limits or f"`{flag}`" in limits, field


def test_subcommand_count_matches_the_parser():
    count = re.search(r"any of the (\d+)\s+subcommands", README.read_text())
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert int(count.group(1)) == len(subparsers.choices)
