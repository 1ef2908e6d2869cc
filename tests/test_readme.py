"""The CLI examples of README.md run as written.

Every `psn` line of the README's CLI block (with its backslash
continuations joined) is run through main in a fresh directory that
holds the `train.libsvm` the erm example reads, and must exit 0.
"""

import re
import shlex
from pathlib import Path

import pytest

from psn.cli import main
from test_golden import write_libsvm

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_examples() -> list[str]:
    text = README.read_text()
    section = text[text.index("\n## CLI\n"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [" ".join(line.split()) for line in lines if line.startswith("psn ")]


EXAMPLES = cli_examples()


def test_block_has_every_subcommand():
    assert {line.split()[1] for line in EXAMPLES} == {
        "solve", "rates", "rho", "tridiag", "heat", "erm",
    }


@pytest.mark.parametrize(
    "line", EXAMPLES, ids=[f"{i}-{line.split()[1]}" for i, line in enumerate(EXAMPLES)]
)
def test_example_exits_zero(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_libsvm(tmp_path / "train.libsvm")
    code = main(shlex.split(line)[1:])
    assert code == 0, capsys.readouterr().err
