"""The comparison scripts' loader, tests/two_trees.py, on this tree: a
second copy of the package under another name runs apart from the first
and writes the same output."""

import sys
from pathlib import Path

import pytest

import sonophoton
from sonophoton import cli

from two_trees import load

SRC = Path(__file__).resolve().parents[1] / "src"
ALIAS = "sonophoton_alias"


@pytest.fixture
def alias():
    """This tree loaded as ALIAS, whose modules leave sys.modules after
    the test."""
    try:
        yield load(SRC, ALIAS)
    finally:
        for name in [name for name in sys.modules
                     if name == ALIAS or name.startswith(ALIAS + ".")]:
            del sys.modules[name]


def test_alias_writes_the_same_bytes(alias, capsys):
    argv = ["solve-nin", "--n-out", "25", "--target", "1e6"]
    outputs = []
    for main in (alias.cli.main, cli.main):
        assert main(argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].out
    # the alias runs its own modules and leaves this package's in place
    assert alias.cli is sys.modules[f"{ALIAS}.cli"] is not cli
    assert alias.bubble is sys.modules[f"{ALIAS}.bubble"]
    assert sys.modules["sonophoton"] is sonophoton
    assert sys.modules["sonophoton.cli"] is cli
