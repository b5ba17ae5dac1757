"""The README's examples, run as written.

Every fenced block that starts with `$ steinmac` runs through cli.main,
and the `>>>` session runs as a doctest, both in a temporary directory
holding the inputs in tests/data/readme/. Printed lines are compared as
doctest compares them with ELLIPSIS: `...` matches any run of lines or
characters.
"""

import doctest
import re
import shlex
import shutil
from pathlib import Path

import pytest

from steinmac import cli

README = Path(__file__).resolve().parents[1] / "README.md"
INPUTS = Path(__file__).with_name("data") / "readme"
BLOCKS = re.findall(r"^```[a-z]*\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
COMMANDS = [b for b in BLOCKS if b.startswith("$ steinmac ")]
SESSIONS = [b for b in BLOCKS if b.startswith(">>> ")]


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    for path in INPUTS.iterdir():
        shutil.copy(path, tmp_path)
    monkeypatch.chdir(tmp_path)


def test_every_example_is_found():
    assert len(COMMANDS) == 4 and len(SESSIONS) == 1


def test_shown_inputs_are_the_test_data():
    # the README prints run.cfg and noisy.kernel in full
    for name in ("run.cfg", "noisy.kernel"):
        assert (INPUTS / name).read_text() in BLOCKS, name


@pytest.mark.parametrize("block", COMMANDS, ids=lambda b: b.splitlines()[0][2:])
def test_command_prints_what_the_readme_shows(block, inputs, capsys):
    command, *lines = block.splitlines()
    code = cli.main(shlex.split(command)[2:])  # drop "$ steinmac"
    got = capsys.readouterr().out
    want = "\n".join(lines) + "\n"
    check = doctest.OutputChecker()
    assert code == 0
    assert check.check_output(want, got, doctest.ELLIPSIS), check.output_difference(
        doctest.Example(command, want), got, doctest.ELLIPSIS)


def test_python_session(inputs):
    test = doctest.DocTestParser().get_doctest(
        SESSIONS[0], {}, "README session", str(README), 0)
    report = []
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    result = runner.run(test, out=report.append)
    assert result.attempted > 0 and result.failed == 0, "".join(report)
