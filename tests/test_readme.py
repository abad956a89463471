"""The README's examples run as written: its Python example, the first
three commands of its CLI section and its quoted fresh-device fit as
``python -m flashlife.cli``."""

import os
import pathlib
import re
import shlex
import shutil
import subprocess
import sys

import pytest

import flashlife

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def code_blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def cli_examples() -> list[list[str]]:
    """The argument vectors of the README's `flashlife` commands, in order."""
    commands = []
    for block in code_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("flashlife "):
                commands.append(shlex.split(line)[1:])
    return commands


def run_cli(argv, cwd):
    """python -m flashlife.cli argv in cwd, on this checkout's package."""
    src = str(pathlib.Path(flashlife.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "flashlife.cli", *argv],
        cwd=cwd, env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True,
    )


def test_python_example(capsys):
    (block,) = code_blocks("python")
    exec(block, {})
    alpha, lifetime = capsys.readouterr().out.split()
    assert float(alpha) == pytest.approx(0.284, abs=0.002)
    assert int(lifetime) == 5500


@pytest.mark.parametrize("argv", cli_examples()[:3], ids=lambda argv: argv[0])
def test_cli_example(argv, tmp_path):
    # the examples run from the root of a checkout, where params/ lies
    (tmp_path / "params").mkdir()
    shutil.copy(ROOT / "params" / "default.conf", tmp_path / "params")
    proc = run_cli(argv, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_quoted_fresh_device_fit(tmp_path):
    # the fresh-device fit the CLI section quotes: the command runs as
    # written and prints the quoted v_acc_hat, converged and se_log_v_acc
    quote = re.search(
        r"`(estimate --simulate [^`]*)` prints `(v_acc_hat=[^`]*)`,\s+"
        r"`(converged=[^`]*)` and `(se_log_v_acc=[^`]*)`",
        README,
    )
    assert quote is not None
    command, *quoted = quote.groups()
    proc = run_cli(command.split(), tmp_path)
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.strip().split(", ")
    assert [field for field in printed if field in quoted] == quoted, proc.stdout
