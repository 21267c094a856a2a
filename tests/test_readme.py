"""README examples: the `$ fibjacobi ...` transcripts and the quick-start values.

Each shell example is run through the CLI entry point and must print the
lines the README shows.  Each quick-start line whose comment starts with a
number is evaluated and must match it to the digits shown; a trailing
"..." marks a truncated value.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from fibjacobi.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _transcripts() -> list[tuple[list[str], list[str]]]:
    """(argv, printed lines) for every `$ fibjacobi` example."""
    out = []
    for block in re.findall(r"```sh\n(.*?)```", README, re.S):
        for example in block.strip().split("\n\n"):
            command, *printed = example.splitlines()
            if command.startswith("$ fibjacobi "):
                out.append((shlex.split(command)[2:], printed))
    return out


def _quick_start() -> tuple[str, list[tuple[str, str]]]:
    """The quick-start code, and (expression, number) for each numbered comment."""
    code = re.search(r"## Library quick start\n\n```python\n(.*?)```", README, re.S).group(1)
    checks = []
    for line in code.splitlines():
        m = re.match(r"(\S.*?)\s+#\s+(-?\d+(?:\.\d+)?)", line)
        if m and "=" not in m.group(1).replace("==", ""):
            checks.append((m.group(1), m.group(2)))
    return code, checks


def test_readme_has_examples():
    commands = {argv[0] for argv, _ in _transcripts()}
    assert {"bands", "dimension", "verify"} <= commands
    assert len(_quick_start()[1]) >= 4


@pytest.mark.parametrize("argv, printed", _transcripts(), ids=lambda v: " ".join(v)[:40])
def test_readme_cli_example(argv, printed, tmp_path):
    # Files the example writes go to a temporary directory.
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv = [*argv[:i], str(tmp_path / argv[i]), *argv[i + 1 :]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert buf.getvalue().splitlines() == printed
    assert code == 0


def test_readme_quick_start_values():
    code, checks = _quick_start()
    names = {}
    exec(code, names)
    for expr, number in checks:
        value = eval(expr, names)
        digits = len(number.split(".")[1]) if "." in number else 0
        if digits:
            # Shown rounded or truncated to that many digits.
            assert abs(value - float(number)) < 10.0**-digits, (expr, value, number)
        else:
            assert value == int(number), (expr, value, number)
