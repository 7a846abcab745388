"""The README tour and library sketch, run as written.

Every `$ stabforge ...` line of the command-line tour runs through
`cli.run` next to the README's ex512 code file, and its stdout must match
the lines printed under it exactly.  The library sketch runs as a script,
and each commented value must be what it says.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import re
import shlex

from stabforge.cli import run
from stabforge.stabilizer import PURE, StabilizerCode, format_params

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def blocks() -> list[str]:
    """The fenced code blocks of the README, in order."""
    return re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def tour() -> list[tuple[list[str], str]]:
    """(argv, expected stdout) for every `$ stabforge` line of the tour."""
    steps = []
    for line in next(b for b in blocks() if "$ stabforge" in b).splitlines():
        if line.startswith("$ stabforge "):
            steps.append((shlex.split(line)[2:], []))
        elif line:
            steps[-1][1].append(line)
    return [(argv, "".join(out + "\n" for out in lines)) for argv, lines in steps]


def test_readme_tour_matches_cli(tmp_path, monkeypatch):
    code_file = next(b for b in blocks() if b.startswith("field GF(2)"))
    (tmp_path / "ex512.sym").write_text(code_file, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    steps = tour()
    assert len(steps) == 5
    for argv, expected in steps:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(argv)
        assert code in (0, 1), argv
        assert out.getvalue() == expected, argv
    assert (tmp_path / "dual.sym").read_text(encoding="utf-8").startswith("field GF(2)")


def test_readme_library_sketch():
    sketch = next(b for b in blocks() if b.startswith("from stabforge import"))
    printed = [line.split("#", 1)[1].strip() for line in sketch.splitlines()
               if line.startswith("print(")]
    out = io.StringIO()
    scope: dict = {}
    with contextlib.redirect_stdout(out):
        exec(compile(sketch, str(README), "exec"), scope)
    assert out.getvalue().splitlines() == printed == ["True", "True", "[[7,1,3]]_2"]
    # stab = certify_stabilizer(code)  # [[5,1,3]]_2, pure
    assert format_params(scope["stab"].params) == "[[5,1,3]]_2"
    assert scope["stab"].params.pure == PURE
    # steane = css(hamming, hamming)  # one StabilizerCode
    assert isinstance(scope["steane"], StabilizerCode)
