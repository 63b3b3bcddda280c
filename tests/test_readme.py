import re
import shlex
from pathlib import Path

from linedg.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_library_use_runs(capsys):
    """The ``python`` block under "Library use" in README.md runs as written
    and prints the L2 error of the solution it computes."""
    text = README.read_text()
    block = re.search(r"```python\n(.*?)```", text[text.index("## Library use"):], re.S)
    exec(compile(block.group(1), str(README), "exec"), {})
    error = float(capsys.readouterr().out)
    assert 0.0 < error < 0.01


def test_readme_command_lines_run(tmp_path):
    """Each ``linedg`` line of the "Command line" block in README.md runs as
    written, without VTK and with its output directory under a temporary one,
    and exits 0."""
    text = README.read_text()
    block = re.search(r"```sh\n(.*?)```", text[text.index("## Command line"):], re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert lines and all(words[0] == "linedg" for words in lines)
    for config, flag, out in (words[1:] for words in lines):
        assert flag == "--out-dir"
        assert main([str(ROOT / config), flag, str(tmp_path / out), "--no-vtk"]) == 0, config
