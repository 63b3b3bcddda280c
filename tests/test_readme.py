import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_use_runs(capsys):
    """The ``python`` block under "Library use" in README.md runs as written
    and prints the L2 error of the solution it computes."""
    text = README.read_text()
    block = re.search(r"```python\n(.*?)```", text[text.index("## Library use"):], re.S)
    exec(compile(block.group(1), str(README), "exec"), {})
    error = float(capsys.readouterr().out)
    assert 0.0 < error < 0.01
