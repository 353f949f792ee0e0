"""The code blocks of README.md run and print what they say they print."""
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading):
    """The first ```python block after the given level-2 heading."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_prints_its_comment(capsys):
    block = _python_block("Library example")
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == (
        "[[0, 1], [2]] [[2], [2], [0, 1]] True\n")
