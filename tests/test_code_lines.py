import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

# 9 code lines: docstrings, comments and blank lines do not count; a
# multi-line string that is not a docstring counts on each of its lines,
# and so does each line of a statement split over several.
MODULE = '''"""Module docstring
over two lines."""

# a comment line
import os  # code with a comment


class A:
    """Class docstring."""

    x = 1


def f(a,
      b):
    """Function
    docstring."""
    text = """not a docstring:
    every line counts"""
    return (a +
            b)
'''


def test_code_lines_counts_fixture(tmp_path):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == ["a.py 9", "sub/b.py 1", "total 10"]
