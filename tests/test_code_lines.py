"""tools/code_lines.py, the counter behind the net-negative size gates."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def _count(tmp_path, source: str) -> int:
    path = tmp_path / "module.py"
    path.write_text(source, encoding="utf-8")
    return code_lines.code_lines(path)


def test_docstrings_comments_and_blank_lines_are_not_code(tmp_path):
    source = '''"""A module
docstring."""

# a comment-only line
import os  # a trailing comment leaves its line code


class Thing:
    """A class docstring."""

    def method(self):
        """A function
        docstring over
        three lines."""
        # another comment

        return os.sep


async def waiting():
    """An async docstring."""
'''
    assert _count(tmp_path, source) == 5  # import, class, def, return, async def


def test_a_multi_line_string_that_is_not_a_docstring_counts_every_line(tmp_path):
    source = '''x = 1
TEXT = """one
two
three"""


def f():
    y = 2
    """Not the first statement, so not a docstring:
    both its lines count."""
'''
    assert _count(tmp_path, source) == 8


def test_the_total_is_the_sum_of_the_module_lines(capsys):
    src = ROOT / "src"
    assert code_lines.main([str(src)]) == 0
    *rows, total = capsys.readouterr().out.splitlines()
    counts = {name: int(count) for count, name in map(str.split, rows)}
    assert counts == {str(path.relative_to(src)): code_lines.code_lines(path)
                      for path in src.rglob("*.py")}
    assert total.split() == [str(sum(counts.values())), "total"]
