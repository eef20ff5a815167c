"""tools/code_lines.py counts code lines one fixed way."""

import importlib.util
import textwrap
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _load():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = textwrap.dedent('''\
    """Module docstring,
    over two lines."""
    import math  # a trailing comment keeps its line

    # a comment line


    class Shape:
        """Class docstring."""

        sides = (3,
                 4)

        def area(self):
            """Function docstring."""
            def inner():
                """Nested docstring."""
                return 1
            note = """a string that
            is not a docstring"""
            return math.pi + inner()
    ''')


def test_code_lines_skips_blanks_comments_and_docstrings():
    # import, class, sides x2, def area, def inner, return 1, note x2,
    # return math.pi
    assert _load().code_lines(SNIPPET) == 10


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert _load().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["10", "1", "11"]
    assert lines[-1].split()[1] == "total"
