import importlib.util
import os

LOC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "tools", "loc.py")
spec = importlib.util.spec_from_file_location("loc", LOC)
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment counts as code

# a comment line


class A:
    """Class docstring."""

    X = """a multi-line string
that is a value,
not a docstring"""

    def f(self):
        \'\'\'Method docstring.\'\'\'
        return (1 +
                2)


def g():
    "one-line docstring"
    "a second string statement is code"
'''


def test_counts_code_lines_only():
    # import, class, X (3 lines), def f, return (2 lines), def g, and the
    # second string statement
    assert loc.count_code_lines(FIXTURE) == 10


def test_main_prints_files_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# c\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert loc.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["10", str(tmp_path / "a.py")], ["1", str(tmp_path / "sub" / "b.py")],
        ["11", "total"]]
