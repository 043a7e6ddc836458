import importlib.util
import os
import textwrap

import pytest


@pytest.fixture(scope="module")
def src_lines():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "src_lines.py")
    spec = importlib.util.spec_from_file_location("src_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blanks(src_lines):
    source = textwrap.dedent('''\
        """Module docstring,
        two lines."""

        import os  # a comment on a code line counts


        def f(x):
            """Function docstring."""
            # a comment line does not count
            y = (x +
                 1)
            return "a string that is not a docstring"


        class C:
            """Class docstring."""
            z = 1
        ''')
    # import, def, the two lines of y, return, class, z
    assert src_lines.code_lines(source) == 7


def test_main_counts_src_from_any_directory(src_lines, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert src_lines.main() == 0
    raw, code = capsys.readouterr().out.splitlines()[-1].split()[:2]
    assert int(raw) > int(code) > 0
