import importlib.util
import os
import textwrap

import pytest


def load_tool(name):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def src_lines():
    return load_tool("src_lines")


@pytest.fixture(scope="module")
def ab_pairs():
    return load_tool("ab_pairs")


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


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


def test_claim_needs_nine_wins_in_ten(ab_pairs):
    faster = [0.88 * p for p in PARENT]
    assert ab_pairs.wins(PARENT, faster) == 10
    assert ab_pairs.claim_holds(PARENT, faster)
    # one lost pair of ten still holds, two do not
    one_lost = faster[:9] + [1.05]
    assert ab_pairs.claim_holds(PARENT, one_lost)
    two_lost = faster[:8] + [1.05, 1.05]
    assert ab_pairs.wins(PARENT, two_lost) == 8
    assert not ab_pairs.claim_holds(PARENT, two_lost)
    # a tie is not a win
    assert ab_pairs.wins(PARENT, PARENT) == 0


def test_claim_needs_a_gap_beyond_the_parents_iqr(ab_pairs):
    q1, med, q3 = ab_pairs.quartiles(PARENT)
    assert q1 < med < q3
    # every pair won, but by less than the parent's spread
    nudged = [p - 0.5 * (q3 - q1) for p in PARENT]
    assert ab_pairs.wins(PARENT, nudged) == 10
    assert not ab_pairs.claim_holds(PARENT, nudged)
    # higher-is-better metrics take the mirrored rule
    assert ab_pairs.claim_holds(PARENT, [1.12 * p for p in PARENT], better="higher")
    assert not ab_pairs.claim_holds(PARENT, [0.88 * p for p in PARENT], better="higher")


def test_bound_is_relative_to_the_parents_median(ab_pairs):
    assert ab_pairs.within_bound(PARENT, [1.19 * p for p in PARENT], 0.2)
    assert not ab_pairs.within_bound(PARENT, [1.21 * p for p in PARENT], 0.2)
    assert ab_pairs.within_bound(PARENT, [0.5 * p for p in PARENT], 0.2)
    assert not ab_pairs.within_bound(PARENT, [0.79 * p for p in PARENT], 0.2,
                                     better="higher")
