import importlib.util
import json
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


def fake_checkout(root, name):
    """A checkout holding only BENCHMARK.json and a record directory."""
    path = root / name
    (path / "perfbench" / ".work").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.2}]}))
    return str(path)


def test_pairs_report_raw_wall_and_probe_times(ab_pairs, tmp_path, monkeypatch, capsys):
    parent, change = fake_checkout(tmp_path, "parent"), fake_checkout(tmp_path, "change")
    # (raw wall, probe) of the runs on even and odd seeds, per checkout
    times = {parent: [(1.0, 100e-6), (1.2, 110e-6)], change: [(0.8, 90e-6), (0.9, 95e-6)]}

    def run_once(checkout, workload, seed, seconds):
        # the harness's record: an untimed failed operation, a traced one and
        # two plain ones
        raw, probe = times[checkout][seed % 2]
        ops = [{"error": "exit code 1"},
               {"wall_s": 9.0, "raw_wall_s": 9.0, "probe_s": 9.0, "traced": True},
               {"wall_s": 0.5, "raw_wall_s": raw, "probe_s": probe, "traced": False},
               {"wall_s": 0.5, "raw_wall_s": raw + 0.1, "probe_s": probe, "traced": False}]
        record = f"{checkout}/perfbench/.work/result-{workload}-seed{seed}-trace0.json"
        with open(record, "w") as fh:
            json.dump({"operations": ops}, fh)
        return {"failed": 0, "attempted": 4,
                "metrics": {"wall_s": {"value": raw * 100e-6 / probe}}}

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    ab_pairs.main([parent, change, "--workload", "w", "--pairs", "2", "--seed", "4"])
    out = capsys.readouterr().out
    # per run: the medians over its two plain operations
    assert "pair  1 seed 4 parent wall_s 1.0000  raw_wall_s 1.05  probe_s 0.0001\n" in out
    assert "pair  2 seed 5 change wall_s 0.9474  raw_wall_s 0.95  probe_s 9.5e-05\n" in out
    # per side: the medians over the pairs, reported beside the rescaled metric
    assert "raw_wall_s   parent median       1.15" in out
    assert "raw_wall_s   change median        0.9" in out
    assert "probe_s      parent median   0.000105" in out
    assert "probe_s      change median   9.25e-05" in out
    assert "lower in 2/2 pairs (reported)" in out


@pytest.fixture(scope="module")
def compare_runs():
    return load_tool("compare_runs")


def write(path, text):
    path.write_text(text)
    return str(path)


def test_compare_reports_identical_bytes_and_relative_differences(compare_runs, tmp_path):
    base = "# config: {\"a\": 1}\nt,x,flag\n0.0,1.0,True\n1.0,-2.0,False\n"
    a = write(tmp_path / "a.csv", base)
    assert compare_runs.compare(a, write(tmp_path / "same.csv", base)) is None
    other = base.replace("-2.0", "-2.000000002").replace("# config: {\"a\": 1}",
                                                         "# config: {\"a\": 2}")
    assert compare_runs.compare(a, write(tmp_path / "b.csv", other)) == pytest.approx(
        {"x": 1e-9}, rel=1e-6)
    # comment lines aside, every field equal
    assert compare_runs.compare(a, write(tmp_path / "c.csv", "# other\n" + base)) == {}
    flipped = base.replace("False", "True")
    assert compare_runs.compare(a, write(tmp_path / "d.csv", flipped)) == {
        "flag": float("inf")}


def test_compare_refuses_other_columns_rows_or_keys(compare_runs, tmp_path):
    a = write(tmp_path / "a.csv", "t,x\n0.0,1.0\n")
    with pytest.raises(compare_runs.Mismatch, match="columns"):
        compare_runs.compare(a, write(tmp_path / "b.csv", "t,y\n0.0,1.0\n"))
    with pytest.raises(compare_runs.Mismatch, match="rows"):
        compare_runs.compare(a, write(tmp_path / "c.csv", "t,x\n0.0,1.0\n1.0,1.0\n"))
    j = write(tmp_path / "a.json", '{"s": {"m": 1.0, "l": [1, 2]}}')
    with pytest.raises(compare_runs.Mismatch, match="keys"):
        compare_runs.compare(j, write(tmp_path / "b.json", '{"s": {"n": 1.0, "l": [1, 2]}}'))
    with pytest.raises(compare_runs.Mismatch, match="items"):
        compare_runs.compare(j, write(tmp_path / "c.json", '{"s": {"m": 1.0, "l": [1]}}'))
    assert compare_runs.compare(j, write(tmp_path / "d.json",
                                         '{"s": {"m": 1.5, "l": [1, 2]}}')) == pytest.approx(
        {"/s/m": 1.0 / 3.0})
