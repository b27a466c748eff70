"""Unit tests of the verdicts of ``tools/compare_outputs.py`` on synthetic run
lists, and of the inputs of its fixed commands: no command is run, though a
suite may be run in process to show what a command's report can see."""

import importlib.util
import json
import math
import os

import numpy as np
import pytest

from sil import grid_domain, suites

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "compare_outputs.py")
_spec = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _command(label, code=0, stdout=b"ok\n", stderr=b"", files=(), rss=40.0):
    """One command's entry of a run, as ``compare_outputs.run`` lists it."""
    items = [("exit code", code), ("stdout", stdout), ("stderr", stderr), *files]
    return label, items, rss


def _runs(**changes):
    """Two runs of three commands, identical but for the keyword changes to the
    second run's ``verify.congruence`` command."""
    def run(**kw):
        kw = {"files": [("report.json", b'{"a": 1}\n')], **kw}
        return [_command("verify.plaplace"), _command("verify.congruence", **kw),
                _command("reconstruct.identity")]
    return run(), run(**changes)


def test_identical_runs_compare_equal():
    assert compare_outputs.compare(*_runs()) is None


@pytest.mark.parametrize("change, verdict", [
    (dict(code=1), "verify.congruence: exit code differs, 0 != 1"),
    (dict(stdout=b"ok\nnot congruent\n"),
     "verify.congruence: stdout differs, lengths 3 and 17 bytes"),
    (dict(stderr=b"verify error: x\n"),
     "verify.congruence: stderr differs, lengths 0 and 16 bytes"),
    (dict(files=[("report.json", b'{"a": 2}\n')]),
     "verify.congruence: report.json differs, line 1:\n    b'{\"a\": 1}'\n    b'{\"a\": 2}'"),
    (dict(files=[("report.json", None)]),
     "verify.congruence: report.json differs, b'{\"a\": 1}\\n' != None"),
])
def test_the_first_difference_is_described(change, verdict):
    assert compare_outputs.compare(*_runs(**change)) == verdict


def test_compare_names_the_earliest_command_and_item():
    old = [_command("a"), _command("b", stdout=b"1\n"), _command("c", code=0)]
    new = [_command("a"), _command("b", stdout=b"2\n"), _command("c", code=2)]
    assert compare_outputs.compare(old, new) == "b: stdout differs, line 1:\n    b'1'\n    b'2'"
    new[1] = _command("b", stdout=b"1\n", stderr=b"warning\n")
    assert compare_outputs.compare(old, new).startswith("b: stderr differs")


def test_rss_moves_are_the_largest_changes_either_way():
    peaks = [(40.0, 40.1), (50.0, 45.0), (40.0, 42.0), (30.0, 30.0), (40.0, 39.0),
             (40.0, 41.0), (40.0, 40.5)]
    old = [_command(f"c{k}", rss=a) for k, (a, _) in enumerate(peaks)]
    new = [_command(f"c{k}", rss=b) for k, (_, b) in enumerate(peaks)]
    moves = compare_outputs.rss_moves(old, new)
    assert moves == ["  c1: 50.00 -> 45.00 MB (-5.00 MB, -10.0%)",
                     "  c2: 40.00 -> 42.00 MB (+2.00 MB, +5.0%)",
                     "  c4: 40.00 -> 39.00 MB (-1.00 MB, -2.5%)",
                     "  c5: 40.00 -> 41.00 MB (+1.00 MB, +2.5%)",
                     "  c6: 40.00 -> 40.50 MB (+0.50 MB, +1.2%)"]
    assert len(moves) == compare_outputs._TOP_RSS


def test_src_line_counts_of_two_trees(tmp_path):
    # a module on one side only counts 0 on the other; a file that is not a
    # module, or lies outside src, is not counted; a last line without its
    # newline is not counted, as `wc -l` counts
    trees = {"old": {"src/sil/a.py": "1\n2\n3\n", "src/sil/b.py": "1\n2\n",
                     "src/sil/data.txt": "1\n", "tools/t.py": "1\n"},
             "new": {"src/sil/a.py": "1\n", "src/sil/sub/c.py": "1\n2\n3\n4",
                     "src/sil/__pycache__/a.cpython-310.pyc": "1\n"}}
    for tree, files in trees.items():
        for name, text in files.items():
            path = tmp_path / tree / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    old, new = (compare_outputs.src_lines(str(tmp_path / tree)) for tree in trees)
    assert old == {"sil/a.py": 3, "sil/b.py": 2}
    assert compare_outputs.line_moves(old, new) == [
        "  sil/a.py: 3 -> 1 (-2)", "  sil/b.py: 2 -> 0 (-2)", "  sil/sub/c.py: 0 -> 3 (+3)",
        "  total: 5 -> 4 (-1)"]


def test_each_command_runs_on_both_checkouts_back_to_back(tmp_path, monkeypatch):
    # OLD first for commands 0 and 2, NEW first for command 1, each side's run
    # in command order; no command is run, the execution is recorded
    checkouts = []
    for name in ("old", "new"):
        (tmp_path / name / "src" / "sil").mkdir(parents=True)
        (tmp_path / name / "src" / "sil" / "__init__.py").write_text("")
        checkouts.append(str(tmp_path / name))
    monkeypatch.setattr(compare_outputs, "commands", lambda work, seeds: [
        (f"c{k}", ["verify", f"--seed={k}"], ()) for k in range(3)])
    calls = []

    def execute(env, work, argv, outputs):
        side = os.path.basename(os.path.dirname(env["PYTHONPATH"]))
        calls.append((side, argv[-1]))
        return [("exit code", 0), ("stdout", side.encode()), ("stderr", b"")], 40.0

    monkeypatch.setattr(compare_outputs, "_execute", execute)
    old, new = compare_outputs.run(*checkouts, str(tmp_path / "work"), [1])
    assert calls == [("old", "--seed=0"), ("new", "--seed=0"), ("new", "--seed=1"),
                     ("old", "--seed=1"), ("old", "--seed=2"), ("new", "--seed=2")]
    assert [label for label, _, _ in old] == [label for label, _, _ in new] == ["c0", "c1", "c2"]
    assert {items[1] for _, items, _ in old} == {("stdout", b"old")}
    assert {items[1] for _, items, _ in new} == {("stdout", b"new")}
    assert compare_outputs.compare(old, new).startswith("c0: stdout differs")


def test_src_paths_of_unequal_length_are_warned_about(tmp_path, monkeypatch, capsys):
    # paths of equal length, however spelled, give no warning; the warning names both
    # lengths and is printed above the peak RSS listing
    for name in ("old", "new", "newer"):
        (tmp_path / name / "src" / "sil").mkdir(parents=True)
    old, new, newer = (str(tmp_path / name) for name in ("old", "new", "newer"))
    assert compare_outputs.src_path_warning(old, new) is None
    monkeypatch.chdir(tmp_path)
    assert compare_outputs.src_path_warning("old", new) is None
    n = len(os.path.join(old, "src"))
    warning = compare_outputs.src_path_warning(old, newer)
    assert warning.startswith("warning: the src paths of OLD and NEW differ in length")
    assert f"({n} and {n + 2} characters)" in warning
    monkeypatch.setattr(compare_outputs, "run", lambda *args: (
        [_command("c0")], [_command("c0")]))
    assert compare_outputs.main([old, newer, "--work", str(tmp_path / "work")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out.index(warning) == out.index(
        "largest moves of peak RSS, OLD -> NEW (one run each):") - 1
    compare_outputs.main([old, new, "--work", str(tmp_path / "work")])
    assert not any(line.startswith("warning:") for line in capsys.readouterr().out.splitlines())


def test_staircase_image_merges_runs_across_row_blocks(tmp_path):
    # the congruence.staircase target's image under its motion has a covering box of
    # more than one row block, and runs of the image cross a block boundary, so the
    # command runs apply_rigid_motion's merge across blocks end to end
    (argv,) = [argv for label, argv, _ in compare_outputs._fixed_commands(str(tmp_path))
               if label == "congruence.staircase"]
    with open(argv[argv.index("--spec") + 1]) as fh:
        spec = json.load(fh)
    domain = grid_domain.domain_from_spec(spec["target"])
    (entry,) = spec["rigid"]
    motion = grid_domain.RigidMotion.from_json_dict(entry, "rigid entry")
    origin = motion.transform(np.asarray(domain.origin))[0]
    k_lo, k_hi = grid_domain._covering_box(*motion.image_box(*domain.bounding_box),
                                           origin, domain.h, "image")
    shape = (k_hi - k_lo + 1).tolist()
    assert math.prod(shape) > grid_domain._BLOCK
    image = grid_domain.apply_rigid_motion(domain, motion)
    first = np.ravel_multi_index((image.run_cells - k_lo).T, shape)  # in the covering box
    last = first + np.diff(image.run_rows) - 1
    assert np.any(first // grid_domain._BLOCK < last // grid_domain._BLOCK)


def test_example_4_8_blocks_samples_its_closed_form_across_row_blocks(tmp_path):
    # the one fixed command whose transcendental closed form is sampled over more
    # than one row block of target nodes
    (argv,) = [argv for label, argv, _ in compare_outputs._fixed_commands(str(tmp_path))
               if label == "reconstruct.example_4_8_blocks"]
    with open(argv[argv.index("--spec") + 1]) as fh:
        spec = json.load(fh)
    assert spec["builtin"] == "example_4_8"
    target = grid_domain.domain_from_spec("example_4_8_omega2", default_h=spec["h"])
    assert target.n_cells > grid_domain._BLOCK


def test_clarkson_commands_reach_a_partial_stack_and_split_sums(tmp_path):
    # the default clarkson run (400 cells) fills 25 stacks of 40 samples; one fixed
    # command leaves a partial last stack, the other splits each sample's power sums
    argvs = {label: argv for label, argv, _ in compare_outputs._fixed_commands(str(tmp_path))}
    n_cells = {}
    for label in ("clarkson.partial_stack", "clarkson.split_sums"):
        argv = argvs[label]
        assert argv[:3] == ["verify", "--suite", "clarkson"]
        h = float(argv[argv.index("--h") + 1])
        n_cells[label] = grid_domain.make_box((0.0, 0.0), (1.0, 1.0), h).n_cells
    k = grid_domain._BLOCK // n_cells["clarkson.partial_stack"]
    assert k > 1 and 1000 % k != 0
    assert n_cells["clarkson.split_sums"] > max(grid_domain._BLOCK, 128)


def test_clarkson_draw_order_command_sees_the_battery_draw_order(tmp_path, monkeypatch):
    # the battery's stacks drawn as (2, m, n, dim) and transposed leave the default
    # report (h 0.05) byte-identical, but not the report at the draw_order width
    (argv,) = [argv for label, argv, _ in compare_outputs._fixed_commands(str(tmp_path))
               if label == "clarkson.draw_order"]
    assert argv[:3] == ["verify", "--suite", "clarkson"]
    h = float(argv[argv.index("--h") + 1])
    default_rng = np.random.default_rng

    class Reordered:
        def __init__(self, seed):
            self._rng = default_rng(seed)

        def normal(self, loc, scale, size):
            m, two, *rest = size
            return self._rng.normal(loc, scale, (two, m, *rest)).swapaxes(0, 1)

    def report(width):
        return json.dumps(suites.suite_clarkson(suites.SuiteConfig("clarkson", h=width)))

    plain = {width: report(width) for width in (h, 0.05)}
    monkeypatch.setattr(suites.np.random, "default_rng", Reordered)
    assert report(h) != plain[h]
    assert report(0.05) == plain[0.05]
