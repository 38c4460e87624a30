"""The harness the bench scripts share (scripts/_parent.py), without git, and
each script's child process on its smallest case."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
_spec = importlib.util.spec_from_file_location("_parent", SCRIPTS / "_parent.py")
_parent = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_parent)


def test_alternate_puts_the_parent_first_in_even_repeats():
    calls = []

    def run(name, r):
        calls.append((name, r))
        return f"{name} {r}"

    runs = _parent.alternate({"parent": "p", "this": "t"}, 3, run)
    assert calls == [("parent", 0), ("this", 0), ("this", 1), ("parent", 1),
                     ("parent", 2), ("this", 2)]
    assert runs == {"parent": ["parent 0", "parent 1", "parent 2"],
                    "this": ["this 0", "this 1", "this 2"]}


def test_fresh_returns_the_json_on_the_last_stdout_line(tmp_path):
    script = tmp_path / "one.py"
    script.write_text("import json, sys\nprint('{\"not\": \"this\"}')\n"
                      "print(json.dumps({'argv': sys.argv[1:]}))\n")
    assert _parent.fresh(script, "a", 2, tmp_path) == {
        "argv": ["--one", "a", "2", str(tmp_path)]}


# the scripts read Grid internals (_ops, _classify, _cross_one_sided, ...), so
# a rename in src breaks them here rather than at the next re-record; the
# continuation sample, the gate for stopping-rule changes, runs four draws
@pytest.mark.parametrize("script, case, written, key", [
    ("bench_grid.py", ("disk", 32, 1), "feet.npz", "digests"),
    ("bench_continuation.py", ("sweep", 0), "fields.npz", "field_sha256"),
    ("bench_continuation.py", ("sample", 4), "fields.npz", "field_sha256"),
])
def test_script_measures_its_smallest_case(tmp_path, script, case, written, key):
    row = _parent.fresh(SCRIPTS / script, _parent.ROOT, *case, tmp_path / written)
    assert row[key]
    assert (tmp_path / written).is_file()
