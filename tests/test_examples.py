"""The worked examples regenerate the committed artifacts byte for byte, and the README examples run."""

import doctest
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_examples_match_committed_artifacts(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("run_examples", ROOT / "scripts" / "run_examples.py")
    examples = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(examples)
    monkeypatch.setattr(examples, "OUT", tmp_path)
    examples.pair_example()
    examples.segment_example()
    examples.ball_example()
    written = sorted(tmp_path.iterdir())
    assert len(written) == 6  # one JSON and one SVG per example
    for path in written:
        assert path.read_bytes() == (ROOT / "out" / path.name).read_bytes(), path.name


def test_script_imports_majlat_from_the_checkout_without_pythonpath(tmp_path):
    # run_name other than "__main__" loads the script without writing ./out
    script = ROOT / "scripts" / "run_examples.py"
    code = (
        "import runpy, sys; "
        f"runpy.run_path({str(script)!r}, run_name='not_main'); "
        "print(sys.modules['majlat'].__file__)"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, encoding="utf-8")
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).is_relative_to(ROOT / "src")


def test_readme_examples_run():
    results = doctest.testfile(str(ROOT / "README.md"), module_relative=False, encoding="utf-8")
    assert results.attempted > 0
    assert results.failed == 0
