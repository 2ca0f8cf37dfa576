"""The worked examples regenerate the committed artifacts byte for byte."""

import importlib.util
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
