"""The per-key comparison of ``tools/artifact_digests.py --against``."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "artifact_digests", Path(__file__).resolve().parent.parent / "tools" / "artifact_digests.py"
)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)


def test_a_column_prints_its_relative_and_its_column_scale_difference():
    # the near-zero entry sets the per-value figure, the largest entry the column's scale
    a = {"p": ["1.0", "0.001", "-0.5"], "t": ["0", "1", "2"]}
    b = {"p": ["1.000000000000001", "0.0010000000000001", "-0.5"], "t": ["0", "1", "2"]}
    [(key, difference)] = digests._key_differences(a, b)
    relative, scaled = map(float, difference.split())
    assert key == "p"
    # decimal strings round to doubles: each figure within 20% of its decimal value
    assert 0.8e-13 <= relative <= 1.2e-13
    assert 0.8e-15 <= scaled <= 1.2e-15


def test_non_numeric_and_missing_keys_keep_their_words():
    assert digests._key_differences({"a": ["x"], "b": [1]}, {"a": ["y"]}) == [("a", "differs"), ("b", "missing")]
