"""Golden digests: the CLI pipeline's files must not change by a single byte.

tests/golden_digests.json holds the SHA-256 of every file that
`train -> feedback -> eval -> sweep` and `jacobian-bench` write for each
environment at seeds 0 and 7, generated by scripts/golden_digests.py. A change that alters outputs
on purpose regenerates them with `python scripts/golden_digests.py --write`
and names each changed file in CHANGES.md; any other change must keep them.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_script():
    spec = importlib.util.spec_from_file_location("golden_digests", ROOT / "scripts" / "golden_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pipeline_outputs_match_golden_digests():
    golden_digests = _load_script()
    stored = json.loads(golden_digests.DIGEST_FILE.read_text())
    here = golden_digests.library_versions()
    for lib, version in here.items():
        if stored[lib] != version:
            pytest.fail(
                f"golden digests were generated with {lib} {stored[lib]!r}, but this run has "
                f"{lib} {version!r}; outputs cannot be compared across {lib} versions. "
                "Regenerate them with scripts/golden_digests.py --write at a commit whose "
                "outputs are known good."
            )
    assert (stored["seeds"], stored["rollouts"]) == (list(golden_digests.SEEDS), golden_digests.ROLLOUTS)

    digests = golden_digests.pipeline_digests()
    missing = sorted(stored["files"].keys() - digests.keys())
    extra = sorted(digests.keys() - stored["files"].keys())
    changed = sorted(f for f in digests.keys() & stored["files"].keys() if digests[f] != stored["files"][f])
    assert not (missing or extra or changed), (
        f"pipeline outputs differ from the golden digests: changed {changed}, "
        f"missing {missing}, new {extra}"
    )
