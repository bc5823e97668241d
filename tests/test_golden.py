"""Every artifact of the committed calls keeps its bytes (see `golden.py`)."""

import golden


def test_every_artifact_matches_the_committed_digests(tmp_path):
    changed = golden.differences(golden.read_table(), golden.run_calls(tmp_path))
    assert changed == [], "differ from tests/golden_digests.json:\n" + "\n".join(changed)
