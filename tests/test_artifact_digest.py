"""The variant loop of tools/artifact_digest.py, driven with a stub flow,
so a harness that skips a variant or never applies it cannot pass."""

import hashlib
import importlib.util
import os
from pathlib import Path

import pytest

from panostitch import _plane_search, icp

TOOL = Path(__file__).parent.parent / "tools" / "artifact_digest.py"
spec = importlib.util.spec_from_file_location("artifact_digest", TOOL)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)

# The variants a stub can run: a child interpreter runs the tool's own flow.
IN_PROCESS = [v for v in tool.VARIANTS if not v[2]]


def state():
    """What each in-process variant changes."""
    return {"PANOSTITCH_THREADS": os.environ.get("PANOSTITCH_THREADS"),
            "_SCORE_BLOCK": _plane_search._SCORE_BLOCK,
            "NORMAL_BLOCK": icp.NORMAL_BLOCK}


def stub_flow(seen, unstable=None):
    """A flow writing a.txt and b.txt; b.txt holds `state()[unstable]`."""
    def flow(out):
        seen.append(state())
        paths = [out / "a.txt", out / "b.txt"]
        paths[0].write_text("stable")
        paths[1].write_text(repr(state()[unstable]) if unstable else "stable")
        return paths
    return flow


def test_stable_flow_passes_after_every_variant(tmp_path):
    seen = []
    digests = tool.replay(tmp_path, stub_flow(seen), IN_PROCESS)
    digest = hashlib.sha256(b"stable").hexdigest()
    assert digests == {"a.txt": digest, "b.txt": digest}
    base = state()
    assert seen == [base,
                    {**base, "PANOSTITCH_THREADS": "1"},
                    {**base, "PANOSTITCH_THREADS": "8"},
                    {**base, "_SCORE_BLOCK": 1},
                    {**base, "NORMAL_BLOCK": 1}]
    assert state() == base   # every patch undone


@pytest.mark.parametrize("unstable, label", [
    ("PANOSTITCH_THREADS", "PANOSTITCH_THREADS=1"),
    ("_SCORE_BLOCK", "one hypothesis per block"),
    ("NORMAL_BLOCK", "one normal per block"),
])
def test_changed_bytes_name_the_file_and_variant(tmp_path, monkeypatch, unstable, label):
    monkeypatch.delenv("PANOSTITCH_THREADS", raising=False)
    with pytest.raises(SystemExit, match=f"^b.txt differs at {label}$"):
        tool.replay(tmp_path, stub_flow([], unstable), IN_PROCESS)


def test_table_holds_every_variant():
    assert [v[0] for v in tool.VARIANTS] == [
        "PANOSTITCH_THREADS=1", "PANOSTITCH_THREADS=8", "one hypothesis per block",
        "one normal per block", "OPENBLAS_NUM_THREADS=1"]
    assert [v[0] for v in tool.VARIANTS if v[2]] == ["OPENBLAS_NUM_THREADS=1"]
