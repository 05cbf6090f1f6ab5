"""``repro snapshot`` then ``repro restore --explain``: the CLI round trip."""

from __future__ import annotations

from repro.cli import main
from repro.store import ArtifactStore, restore_session


def test_snapshot_then_restore_prints_state_and_explains(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main([
        "snapshot", "--store", store, "--name", "german",
        "--dataset", "german", "--rows", "400",
    ]) == 0
    assert capsys.readouterr().out.startswith("tenant 'german' snapshot 00000001 (")
    manifest = ArtifactStore(store).manifest("german")
    assert set(manifest["blobs"]) == {"model", "table", "positive"}

    assert main(["restore", "--store", store, "--name", "german", "--explain"]) == 0
    lines = capsys.readouterr().out.splitlines()

    restored = restore_session(ArtifactStore(store), "german")
    try:
        assert lines[0] == (
            f"tenant 'german' restored: {len(restored.lewis.data)} rows, "
            "table version 0, wal seq 0, state digest "
            f"{restored.lewis.estimator.engine.state_digest()}"
        )
        statements = restored.explain_global()["result"]["statements"][:3]
        assert len(statements) == 3
        assert lines[1:] == ["  " + statement for statement in statements]
    finally:
        restored.close()
