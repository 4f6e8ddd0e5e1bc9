"""Byte identity of the CLI's artifacts against committed digests.

A pure refactor must leave every artifact of ``artifact_digests``' fixed
run unchanged, so it passes here as it is.  A change that declares new
numerics re-records the digests (``python tests/artifact_digests.py
--record``) in the same commit.

On a host whose fingerprint has no recorded digests the bytes cannot be
checked against anything, but determinism still can: the run is made a
second time in a new process and must give the same digests for the
same artifact names as the recorded entries, and a warning names the
fingerprint to record.
"""

import warnings

import artifact_digests


def test_artifacts_match_the_recorded_digests():
    got = artifact_digests.compute()
    table = artifact_digests.recorded()
    entry = table.get(got["key"])
    if entry is not None:
        changed = artifact_digests.changed(entry["digests"], got["digests"])
        assert not changed, f"artifacts differ from the recorded digests: {changed}"
        return
    again = artifact_digests.compute()
    assert again["digests"] == got["digests"], "two runs in new processes wrote different bytes"
    for other in table.values():
        assert sorted(other["digests"]) == sorted(got["digests"])
    warnings.warn(
        f"no digests recorded for fingerprint {got['key']} ({got['fingerprint']['blas']}); "
        "only run-to-run identity was checked"
    )


def test_fingerprint_key_depends_on_every_field():
    fp = artifact_digests.fingerprint()
    key = artifact_digests.fingerprint_key(fp)
    assert key == artifact_digests.fingerprint_key(dict(reversed(fp.items())))
    for field, value in [("numpy", "0.0"), ("blas", "other"), ("cpu_features", fp["cpu_features"][:-1])]:
        assert artifact_digests.fingerprint_key({**fp, field: value}) != key, field


def test_changed_names_every_differing_artifact():
    before = {"a": "1", "b": "2", "gone": "3"}
    after = {"b": "2", "a": "9", "new": "4"}
    assert artifact_digests.changed(before, after) == ["a", "gone", "new"]
    assert artifact_digests.changed(before, dict(before)) == []


def test_record_summary_lists_the_changes_or_a_new_fingerprint():
    digests = {"mtl/checkpoint.bin": "1", "stl/checkpoint.bin": "2"}
    assert artifact_digests.record_summary("k", None, digests) == "fingerprint k is new: 2 digests recorded"
    previous = {"fingerprint": {}, "digests": {**digests, "mtl/checkpoint.bin": "0"}}
    assert artifact_digests.record_summary("k", previous, digests).splitlines() == [
        "fingerprint k: 1 of 2 digests changed",
        "mtl/checkpoint.bin",
    ]
    assert artifact_digests.record_summary("k", {"digests": digests}, digests) == "fingerprint k: 0 of 2 digests changed"
