"""Repository storage: the format-2 file, the format-1 converter, and
typed errors for untrusted repository files."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VcsError
from repro.vcs import Author, Repository, blame
from repro.vcs import repository as repository_module

ALICE = Author("alice", "alice@example.com")
BOB = Author("bob", "bob@example.com")
DATA = Path(__file__).parent / "data"

MAIN_V1 = "int main(void)\n{\n    int status = 0;\n    return status;\n}\n"
MAIN_V2 = "int main(void)\n{\n    int status = 0;\n    status = run();\n    return status;\n}\n"
UTIL = "int run(void)\n{\n    return 1;\n}\n"
DEBUG = "void trace(void)\n{\n    int level = 2;\n}\n"


def fixture_history() -> Repository:
    """The history ``data/format1.json`` was saved from, by the format-1
    writer (one full snapshot per commit): two authors, a delete, and a
    re-added file whose text an earlier commit already had."""
    repo = Repository("format1-fixture")
    repo.commit(ALICE, "create main.c and util.c", {"main.c": MAIN_V1, "util.c": UTIL}, day=100)
    repo.commit(BOB, "fix bug: call run()", {"main.c": MAIN_V2}, day=150)
    repo.commit(ALICE, "remove util.c", {"util.c": None}, day=200)
    repo.commit(BOB, "add debug tracing", {"debug.c": DEBUG}, day=250)
    repo.commit(ALICE, "restore util.c", {"util.c": UTIL}, day=300)
    return repo


def paths_ever(repo: Repository) -> list[str]:
    return sorted({path for commit in repo.commits for path in commit.changes})


def assert_same_history(loaded: Repository, expected: Repository) -> None:
    """Equal commits, and equal snapshots, blame and file stats at every
    revision."""
    assert loaded.commits == expected.commits
    for rev in range(len(expected.commits)):
        assert loaded.snapshot_at(rev) == expected.snapshot_at(rev)
        assert loaded.files(rev) == expected.files(rev)
        for path in paths_ever(expected):
            if expected.file_log(path, rev):
                assert blame(loaded, path, rev) == blame(expected, path, rev)
            for author in expected.authors():
                assert loaded.file_stats(path, author, rev) == expected.file_stats(path, author, rev)


def saved(repo: Repository) -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "repo.json"
        repo.save(path)
        return path.read_bytes()


def load_bytes(data: bytes) -> Repository:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "repo.json"
        path.write_bytes(data)
        return Repository.load(path)


class TestFormat1Fixture:
    def test_fixture_is_format1(self):
        document = json.loads((DATA / "format1.json").read_text())
        assert "format" not in document
        assert all("snapshot" in entry for entry in document["commits"])

    def test_loads_the_same_history(self):
        loaded = Repository.load(DATA / "format1.json")
        expected = fixture_history()
        assert loaded.name == expected.name
        assert_same_history(loaded, expected)

    def test_delete_and_restore(self):
        loaded = Repository.load(DATA / "format1.json")
        assert loaded.commits[2].changes == {"util.c": None}
        assert loaded.files(2) == ["main.c"]
        assert blame(loaded, "util.c", 2) == []
        restore = loaded.commits[4].commit_id
        assert {entry.commit_id for entry in blame(loaded, "util.c")} == {restore}

    def test_resave_is_format2(self, tmp_path):
        path = tmp_path / "repo.json"
        Repository.load(DATA / "format1.json").save(path)
        assert json.loads(path.read_text())["format"] == 2
        assert_same_history(Repository.load(path), fixture_history())


class TestFormat2:
    def test_each_text_stored_once(self):
        document = fixture_history().to_dict()
        assert document["format"] == 2
        assert sorted(document["blobs"].values()) == sorted({MAIN_V1, MAIN_V2, UTIL, DEBUG})
        restore = document["commits"][4]["changes"]
        create = document["commits"][0]["changes"]
        assert restore["util.c"] == create["util.c"]
        assert document["commits"][2]["changes"] == {"util.c": None}

    def test_commits_hold_only_changes(self):
        repo = fixture_history()
        assert [commit.touched for commit in repo.commits] == [
            ("main.c", "util.c"),
            ("main.c",),
            ("util.c",),
            ("debug.c",),
            ("util.c",),
        ]
        assert repo.snapshot_at(3) == {"main.c": MAIN_V2, "debug.c": DEBUG}

    def test_loaded_commits_share_blob_text(self, tmp_path):
        path = tmp_path / "repo.json"
        fixture_history().save(path)
        loaded = Repository.load(path)
        assert loaded.commits[4].changes["util.c"] is loaded.commits[0].changes["util.c"]


history_steps = st.lists(
    st.tuples(
        st.sampled_from([ALICE, BOB]),
        st.dictionaries(
            st.sampled_from(["a.c", "b.c", "dir/c.c"]),
            st.none() | st.lists(st.sampled_from(["x", "y", "", "int z;"]), max_size=4).map("\n".join),
            max_size=3,
        ),
        st.integers(min_value=0, max_value=30),
    ),
    min_size=1,
    max_size=8,
)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(history_steps)
    def test_save_load_keeps_history(self, steps):
        repo = Repository("random")
        day = 0
        for index, (author, changes, gap) in enumerate(steps):
            day += gap
            repo.commit(author, f"step {index}", changes, day=day)
        assert_same_history(load_bytes(saved(repo)), repo)


class TestUntrustedFiles:
    @staticmethod
    def mutated(mutate) -> bytes:
        document = fixture_history().to_dict()
        mutate(document)
        return json.dumps(document).encode()

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"{not json",
            b"\xff\xfe{}",
            b"[]",
            b"{}",
            b'{"format": 2}',
            b'{"format": 9, "commits": []}',
            b'{"commits": [{"commit_id": "x"}]}',
            b"[" * 100_000 + b"]" * 100_000,
        ],
    )
    def test_malformed_files(self, data):
        with pytest.raises(VcsError):
            load_bytes(data)

    def test_unknown_format(self):
        data = self.mutated(lambda document: document.update(format=3))
        with pytest.raises(VcsError, match="unknown repository format"):
            load_bytes(data)

    def test_missing_blob(self):
        def drop_blob(document):
            document["blobs"].pop(document["commits"][3]["changes"]["debug.c"])

        with pytest.raises(VcsError, match="missing blob"):
            load_bytes(self.mutated(drop_blob))

    def test_blob_content_mismatch(self):
        def corrupt_blob(document):
            blob_id = document["commits"][3]["changes"]["debug.c"]
            document["blobs"][blob_id] = DEBUG.replace("2", "3")

        with pytest.raises(VcsError, match="does not match"):
            load_bytes(self.mutated(corrupt_blob))

    def test_commit_table_digest(self):
        data = self.mutated(lambda document: document["commits"][1]["author"].update(email="x@y"))
        with pytest.raises(VcsError, match="digest"):
            load_bytes(data)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_truncated_or_flipped_file(self, data):
        original = saved(fixture_history())
        if data.draw(st.booleans(), label="truncate"):
            mutant = original[: data.draw(st.integers(0, len(original) - 1), label="length")]
        else:
            index = data.draw(st.integers(0, len(original) - 1), label="index")
            byte = data.draw(st.integers(0, 255).filter(lambda b: b != original[index]), label="byte")
            mutant = original[:index] + bytes([byte]) + original[index + 1 :]
        try:
            loaded = load_bytes(mutant)
        except VcsError:
            return
        assert loaded.commits == fixture_history().commits


class TestAtomicSave:
    def test_interrupted_save_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "repo.json"
        fixture_history().save(path)
        before = path.read_bytes()

        def interrupted(source, target):
            raise KeyboardInterrupt

        monkeypatch.setattr(repository_module.os, "replace", interrupted)
        grown = fixture_history()
        grown.commit(BOB, "more", {"new.c": "int n;"}, day=400)
        with pytest.raises(KeyboardInterrupt):
            grown.save(path)
        assert path.read_bytes() == before
        assert [entry.name for entry in tmp_path.iterdir()] == ["repo.json"]


class TestCommitLookup:
    def test_ids_resolve_to_their_commit(self):
        repo = fixture_history()
        for index, commit in enumerate(repo.commits):
            assert repo.rev_index(commit.commit_id) == index
            assert repo.commit_by_id(commit.commit_id) is commit

    def test_index_follows_new_commits(self):
        repo = fixture_history()
        repo.commit_by_id(repo.commits[0].commit_id)  # builds the index
        added = repo.commit(BOB, "later", {"later.c": "int l;"}, day=500)
        assert repo.commit_by_id(added.commit_id) is added
        assert repo.file_log("later.c") == [added]

    @pytest.mark.parametrize("rev", ["0000deadbeef", 99, -99, 1.5, True, [1]])
    def test_bad_revisions_raise_vcs_error(self, rev):
        with pytest.raises(VcsError):
            fixture_history().rev_index(rev)
