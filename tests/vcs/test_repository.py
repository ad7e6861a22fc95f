"""Unit tests for the MiniGit repository and blame."""

import pytest

from repro.errors import VcsError
from repro.vcs import Author, BlameIndex, Repository, blame, day_to_iso, iso_to_day

ALICE = Author("alice", "alice@example.com")
BOB = Author("bob", "bob@example.com")
CAROL = Author("carol", "carol@example.com")


def make_repo():
    repo = Repository("demo")
    repo.commit(ALICE, "create main.c", {"main.c": "line1\nline2\nline3"}, day=100)
    repo.commit(BOB, "edit line2", {"main.c": "line1\nline2-edited\nline3"}, day=200)
    repo.commit(ALICE, "add util.c", {"util.c": "u1\nu2"}, day=300)
    return repo


class TestDates:
    def test_roundtrip(self):
        assert iso_to_day(day_to_iso(7543)) == 7543

    def test_epoch(self):
        assert day_to_iso(0) == "2000-01-01"

    def test_known_date(self):
        assert iso_to_day("2019-01-01") == 6940


class TestCommits:
    def test_snapshot_accumulates(self):
        repo = make_repo()
        assert repo.files() == ["main.c", "util.c"]

    def test_touched_tracks_changes_only(self):
        repo = make_repo()
        assert repo.commits[1].touched == ("main.c",)
        assert repo.commits[2].touched == ("util.c",)

    def test_unchanged_content_not_touched(self):
        repo = make_repo()
        commit = repo.commit(BOB, "noop", {"main.c": repo.file_at("main.c")}, day=400)
        assert commit.touched == ()

    def test_delete_file(self):
        repo = make_repo()
        repo.commit(BOB, "remove util", {"util.c": None}, day=400)
        assert repo.files() == ["main.c"]

    def test_non_monotonic_day_rejected(self):
        repo = make_repo()
        with pytest.raises(VcsError):
            repo.commit(BOB, "back in time", {"x.c": "x"}, day=50)

    def test_head_of_empty_repo_raises(self):
        with pytest.raises(VcsError):
            Repository().head

    def test_commit_ids_unique(self):
        repo = make_repo()
        ids = [commit.commit_id for commit in repo.commits]
        assert len(set(ids)) == len(ids)

    def test_file_at_old_revision(self):
        repo = make_repo()
        assert repo.file_at("main.c", rev=0) == "line1\nline2\nline3"

    def test_missing_file_raises(self):
        repo = make_repo()
        with pytest.raises(VcsError):
            repo.file_at("nope.c")

    def test_snapshot_at_day(self):
        repo = make_repo()
        snap = repo.snapshot_at_day(250)
        assert "util.c" not in snap
        assert "line2-edited" in snap["main.c"]

    def test_bugfix_heuristic(self):
        repo = make_repo()
        fix = repo.commit(BOB, "Fix off-by-one in parser", {"main.c": "fixed"}, day=500)
        assert fix.is_bugfix()
        assert not repo.commits[0].is_bugfix()


class TestLogsAndStats:
    def test_file_log(self):
        repo = make_repo()
        log = repo.file_log("main.c")
        assert [commit.author.name for commit in log] == ["alice", "bob"]

    def test_file_stats_creator(self):
        repo = make_repo()
        stats = repo.file_stats("main.c", ALICE)
        assert stats.first_authorship
        assert stats.deliveries == 1
        assert stats.acceptances == 1

    def test_file_stats_non_creator(self):
        repo = make_repo()
        stats = repo.file_stats("main.c", BOB)
        assert not stats.first_authorship
        assert stats.deliveries == 1
        assert stats.acceptances == 1

    def test_file_stats_stranger(self):
        repo = make_repo()
        stats = repo.file_stats("main.c", CAROL)
        assert stats == type(stats)(first_authorship=False, deliveries=0, acceptances=2)

    def test_file_stats_until_rev(self):
        repo = make_repo()
        stats = repo.file_stats("main.c", BOB, until_rev=0)
        assert stats.deliveries == 0

    def test_authors_listing(self):
        repo = make_repo()
        assert [author.name for author in repo.authors()] == ["alice", "bob"]

    def test_author_added_by_commit_is_found(self):
        repo = make_repo()
        assert repo.author("bob") == BOB
        assert repo.author("carol") is None
        repo.commit(CAROL, "add notes.c", {"notes.c": "n1"}, day=400)
        assert repo.author("carol") == CAROL
        assert [author.name for author in repo.authors()] == ["alice", "bob", "carol"]


class TestBlame:
    def test_initial_attribution(self):
        repo = make_repo()
        entries = blame(repo, "main.c", rev=0)
        assert all(entry.author == ALICE for entry in entries)

    def test_edit_reattributes_changed_line(self):
        repo = make_repo()
        entries = blame(repo, "main.c")
        assert entries[0].author == ALICE
        assert entries[1].author == BOB
        assert entries[2].author == ALICE

    def test_insertion_attribution(self):
        repo = Repository()
        repo.commit(ALICE, "base", {"f.c": "a\nc"}, day=1)
        repo.commit(BOB, "insert", {"f.c": "a\nb\nc"}, day=2)
        entries = blame(repo, "f.c")
        assert [entry.author.name for entry in entries] == ["alice", "bob", "alice"]

    def test_blame_day_recorded(self):
        repo = make_repo()
        entries = blame(repo, "main.c")
        assert entries[1].day == 200

    def test_blame_unknown_file(self):
        repo = make_repo()
        with pytest.raises(VcsError):
            blame(repo, "missing.c")

    def test_blame_index_caches_and_answers(self):
        repo = make_repo()
        index = BlameIndex(repo)
        assert index.line_info("main.c", 2).author == BOB
        assert index.line_info("main.c", 99) is None
        info = index.line_info("main.c", 1)
        assert info is not None and info.commit_id == repo.commits[0].commit_id

    def test_blame_at_old_revision(self):
        repo = make_repo()
        index = BlameIndex(repo, rev=0)
        assert index.line_info("main.c", 2).author == ALICE

    def test_multi_round_growth(self):
        repo = Repository()
        repo.commit(ALICE, "r0", {"f.c": "int f(void) {\n  int a = 1;\n}"}, day=1)
        repo.commit(BOB, "r1", {"f.c": "int f(void) {\n  int a = 1;\n  a = 2;\n}"}, day=2)
        repo.commit(CAROL, "r2", {"f.c": "int f(void) {\n  int a = 1;\n  a = 2;\n  return a;\n}"}, day=3)
        entries = blame(repo, "f.c")
        assert [entry.author.name for entry in entries] == ["alice", "alice", "bob", "carol", "alice"]


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        repo = make_repo()
        path = tmp_path / "repo.json"
        repo.save(path)
        loaded = Repository.load(path)
        assert loaded.files() == repo.files()
        assert loaded.commits[1].author == BOB
        assert blame(loaded, "main.c")[1].author == BOB

    def test_checkout(self, tmp_path):
        repo = make_repo()
        repo.checkout_to(tmp_path / "wt")
        assert (tmp_path / "wt" / "main.c").read_text() == repo.file_at("main.c")
