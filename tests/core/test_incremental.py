"""Unit tests for incremental per-commit analysis (§8.6)."""

import pytest

from repro.core.incremental import IncrementalAnalyzer, changed_line_ranges
from repro.core.project import Project
from repro.core.valuecheck import ValueCheckConfig
from repro.errors import VcsError

from tests.core.helpers import AUTHOR1, AUTHOR2, build_multifile_history
from tests.core.stale_verdicts import PARAM_KEY, PEER_KEY, param_history, peer_history

BASE = {
    "lib.c": "int status(void)\n{\n    return 1;\n}\n",
    "app.c": (
        "int status(void);\n"
        "int run(void)\n"
        "{\n"
        "    int r;\n"
        "    r = status();\n"
        "    if (r) { return 1; }\n"
        "    return 0;\n"
        "}\n"
    ),
    "other.c": "void idle(void)\n{\n}\n",
}

BUGGY_APP = (
    "int status(void);\n"
    "int run(void)\n"
    "{\n"
    "    int r;\n"
    "    r = status();\n"
    "    r = 0;\n"
    "    if (r) { return 1; }\n"
    "    return 0;\n"
    "}\n"
)


def analyzer_at(repo, rev, config=None):
    return IncrementalAnalyzer(Project.from_repository(repo, rev=rev), config=config, rev=rev)


def repo_with_buggy_commit():
    return build_multifile_history(
        [
            (AUTHOR1, dict(BASE)),
            (AUTHOR2, {"app.c": BUGGY_APP}),
        ]
    )


class TestChangedLineRanges:
    def test_insert(self):
        ranges = changed_line_ranges("a\nc", "a\nb\nc")
        assert ranges == [(2, 2)]

    def test_replace(self):
        ranges = changed_line_ranges("a\nOLD\nc", "a\nNEW\nc")
        assert ranges == [(2, 2)]

    def test_no_change(self):
        assert changed_line_ranges("a\nb", "a\nb") == []

    def test_delete_touches_seam(self):
        ranges = changed_line_ranges("a\nb\nc", "a\nc")
        assert ranges and all(1 <= lo <= hi for lo, hi in ranges)


class TestIncrementalAnalyzer:
    def test_replay_detects_new_bug(self):
        repo = repo_with_buggy_commit()
        analyzer = analyzer_at(repo, 0)
        result = analyzer.replay()
        assert result.changed_files == ["app.c"]
        assert result.changed_functions == ["run"]
        reported = result.reported()
        assert any(f.candidate.var == "r" for f in reported)

    def test_untouched_functions_not_analyzed(self):
        repo = repo_with_buggy_commit()
        analyzer = analyzer_at(repo, 0)
        result = analyzer.replay()
        assert "idle" not in result.changed_functions
        assert "status" not in result.changed_functions

    def test_cross_scope_preserved_incrementally(self):
        repo = repo_with_buggy_commit()
        analyzer = analyzer_at(repo, 0)
        result = analyzer.replay()
        (finding,) = [f for f in result.reported() if f.candidate.var == "r"]
        assert finding.authorship.introducing_author == "author2"

    def test_noop_commit_yields_nothing(self):
        repo = build_multifile_history(
            [
                (AUTHOR1, dict(BASE)),
                (AUTHOR2, {"notes.md": "irrelevant"}),
            ]
        )
        analyzer = analyzer_at(repo, 0)
        result = analyzer.replay()
        assert result.changed_files == []
        assert result.findings == []

    def test_replay_past_head_raises(self):
        repo = repo_with_buggy_commit()
        analyzer = analyzer_at(repo, 1)
        with pytest.raises(VcsError):
            analyzer.replay()

    def test_sequential_replays(self):
        repo = build_multifile_history(
            [
                (AUTHOR1, dict(BASE)),
                (AUTHOR2, {"app.c": BUGGY_APP}),
                (AUTHOR1, {"other.c": "void idle(void)\n{\n    int dead;\n    dead = 1;\n}\n"}),
            ]
        )
        analyzer = analyzer_at(repo, 0)
        first = analyzer.replay()
        second = analyzer.replay()
        assert first.changed_functions == ["run"]
        assert second.changed_functions == ["idle"]

    def test_file_deletion_handled(self):
        repo = build_multifile_history(
            [
                (AUTHOR1, dict(BASE)),
                (AUTHOR2, {"other.c": None}),
            ]
        )
        analyzer = analyzer_at(repo, 0)
        result = analyzer.replay()
        assert result.changed_functions == []
        assert "other.c" not in analyzer.project.sources

    def test_replay_moves_to_any_commit_by_the_tree_difference(self):
        repo = build_multifile_history(
            [
                (AUTHOR1, dict(BASE)),
                (AUTHOR2, {"app.c": BUGGY_APP}),
                (AUTHOR1, {"other.c": None}),
            ]
        )
        analyzer = analyzer_at(repo, 2)
        back = analyzer.replay(repo.commits[0].commit_id)
        assert back.changed_files == ["app.c", "other.c"]
        assert analyzer.current_rev == 0
        assert analyzer.project.sources == BASE
        forward = analyzer.replay(repo.commits[2].commit_id)
        assert forward.changed_files == ["app.c", "other.c"]
        assert forward.deleted_files == ["other.c"]
        assert analyzer.project.sources == {"lib.c": BASE["lib.c"], "app.c": BUGGY_APP}

    def test_replay_drops_uncommitted_edits(self):
        repo = repo_with_buggy_commit()
        analyzer = analyzer_at(repo, 0)
        analyzer.analyze_changes({"other.c": None, "new.c": "void fresh(void)\n{\n}\n"})
        result = analyzer.replay()
        assert result.changed_files == ["app.c", "new.c", "other.c"]
        assert analyzer.project.sources == {**BASE, "app.c": BUGGY_APP}

    def test_replay_drops_edits_the_project_was_built_with(self):
        repo = repo_with_buggy_commit()
        worktree = {
            **BASE,
            "other.c": "void busy(void)\n{\n}\n",
            "new.c": "void fresh(void)\n{\n}\n",
        }
        analyzer = IncrementalAnalyzer(Project.from_sources(worktree, repo=repo), rev=0)
        result = analyzer.replay()
        assert result.changed_files == ["app.c", "new.c", "other.c"]
        assert analyzer.project.sources == {**BASE, "app.c": BUGGY_APP}

    def test_timing_recorded(self):
        repo = repo_with_buggy_commit()
        analyzer = analyzer_at(repo, 0)
        result = analyzer.replay()
        assert result.seconds > 0


class TestMovedIndexEntries:
    """A change to one file can move a verdict in a function the diff
    never reached; replay re-decides exactly those functions."""

    def test_peer_verdict_follows_other_files_calls(self):
        analyzer = analyzer_at(peer_history(), 0, config=ValueCheckConfig(use_authorship=False))
        result = analyzer.replay()
        assert ("b.c", "g") in result.analyzed_functions
        (finding,) = [f for f in result.findings if f.key == PEER_KEY]
        assert finding.pruned_by == "peer_definition"

    def test_new_caller_makes_parameter_cross_scope(self):
        analyzer = analyzer_at(param_history(), 0)
        result = analyzer.replay()
        assert result.changed_functions == ["h"]
        assert ("lib.c", "f") in result.analyzed_functions
        assert [f.key for f in result.reported()] == [PARAM_KEY]

    def test_unmoved_entries_add_nothing(self):
        repo = repo_with_buggy_commit()
        result = analyzer_at(repo, 0).replay()
        assert result.analyzed_functions
        assert {path for path, _ in result.analyzed_functions} == {"app.c"}
