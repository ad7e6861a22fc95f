"""Unit tests for the Project model and cross-file index."""

import pytest

from repro.core.project import Project
from repro.errors import ReproError

from tests.core.helpers import AUTHOR1, analyzed, build_multifile_history

SOURCES = {
    "lib.c": "int helper(int x)\n{\n    if (x) { return 1; }\n    return 0;\n}\n",
    "app.c": (
        "int helper(int x);\n"
        "void entry(void)\n"
        "{\n"
        "    int r;\n"
        "    r = helper(1);\n"
        "    if (r) { return; }\n"
        "    helper(2);\n"
        "}\n"
    ),
}


class TestConstruction:
    def test_from_sources(self):
        project = Project.from_sources(SOURCES)
        assert set(project.sources) == {"app.c", "lib.c"}

    def test_from_repository(self):
        repo = build_multifile_history([(AUTHOR1, dict(SOURCES))])
        project = Project.from_repository(repo)
        assert set(project.sources) == {"app.c", "lib.c"}
        assert project.repo is repo

    def test_non_c_files_skipped(self):
        repo = build_multifile_history([(AUTHOR1, {**SOURCES, "README.md": "docs"})])
        project = Project.from_repository(repo)
        assert "README.md" not in project.sources

    def test_loc(self):
        project = Project.from_sources(SOURCES)
        assert project.loc() == sum(len(t.split("\n")) for t in SOURCES.values())

    def test_unknown_module_raises(self):
        project = Project.from_sources(SOURCES)
        with pytest.raises(ReproError):
            project.module("missing.c")


class TestIndex:
    def test_function_locations(self):
        project = analyzed(Project.from_sources(SOURCES))
        location = project.index.location("helper")
        assert location is not None
        assert location.file == "lib.c"
        assert location.return_lines == (3, 4)

    def test_signatures(self):
        project = analyzed(Project.from_sources(SOURCES))
        assert project.index.location("helper").signature == ("int", "int")

    def test_call_sites_collected(self):
        project = analyzed(Project.from_sources(SOURCES))
        sites = project.index.sites_of("helper")
        assert len(sites) == 2
        assert {site.caller for site in sites} == {"entry"}

    def test_return_usage_flags(self):
        project = analyzed(Project.from_sources(SOURCES))
        usage = project.index.return_usage("helper")
        assert sorted(usage) == [False, True]

    def test_param_usage_by_signature(self):
        project = analyzed(Project.from_sources(SOURCES))
        location = project.index.location("helper")
        peers = project.index.peer_params(location.signature, 0)
        assert peers == (True,)

    def test_index_cached(self):
        project = analyzed(Project.from_sources(SOURCES))
        assert project.index is project.index

    def test_invalidate_rebuilds(self):
        project = analyzed(Project.from_sources(SOURCES))
        _ = project.index
        project.invalidate({"app.c"})
        analyzed(project, paths=["app.c"])
        assert project.index.location("helper") is not None
        assert project.index == project._build_index()

    def test_index_needs_an_engine_run(self):
        project = Project.from_sources(SOURCES)
        with pytest.raises(ReproError, match="no engine result"):
            _ = project.index
        with pytest.raises(ReproError, match="lib.c"):
            project.function_location("lib.c", "helper")
        assert project.function_location("missing.c", "helper") is None

    def test_functions_iterator_ordered(self):
        project = Project.from_sources(SOURCES)
        names = [fn.name for _, _, fn in project.functions()]
        assert names == ["entry", "helper"]


GUARDED = "void f(void)\n{\n    int n = 0;\n#if USE_X\n    n = 1;\n#endif\n}\n"


class TestPerModuleState:
    def test_module_lowered_once_and_memoised(self):
        project = Project.from_sources(SOURCES)
        assert project.module("lib.c") is project.module("lib.c")

    def test_set_source_refreshes_conditional_regions(self):
        project = analyzed(Project.from_sources({"a.c": GUARDED}))
        assert [(r.start, r.end) for r in project.contribution("a.c").regions] == [(5, 5)]
        project.set_source("a.c", "\n" + GUARDED)
        with pytest.raises(ReproError):
            project.contribution("a.c")
        analyzed(project, paths=["a.c"])
        assert [(r.start, r.end) for r in project.contribution("a.c").regions] == [(6, 6)]

    def test_removed_module_drops_its_state(self):
        project = analyzed(Project.from_sources({**SOURCES, "a.c": GUARDED}))
        project.set_source("a.c", None)
        assert "a.c" not in project.sources
        assert "a.c" not in project._modules
        assert "a.c" not in project._contribs
        assert project.function_location("a.c", "f") is None
        with pytest.raises(ReproError):
            project.module("a.c")
