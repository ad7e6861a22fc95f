"""The project index is patched per changed module, never rebuilt.

After every warm step — replayed commits, and seeded random edits that
add, rewrite and delete files, including files that define a function
another file defines too — ``Project.index`` must equal a fresh
``Project._build_index()``: the last path in sorted order wins a shared
name, call sites sort by (file, line), usage flags follow path order, and
the signature -> names map groups the winning definitions.
The changes the patch reports must be exactly the entries whose value
moved between the two fresh builds.
"""

from __future__ import annotations

import random

import pytest

from repro.core.incremental import IncrementalAnalyzer
from repro.core.project import IndexChanges, Project, ProjectIndex
from repro.core.valuecheck import ValueCheckConfig
from repro.corpus import generate_app

from tests.core.helpers import analyzed


@pytest.fixture(scope="module")
def app():
    return generate_app("mysql", scale=0.05, seed=1)


def _expected_changes(before: ProjectIndex, after: ProjectIndex) -> IndexChanges:
    def usage(index: ProjectIndex, callee: str) -> list[bool]:
        return sorted(index.return_usage(callee))

    sites = {
        callee
        for callee in before.call_sites.keys() | after.call_sites.keys()
        if before.sites_of(callee) != after.sites_of(callee)
    }
    return IndexChanges(
        functions={
            name
            for name in before.functions.keys() | after.functions.keys()
            if before.location(name) != after.location(name)
        },
        sites=sites,
        returns={callee for callee in sites if usage(before, callee) != usage(after, callee)},
        params={
            key
            for key in before.param_usage.keys() | after.param_usage.keys()
            if sorted(before.peer_params(*key)) != sorted(after.peer_params(*key))
        },
    )


def _assert_signature_map(patched: ProjectIndex, fresh: ProjectIndex) -> None:
    """The patched signature -> names map equals a fresh build's, and
    both group the winning definitions by signature."""
    grouped: dict[tuple[str, ...], set[str]] = {}
    for name, location in fresh.functions.items():
        grouped.setdefault(location.signature, set()).add(name)
    assert patched.by_signature == fresh.by_signature == grouped
    for signature, names in grouped.items():
        assert patched.functions_with(signature) == names


def _recording_changes(project: Project, monkeypatch) -> list[IndexChanges]:
    seen: list[IndexChanges] = []
    original = project.index_changes

    def recording() -> IndexChanges:
        changes = original()
        seen.append(changes)
        return changes

    monkeypatch.setattr(project, "index_changes", recording)
    return seen


def _function(name: str, callees: list[str], rng: random.Random, params: str) -> str:
    body = []
    for number, callee in enumerate(callees):
        if rng.random() < 0.5:
            body.append(f"    r = r + {callee}(v + {number});\n")
        else:
            body.append(f"    {callee}(v);\n")
    return f"int {name}({params})\n{{\n    int r = 0;\n{''.join(body)}    return r;\n}}\n"


def _random_edit(rng: random.Random, project: Project, step: int) -> dict[str, str | None]:
    """One file added, rewritten or deleted.  Added and rewritten files
    call existing functions and redefine existing names, so entries are
    shared between modules on both sides of the edited path."""
    names = sorted(project.index.functions)
    paths = sorted(project.sources)
    kind = rng.choice(("add", "add", "rewrite", "delete"))
    if kind == "delete":
        return {rng.choice(paths): None}
    callees = rng.sample(names, 3)
    shared = rng.sample(names, 2)
    params = rng.choice(("int v", "int v, int w", "void"))
    prototypes = "".join(f"int {callee}(int v);\n" for callee in callees)
    functions = [
        _function(name, rng.sample(callees, 2), rng, "int v" if params == "void" else params)
        for name in [*shared, f"patched_{step}"]
    ]
    text = prototypes + "\n" + "\n".join(functions)
    if kind == "rewrite":
        path = rng.choice(paths)
        return {path: project.sources[path] + "\n" + text}
    directory = rng.choice(("aaa", "filesystem", "storage", "zzz"))
    return {f"{directory}/patched_{step}.c": text}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_edits_keep_the_patched_index_equal_to_a_fresh_build(app, seed, monkeypatch):
    project = Project.from_sources(app.project().sources)
    analyzer = IncrementalAnalyzer(
        project, config=ValueCheckConfig(use_authorship=False, module_cache=False)
    )
    seen = _recording_changes(project, monkeypatch)
    rng = random.Random(seed)
    for step in range(25):
        before = project._build_index()
        analyzer.analyze_changes(_random_edit(rng, project, step))
        after = project._build_index()
        assert project.index == after, step
        _assert_signature_map(project.index, after)
        assert seen[-1] == _expected_changes(before, after), step


def test_replayed_commits_keep_the_patched_index_equal_to_a_fresh_build(app, monkeypatch):
    project = Project.from_repository(app.repo, rev=20, build_config=set(app.build_config))
    analyzer = IncrementalAnalyzer(project, rev=20)
    seen = _recording_changes(project, monkeypatch)
    for _ in range(30):
        before = project._build_index()
        analyzer.replay()
        after = project._build_index()
        assert project.index == after, analyzer.current_rev
        _assert_signature_map(project.index, after)
        assert seen[-1] == _expected_changes(before, after), analyzer.current_rev


def test_a_shared_name_goes_to_the_last_path_and_back():
    define = "int f(int x)\n{{\n    return x + {};\n}}\n"
    project = analyzed(Project.from_sources({"m.c": define.format(1)}))
    assert project.index.location("f").file == "m.c"
    for path, text, owner in [
        ("a.c", define.format(2), "m.c"),
        ("z.c", define.format(3), "z.c"),
        ("z.c", None, "m.c"),
        ("m.c", None, "a.c"),
        ("a.c", None, None),
    ]:
        project.set_source(path, text)
        analyzed(project, paths=[path])
        location = project.index.location("f")
        assert (location.file if location else None) == owner
        assert project.index == project._build_index()
        _assert_signature_map(project.index, project._build_index())
