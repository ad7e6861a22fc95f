"""Shared fixtures for core tests: tiny projects with authored histories."""

from __future__ import annotations

from repro.core.detector import detect_module
from repro.core.project import Project
from repro.engine import AnalysisEngine
from repro.ir.builder import lower_source
from repro.vcs.objects import Author
from repro.vcs.repository import Repository

AUTHOR1 = Author("author1", "a1@example.com")
AUTHOR2 = Author("author2", "a2@example.com")
AUTHOR3 = Author("author3", "a3@example.com")


def module_of(text, filename="t.c", config=None):
    return lower_source(text, filename=filename, config=config)


def build_history(versions, path="t.c", start_day=100, day_step=400):
    """Commit successive ``(author, text)`` versions of one file."""
    repo = Repository("test")
    for index, (author, text) in enumerate(versions):
        repo.commit(author, f"rev {index}", {path: text}, day=start_day + index * day_step)
    return repo


def build_multifile_history(commits, start_day=100, day_step=400):
    """``commits`` is a list of (author, {path: text}) applied in order."""
    repo = Repository("test")
    for index, (author, changes) in enumerate(commits):
        repo.commit(author, f"rev {index}", changes, day=start_day + index * day_step)
    return repo


def project_from_repo(repo, config=None):
    return Project.from_repository(repo, build_config=config)


def project_from_sources(sources, config=None):
    return Project.from_sources(sources, build_config=config)


def analyzed(project, paths=None):
    """``project`` after one uncached engine run over ``paths`` (every
    module when omitted): the run installs each module's contribution,
    which the index, function locations and ``#if`` regions are read from."""
    AnalysisEngine(cache=None).run(project, paths=paths)
    return project


def candidates_for(sources, config=None):
    """An analysed project over ``sources`` and its unused-definition
    candidates, in sorted path order."""
    project = analyzed(project_from_sources(sources, config=config))
    candidates = []
    for path in sorted(project.sources):
        candidates.extend(detect_module(project.module(path)))
    return project, candidates
