"""Project call graph (direct + pointer-resolved indirect edges): the
named test oracle for incremental caller widening.

Built from the project index's call sites: callers and callees,
transitive closures and entry points over the whole project.  The
incremental analyzer used to build this whole graph on every step to
find the direct callers of the changed functions; it now reads them from
the index's call sites, and ``tests/core/test_callgraph.py`` checks the
widened set against this graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.project import Project, ProjectIndex


@dataclass
class CallGraph:
    """Caller/callee adjacency over function names."""

    callees: dict[str, set[str]] = field(default_factory=dict)  # caller -> callees
    callers: dict[str, set[str]] = field(default_factory=dict)  # callee -> callers

    def callees_of(self, function: str) -> set[str]:
        return set(self.callees.get(function, ()))

    def callers_of(self, function: str) -> set[str]:
        return set(self.callers.get(function, ()))

    def transitive_callers(self, function: str, max_depth: int = 1 << 30) -> set[str]:
        """All functions that can reach ``function`` through calls."""
        seen: set[str] = set()
        frontier = {function}
        depth = 0
        while frontier and depth < max_depth:
            next_frontier: set[str] = set()
            for name in frontier:
                for caller in self.callers.get(name, ()):  # expand upwards
                    if caller not in seen:
                        seen.add(caller)
                        next_frontier.add(caller)
            frontier = next_frontier
            depth += 1
        return seen

    def transitive_callees(self, function: str, max_depth: int = 1 << 30) -> set[str]:
        seen: set[str] = set()
        frontier = {function}
        depth = 0
        while frontier and depth < max_depth:
            next_frontier: set[str] = set()
            for name in frontier:
                for callee in self.callees.get(name, ()):  # expand downwards
                    if callee not in seen:
                        seen.add(callee)
                        next_frontier.add(callee)
            frontier = next_frontier
            depth += 1
        return seen

    def roots(self) -> list[str]:
        """Functions never called within the project (entry points)."""
        called = set(self.callers)
        return sorted(name for name in self.callees if name not in called)


def build_call_graph(project_or_index: Project | ProjectIndex) -> CallGraph:
    """Build the call graph from a project (or a prebuilt index)."""
    index = project_or_index.index if isinstance(project_or_index, Project) else project_or_index
    graph = CallGraph()
    for name in index.functions:
        graph.callees.setdefault(name, set())
    for callee, sites in index.call_sites.items():
        for site in sites:
            graph.callees.setdefault(site.caller, set()).add(callee)
            graph.callers.setdefault(callee, set()).add(site.caller)
    return graph
