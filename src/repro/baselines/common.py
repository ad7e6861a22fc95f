"""Shared result types for baseline tools."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.project import Project

# Kernel code bases are recognised by this macro (the kernel defines it
# for every object file).  Smatch only builds against the kernel; fb-infer
# chokes on the kernel's build system — both decisions key off this.
KERNEL_MARKER = "KBUILD_MODNAME"


def project_has_marker(project: Project, marker: str = KERNEL_MARKER) -> bool:
    return any(marker in text for text in project.sources.values())


@dataclass(frozen=True)
class BaselineWarning:
    """One warning from a baseline tool."""

    tool: str
    checker: str
    file: str
    function: str
    var: str
    line: int

    @property
    def key(self) -> str:
        return f"{self.file}:{self.function}:{self.var}:{self.line}"


@dataclass
class BaselineReport:
    tool: str
    warnings: list[BaselineWarning] = field(default_factory=list)

    def count(self) -> int:
        return len(self.warnings)

    def sorted(self) -> list[BaselineWarning]:
        return sorted(self.warnings, key=lambda w: (w.file, w.line, w.var))
