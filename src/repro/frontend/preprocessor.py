"""Preprocessor model for MiniC.

The real ValueCheck analyses clang-preprocessed bitcode but keeps the raw
source around: its *configuration dependency* pruner (paper §5.1) checks
whether a definition's use sits inside an ``#if``/``#ifdef`` region that the
current build configuration disabled.  We reproduce that split:

* :func:`preprocess` blanks out lines in disabled regions (so the parser
  sees only configured-in code, like clang would) while preserving line
  numbers, and
* it records every conditional region (enabled or not) so the pruner can
  ask "is there a use of variable ``v`` under a conditional in function
  ``f``?" against the *raw* text.

Supported directives: ``#if <macro|0|1>``, ``#ifdef``, ``#ifndef``,
``#else``, ``#endif``, ``#define NAME [value]``, ``#undef NAME``.
``#include`` and ``#pragma`` lines are blanked.  Macro *expansion* is not
performed — the corpus dialect does not rely on it — but ``#define`` does
feed conditional truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.errors import PreprocessorError

_DIRECTIVES = ("#if", "#ifdef", "#ifndef", "#else", "#elif", "#endif", "#define", "#undef", "#include", "#pragma")


@dataclass(frozen=True)
class CondRegion:
    """One arm of a conditional block: lines ``start..end`` (inclusive, the
    body only, excluding the directives themselves)."""

    start: int
    end: int
    guard: str
    enabled: bool

    def contains(self, line: int) -> bool:
        return self.start <= line <= self.end


@dataclass
class PreprocessedSource:
    """Result of :func:`preprocess`."""

    text: str
    raw: str
    regions: list[CondRegion] = field(default_factory=list)
    defines: dict[str, str] = field(default_factory=dict)

    def region_at(self, line: int) -> CondRegion | None:
        """Return the innermost conditional region containing ``line``."""
        best: CondRegion | None = None
        for region in self.regions:
            if region.contains(line):
                if best is None or (region.start >= best.start and region.end <= best.end):
                    best = region
        return best

    def disabled_regions(self) -> list[CondRegion]:
        return [r for r in self.regions if not r.enabled]


@dataclass
class _Frame:
    guard: str
    taken: bool  # this arm's own condition
    parent_active: bool
    body_start: int
    any_taken: bool = False  # whether any earlier arm of this block was taken

    @property
    def active(self) -> bool:
        return self.parent_active and self.taken


def _evaluate(expression: str, defines: dict[str, str]) -> bool:
    """Evaluate a conditional expression: a macro name, 0/1, ``defined(X)``
    or a ``!``-negation of one of those."""
    expression = expression.strip()
    if expression.startswith("!"):
        return not _evaluate(expression[1:], defines)
    if expression.startswith("defined(") and expression.endswith(")"):
        return expression[len("defined(") : -1].strip() in defines
    if expression.startswith("defined ") or expression.startswith("defined\t"):
        return expression.split(None, 1)[1].strip() in defines
    if expression in ("0", ""):
        return False
    if expression == "1":
        return True
    value = defines.get(expression)
    if value is None:
        return False
    return value not in ("0", "")


@obs.traced("frontend.preprocess")
def preprocess(
    text: str,
    filename: str = "<memory>",
    config: set[str] | frozenset[str] | None = None,
) -> PreprocessedSource:
    """Apply the preprocessor model to ``text``.

    ``config`` is the set of macros enabled by the build configuration
    (each with value "1"), on top of any ``#define`` in the file itself.
    """
    defines: dict[str, str] = {name: "1" for name in (config or ())}
    raw_lines = text.split("\n")
    out_lines: list[str] = []
    regions: list[CondRegion] = []
    stack: list[_Frame] = []

    def active() -> bool:
        return all(frame.active for frame in stack)

    def close_arm(frame: _Frame, end_line: int) -> None:
        if end_line >= frame.body_start:
            regions.append(
                CondRegion(frame.body_start, end_line, frame.guard, frame.parent_active and frame.taken)
            )

    for index, line in enumerate(raw_lines):
        lineno = index + 1
        stripped = line.strip()
        if stripped.startswith("#") and stripped.split("(")[0].split()[0] in _DIRECTIVES:
            parts = stripped.split(None, 1)
            directive = parts[0]
            argument = parts[1] if len(parts) > 1 else ""
            parent_active = active()
            if directive == "#if":
                taken = _evaluate(argument, defines)
                stack.append(_Frame(argument.strip(), taken, parent_active, lineno + 1, any_taken=taken))
            elif directive == "#ifdef":
                taken = argument.strip() in defines
                stack.append(_Frame(argument.strip(), taken, parent_active, lineno + 1, any_taken=taken))
            elif directive == "#ifndef":
                taken = argument.strip() not in defines
                stack.append(
                    _Frame("!" + argument.strip(), taken, parent_active, lineno + 1, any_taken=taken)
                )
            elif directive in ("#else", "#elif"):
                if not stack:
                    raise PreprocessorError(f"{directive} without #if", filename, lineno)
                frame = stack.pop()
                close_arm(frame, lineno - 1)
                if directive == "#else":
                    taken = not frame.any_taken
                    guard = "!" + frame.guard
                else:
                    taken = (not frame.any_taken) and _evaluate(argument, defines)
                    guard = argument.strip()
                stack.append(
                    _Frame(guard, taken, frame.parent_active, lineno + 1, any_taken=frame.any_taken or taken)
                )
            elif directive == "#endif":
                if not stack:
                    raise PreprocessorError("#endif without #if", filename, lineno)
                frame = stack.pop()
                close_arm(frame, lineno - 1)
            elif directive == "#define":
                if active():
                    define_parts = argument.split(None, 1)
                    if not define_parts:
                        raise PreprocessorError("#define without a name", filename, lineno)
                    defines[define_parts[0]] = define_parts[1] if len(define_parts) > 1 else "1"
            elif directive == "#undef":
                if active():
                    defines.pop(argument.strip(), None)
            # #include / #pragma: ignored entirely.
            out_lines.append("")
            continue
        out_lines.append(line if active() else "")

    if stack:
        raise PreprocessorError("unterminated #if block", filename, len(raw_lines))

    regions.sort(key=lambda region: (region.start, -region.end))
    return PreprocessedSource(text="\n".join(out_lines), raw=text, regions=regions, defines=defines)
