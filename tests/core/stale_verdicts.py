"""Two histories where a change to one file moves a verdict in another.

Both edits leave the affected function untouched, so a warm step that
re-decides only the functions the diff reached (and their callers) keeps
a stale verdict.  The shared fixtures drive the regression tests through
the one warm step, :meth:`IncrementalAnalyzer.analyze_changes`: directly,
by ``replay``, and by ``ProjectSession.analyze_diff``.
"""

from __future__ import annotations

from tests.core.helpers import AUTHOR1, AUTHOR2, build_multifile_history

LIB = "int f(int x)\n{\n    return x + 1;\n}\n"
IGNORES_ONE = "int f(int x);\nvoid g(void)\n{\n    f(1);\n}\n"


def _ten_calls(used: bool) -> str:
    body = "".join(
        f"    s = s + f({n});\n" if used else f"    f({n});\n" for n in range(10)
    )
    return f"int f(int x);\nint h(void)\n{{\n    int s = 0;\n{body}    return s;\n}}\n"


#: Peer pruning: ``a.c`` stops using the result of its ten calls to ``f``,
#: so ``f``'s return is ignored at 11 of 11 sites and the ignored return in
#: the untouched ``b.c:g`` is pruned by ``peer_definition``.
PEER_BEFORE = {"lib.c": LIB, "b.c": IGNORES_ONE, "a.c": _ten_calls(used=True)}
PEER_AFTER = {"a.c": _ten_calls(used=False)}
PEER_KEY = "b.c:g:f:4:ignored_return"


def peer_history():
    return build_multifile_history([(AUTHOR1, dict(PEER_BEFORE)), (AUTHOR1, dict(PEER_AFTER))])


#: Cross-scope parameter: author2 adds a caller of ``f``.  Its call site
#: makes the parameter author1 overwrites in the untouched ``lib.c:f``
#: cross-scope.
OVERWRITES_ARG = "int f(int x)\n{\n    x = 5;\n    return x;\n}\n"
PARAM_BEFORE = {
    "lib.c": OVERWRITES_ARG,
    "b.c": "int f(int x);\nint g(void)\n{\n    return f(1);\n}\n",
}
PARAM_AFTER = {"a.c": "int f(int x);\nint h(void)\n{\n    return f(3);\n}\n"}
PARAM_KEY = "lib.c:f:x:1:overwritten_arg"


def param_history():
    return build_multifile_history(
        [(AUTHOR1, dict(PARAM_BEFORE)), (AUTHOR2, dict(PARAM_AFTER))]
    )


#: A moved definition: author2 ignores the result of author1's ``f``.  An
#: edit that deletes ``lib.c``, or shifts ``f``'s return line, changes
#: what the untouched ``b.c:g`` reads from ``f``'s definition.
CALLEE_KEY = "b.c:g:f:4:ignored_return"


def callee_history():
    return build_multifile_history([(AUTHOR1, {"lib.c": LIB}), (AUTHOR2, {"b.c": IGNORES_ONE})])
