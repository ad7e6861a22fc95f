"""Rule-pack registry: name → pack, kind → pack, selection validation.

Packs register at import time in a deliberate order (the unused-
definitions pack first, so its candidates keep their historical position
in per-module output).  ``resolve_rules`` is the single validation
choke-point every entry surface uses — CLI ``--rules``, the service
``rules`` option, and the engine — so unknown names fail the same way
everywhere, with the registered names in the message.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.findings import CandidateKind
from repro.rules.base import RulePack
from repro.rules.resource_leak import ResourceLeakPack
from repro.rules.unused_defs import UnusedDefinitionsPack
from repro.rules.use_after_free import UseAfterFreePack


class UnknownRuleError(ValueError):
    """A rule selection named packs that are not registered."""

    def __init__(self, unknown: tuple[str, ...], registered: tuple[str, ...]):
        self.unknown = unknown
        self.registered = registered
        names = ", ".join(sorted(unknown))
        super().__init__(
            f"unknown rule(s): {names} (registered packs: {', '.join(registered)})"
        )


_REGISTRY: dict[str, RulePack] = {}
_BY_KIND: dict[CandidateKind, RulePack] = {}


def register(pack: RulePack) -> RulePack:
    if pack.name in _REGISTRY:
        raise ValueError(f"rule pack {pack.name!r} already registered")
    for kind in pack.kinds:
        if kind in _BY_KIND:
            raise ValueError(f"candidate kind {kind.value} already owned by a pack")
    _REGISTRY[pack.name] = pack
    for kind in pack.kinds:
        _BY_KIND[kind] = pack
    return pack


register(UnusedDefinitionsPack())
register(UseAfterFreePack())
register(ResourceLeakPack())

#: Every registered pack name, in registration order — the default rule set.
DEFAULT_RULES: tuple[str, ...] = tuple(_REGISTRY)


def registered_packs() -> tuple[RulePack, ...]:
    return tuple(_REGISTRY.values())


def resolve_rules(names: Iterable[str] | None = None) -> tuple[RulePack, ...]:
    """Packs for a selection (None = all), validated; preserves
    registration order and drops duplicates."""
    if names is None:
        return tuple(_REGISTRY.values())
    requested = {name for name in names}
    unknown = tuple(sorted(requested - set(_REGISTRY)))
    if unknown:
        raise UnknownRuleError(unknown, DEFAULT_RULES)
    return tuple(pack for name, pack in _REGISTRY.items() if name in requested)


def normalize_rules(names: Iterable[str] | None = None) -> tuple[str, ...]:
    """A validated, registration-ordered name tuple (None = all).  This is
    the canonical form configs carry and cache keys hash."""
    return tuple(pack.name for pack in resolve_rules(names))


def pack_for_kind(kind: CandidateKind) -> RulePack:
    return _BY_KIND[kind]


def semantic_kinds(packs: Iterable[RulePack] | None = None) -> frozenset[CandidateKind]:
    """Kinds resolved by evidence blame rather than the cross-scope
    resolver, over ``packs`` (default: all registered)."""
    selected = tuple(packs) if packs is not None else registered_packs()
    return frozenset(
        kind for pack in selected if pack.resolution == "semantic" for kind in pack.kinds
    )


def rule_description(kind: CandidateKind) -> str:
    """SARIF shortDescription for a kind, from its owning pack."""
    return _BY_KIND[kind].kinds[kind]


def gate_policy_for(kind_value: str) -> str:
    """Gate policy ('block' | 'warn') for a candidate-kind value string.

    Store rows carry the kind as its string value (fixed rows may predate
    the current registry), so unknown kinds conservatively block."""
    try:
        kind = CandidateKind(kind_value)
    except ValueError:
        return "block"
    pack = _BY_KIND.get(kind)
    return pack.gate_policy if pack is not None else "block"
