"""Registry invariants: selection validation, kind ownership, policies."""

from __future__ import annotations

import pytest

from repro.core.findings import CandidateKind
from repro.rules import (
    DEFAULT_RULES,
    RulePack,
    UnknownRuleError,
    normalize_rules,
    registered_packs,
    resolve_rules,
)
from repro.rules.registry import (
    gate_policy_for,
    pack_for_kind,
    rule_description,
    semantic_kinds,
)


class TestRegistry:
    def test_default_rules_registration_order(self):
        assert DEFAULT_RULES == (
            "unused_definitions",
            "use_after_free",
            "resource_leak",
        )

    def test_every_kind_has_exactly_one_owner(self):
        owners = {}
        for pack in registered_packs():
            for kind in pack.kinds:
                assert kind not in owners, f"{kind} owned twice"
                owners[kind] = pack.name
        assert set(owners) == set(CandidateKind)
        for kind, owner in owners.items():
            assert pack_for_kind(kind).name == owner

    def test_resolve_none_is_all_packs(self):
        assert resolve_rules(None) == registered_packs()

    def test_selection_normalized_to_registration_order(self):
        assert normalize_rules(["resource_leak", "unused_definitions"]) == (
            "unused_definitions",
            "resource_leak",
        )
        # Duplicates collapse; the default spelled out equals None's form.
        assert normalize_rules(list(DEFAULT_RULES) * 2) == DEFAULT_RULES
        assert normalize_rules(None) == DEFAULT_RULES

    def test_unknown_rule_error_lists_registered_packs(self):
        with pytest.raises(UnknownRuleError) as exc:
            resolve_rules(["bogus", "use_after_free"])
        message = str(exc.value)
        assert "bogus" in message
        for name in DEFAULT_RULES:
            assert name in message

    def test_every_pack_describes_all_its_kinds(self):
        for pack in registered_packs():
            for kind, description in pack.kinds.items():
                assert description
                assert rule_description(kind) == description


class TestPolicies:
    def test_semantic_kinds_respect_the_selection(self):
        selection = resolve_rules(["unused_definitions", "use_after_free"])
        assert semantic_kinds(selection) == frozenset({CandidateKind.USE_AFTER_FREE})

    def test_unused_definitions_allows_every_pruner(self):
        pack = pack_for_kind(CandidateKind.DEAD_STORE)
        assert pack.pruner_policy is None
        assert pack.allows_pruner("peer_definitions")

    def test_semantic_packs_admit_only_config_dependency(self):
        for kind in (CandidateKind.USE_AFTER_FREE, CandidateKind.RESOURCE_LEAK):
            pack = pack_for_kind(kind)
            assert pack.allows_pruner("config_dependency")
            assert not pack.allows_pruner("cursor")
            assert not pack.allows_pruner("unused_hints")
            assert not pack.allows_pruner("peer_definitions")

    def test_gate_policy_differs_per_rule(self):
        assert gate_policy_for("use_after_free") == "block"
        assert gate_policy_for("resource_leak") == "warn"
        assert gate_policy_for("ignored_return") == "block"

    def test_unknown_kind_conservatively_blocks(self):
        # Store rows may predate the registry; never let them through.
        assert gate_policy_for("some_future_kind") == "block"

    def test_pack_default_policy_is_the_historical_behaviour(self):
        pack = RulePack()
        assert pack.pruner_policy is None
        assert pack.resolution == "authorship"
        assert pack.gate_policy == "block"
