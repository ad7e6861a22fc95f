"""Test oracles for the observability layer."""

from __future__ import annotations

from typing import Mapping

from repro.obs import METRICS_SCHEMA_VERSION, base_name


def deterministic_view(snapshot: dict) -> dict:
    """The executor-independent slice of a metrics snapshot: every metric
    whose base name does not end in ``_seconds``."""

    def keep(section: Mapping) -> dict:
        return {
            key: value
            for key, value in section.items()
            if not base_name(key).endswith("_seconds")
        }

    return {
        "schema": snapshot.get("schema", METRICS_SCHEMA_VERSION),
        "counters": keep(snapshot.get("counters", {})),
        "gauges": keep(snapshot.get("gauges", {})),
        "histograms": keep(snapshot.get("histograms", {})),
    }
