"""Run every experiment and render the combined report (the equivalent of
the artifact's ``run.sh`` → ``result/`` pipeline)."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.corpus.preliminary import generate_preliminary_corpus
from repro.eval import (
    suite as suite_mod,
)
from repro.eval import (
    calibration_experiment,
    extensions,
    figure7,
    figure9,
    pointer_comparison,
    preliminary,
    recall,
    rules,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
)
from repro.eval.suite import EvalSuite
from repro.obs.clock import monotonic


@dataclass
class EvaluationRun:
    suite: EvalSuite
    results: dict[str, object] = field(default_factory=dict)
    seconds: float = 0.0
    # Span tracer covering suite construction and every experiment, for
    # the per-experiment wall-time breakdown below (and Chrome export).
    trace: "obs.Tracer | None" = None

    def experiment_seconds(self) -> dict[str, float]:
        """Wall time of each root span (suite build, one per experiment),
        largest first."""
        if self.trace is None:
            return {}
        roots = self.trace.children_of(None)
        return {
            span.name: span.seconds
            for span in sorted(roots, key=lambda span: -span.seconds)
        }

    def render(self) -> str:
        parts = [
            f"ValueCheck reproduction — full evaluation "
            f"(scale={self.suite.scale}, seed={self.suite.seed})",
            "=" * 72,
        ]
        for key in (
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "table7",
            "figure7",
            "figure9",
            "preliminary",
            "recall",
            "rules",
            "calibration",
            "pointer_comparison",
            "extensions",
        ):
            if key in self.results:
                parts.append(self.results[key].render())
                parts.append("-" * 72)
        timings = self.experiment_seconds()
        if timings:
            parts.append("experiment wall-time:")
            for name, seconds in timings.items():
                parts.append(f"  {name:<32}{seconds:9.3f}s")
            parts.append("-" * 72)
        parts.append(f"total evaluation time: {self.seconds:.1f}s")
        return "\n".join(parts)

    def save(self, directory: str | Path) -> None:
        """Write the artifact-appendix result bundle: the same key files
        the paper's `run.sh` produces (CSV per table, SVG per figure, and
        per-app detected.csv reports)."""
        base = Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        (base / "evaluation.txt").write_text(self.render() + "\n")
        for name, run_state in self.suite.runs.items():
            app_dir = base / name
            app_dir.mkdir(exist_ok=True)
            run_state.report.to_csv(app_dir / "detected.csv")

        if "table2" in self.results:
            table = self.results["table2"]
            lines = ["application,detected,confirmed"]
            lines += [f"{row.app},{row.detected},{row.confirmed}" for row in table.rows]
            lines.append(f"Total,{table.total_detected},{table.total_confirmed}")
            (base / "table_2_detected_bugs.csv").write_text("\n".join(lines) + "\n")

        if "table6" in self.results:
            table = self.results["table6"]
            groups = list(table.detected)
            apps = list(next(iter(table.detected.values())))
            lines = ["application," + ",".join(groups)]
            for app in apps:
                lines.append(app + "," + ",".join(str(table.detected[g][app]) for g in groups))
            lines.append("Total," + ",".join(str(table.total(g)) for g in groups))
            (base / "table_6_dok_effect.csv").write_text("\n".join(lines) + "\n")

        if "rules" in self.results:
            table = self.results["rules"]
            lines = ["rule,planted,reported,tp,fp,fn,precision,recall"]
            lines += [
                f"{row.rule},{row.planted},{row.reported},{row.tp},{row.fp},"
                f"{row.fn},{row.precision:.4f},{row.recall:.4f}"
                for row in table.rows
            ]
            (base / "rules_precision_recall.csv").write_text("\n".join(lines) + "\n")

        if "table7" in self.results:
            table = self.results["table7"]
            lines = ["application,loc,full_seconds,incremental_seconds_per_commit"]
            lines += [
                f"{row.app},{row.loc},{row.full_seconds:.3f},{row.incremental_seconds:.4f}"
                for row in table.rows
            ]
            (base / "table_7_time_analysis.csv").write_text("\n".join(lines) + "\n")

        from repro.eval.charts import figure7_svg, figure9_svg

        if "figure7" in self.results:
            (base / "figure_7_dist.svg").write_text(figure7_svg(self.results["figure7"]))
        if "figure9" in self.results:
            (base / "figure_9_detected_bug_dok.svg").write_text(
                figure9_svg(self.results["figure9"])
            )


def run_all(
    scale: float | None = None,
    seed: int = suite_mod.DEFAULT_SEED,
    prelim_scale: float | None = None,
    telemetry: obs.Telemetry | None = None,
) -> EvaluationRun:
    started = monotonic()
    telemetry = telemetry or obs.Telemetry.fresh()
    with obs.use(telemetry):
        with obs.span("build_suite"):
            suite = EvalSuite.build(scale=scale, seed=seed)
        run_state = EvaluationRun(suite=suite, trace=telemetry.tracer)

        def experiment(name: str, thunk):
            with obs.span(f"experiment:{name}"):
                run_state.results[name] = thunk()

        experiment("table2", lambda: table2.run(suite))
        experiment("table3", lambda: table3.run(suite))
        experiment("table4", lambda: table4.run(suite))
        experiment("table5", lambda: table5.run(suite))
        experiment("table6", lambda: table6.run(suite))
        experiment("table7", lambda: table7.run(suite))
        experiment("figure7", lambda: figure7.run(suite))
        experiment("figure9", lambda: figure9.run(suite))
        with obs.span("experiment:preliminary"):
            corpus = generate_preliminary_corpus(
                scale=prelim_scale if prelim_scale is not None else suite.scale,
                seed=seed + 4,
            )
            prelim_result = preliminary.run(corpus)
            run_state.results["preliminary"] = prelim_result
        experiment("recall", lambda: recall.run(corpus, prelim_result))
        experiment(
            "rules",
            lambda: rules.run(
                rules.generate_rules_corpus(
                    scale=prelim_scale if prelim_scale is not None else suite.scale,
                    seed=seed + 5,
                )
            ),
        )
        experiment("calibration", lambda: calibration_experiment.run(suite))
        experiment(
            "pointer_comparison",
            lambda: pointer_comparison.run(suite.run("openssl").project, app_name="openssl"),
        )
        experiment("extensions", lambda: extensions.run(suite))
    run_state.seconds = monotonic() - started
    return run_state
