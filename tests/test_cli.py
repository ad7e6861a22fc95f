"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.corpus import generate_app


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("corpus")
    app = generate_app("openssl", scale=0.03, seed=9)
    app.repo.checkout_to(base / "src")
    app.repo.save(base / "repo.json")
    return base


class TestAnalyze:
    def test_analyze_with_repo(self, corpus_dir, capsys):
        rc = main(["analyze", str(corpus_dir / "src"), "--repo", str(corpus_dir / "repo.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "reported:" in out
        assert "#1" in out

    def test_analyze_without_repo(self, corpus_dir, capsys):
        rc = main(["analyze", str(corpus_dir / "src")])
        assert rc == 0
        assert "candidates:" in capsys.readouterr().out

    def test_analyze_writes_csv(self, corpus_dir, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        rc = main(
            [
                "analyze",
                str(corpus_dir / "src"),
                "--repo",
                str(corpus_dir / "repo.json"),
                "--csv",
                str(csv_path),
            ]
        )
        assert rc == 0
        assert csv_path.read_text().startswith("rank,file,line")

    def test_baseline_suppresses_known_findings(self, corpus_dir, tmp_path, capsys):
        csv_path = tmp_path / "baseline.csv"
        main(
            [
                "analyze",
                str(corpus_dir / "src"),
                "--repo",
                str(corpus_dir / "repo.json"),
                "--csv",
                str(csv_path),
            ]
        )
        capsys.readouterr()
        rc = main(
            [
                "analyze",
                str(corpus_dir / "src"),
                "--repo",
                str(corpus_dir / "repo.json"),
                "--baseline",
                str(csv_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 new" in out  # identical tree: everything is known

    def test_analyze_summary_includes_stage_walltime(self, corpus_dir, capsys):
        rc = main(["analyze", str(corpus_dir / "src")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "layer self-time:" in out
        assert "frontend.parse" in out and "core.rank" in out

    def test_analyze_missing_directory(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path / "nope")])
        assert rc == 2

    def test_analyze_empty_directory(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path)])
        assert rc == 2


class TestTelemetryFlags:
    def test_trace_writes_chrome_json(self, corpus_dir, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        rc = main(["analyze", str(corpus_dir / "src"), "--trace", str(trace_path)])
        assert rc == 0
        chrome = json.loads(trace_path.read_text())
        names = {event["name"] for event in chrome["traceEvents"]}
        assert {"core.pipeline", "frontend.parse", "engine.run", "core.prune", "core.rank"} <= names
        assert all(event["ph"] == "X" for event in chrome["traceEvents"])

    def test_trace_tree_prints_nested_spans(self, corpus_dir, capsys):
        rc = main(["analyze", str(corpus_dir / "src"), "--trace-tree"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "core.pipeline" in out
        assert "  engine.run" in out  # indented child span

    def test_stats_out_appends_jsonl(self, corpus_dir, tmp_path, capsys):
        stats_path = tmp_path / "runs.jsonl"
        for _ in range(2):
            rc = main(
                ["analyze", str(corpus_dir / "src"), "--stats-out", str(stats_path)]
            )
            assert rc == 0
        records = [
            json.loads(line) for line in stats_path.read_text().splitlines() if line
        ]
        assert len(records) == 2
        for record in records:
            assert record["converged"] is True
            assert "counts" in record and "layers" in record and "metrics" in record
            assert "residual" in record

    def test_prometheus_exposition(self, corpus_dir, tmp_path, capsys):
        prom_path = tmp_path / "metrics.prom"
        rc = main(["analyze", str(corpus_dir / "src"), "--prometheus", str(prom_path)])
        assert rc == 0
        text = prom_path.read_text()
        assert "# TYPE" in text
        assert "detect_candidates_total" in text
        assert "prune_killed_total{" in text

    def test_stats_subcommand_renders_table(self, corpus_dir, tmp_path, capsys):
        stats_path = tmp_path / "runs.jsonl"
        main(["analyze", str(corpus_dir / "src"), "--stats-out", str(stats_path)])
        capsys.readouterr()
        rc = main(["stats", str(stats_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "run 0:" in out
        assert "layer                   self-time" in out
        assert "pruner               killed" in out

    ENGINE_LAYERS = {"pointer.vfg", "pointer.andersen", "rules.detect", "engine.contribution"}

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_stats_layers_and_residual_add_up_to_wall_time(
        self, executor, corpus_dir, tmp_path, capsys
    ):
        stats_path = tmp_path / "runs.jsonl"
        rc = main(
            [
                "analyze", str(corpus_dir / "src"),
                "--executor", executor, "--workers", "2", "--no-module-cache",
                "--stats-out", str(stats_path),
            ]
        )
        assert rc == 0
        record = json.loads(stats_path.read_text())
        layers = record["layers"]
        assert sum(layers.values()) + record["residual"] == pytest.approx(record["seconds"])
        capsys.readouterr()
        assert main(["stats", str(stats_path)]) == 0
        rows = {}
        for line in capsys.readouterr().out.splitlines():
            fields = line.split()
            if len(fields) == 2 and fields[1].endswith("s"):
                rows[fields[0]] = float(fields[1][:-1])
        assert set(rows) == set(layers) | {"residual"}
        # The printed rows round to milliseconds.
        assert sum(rows.values()) == pytest.approx(record["seconds"], abs=5e-4 * len(rows))
        # Process-pool workers ship their spans back: both executors
        # account for the same engine layers.
        assert self.ENGINE_LAYERS <= set(layers)

    def test_stats_subcommand_missing_file(self, tmp_path, capsys):
        rc = main(["stats", str(tmp_path / "nope.jsonl")])
        assert rc == 2

    def test_stats_kill_table_matches_provenance_aggregates(
        self, corpus_dir, tmp_path, capsys
    ):
        stats_path = tmp_path / "runs.jsonl"
        main(
            [
                "analyze",
                str(corpus_dir / "src"),
                "--repo",
                str(corpus_dir / "repo.json"),
                "--stats-out",
                str(stats_path),
            ]
        )
        capsys.readouterr()
        record = json.loads(stats_path.read_text().splitlines()[0])
        assert "provenance" in record
        # The rendered kill table is fed from the provenance aggregates,
        # which must agree with the counter-derived prune_stats.
        nonzero = {k: v for k, v in record["prune_stats"].items() if v}
        assert record["provenance"]["pruned_by"] == nonzero
        rc = main(["stats", str(stats_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "provenance:" in out
        for pruner, killed in nonzero.items():
            assert pruner in out


class TestProfiling:
    def test_profile_command_reports_phases(self, corpus_dir, tmp_path, capsys):
        folded_path = tmp_path / "out.folded"
        rc = main(
            [
                "profile", str(corpus_dir / "src"),
                "--repo", str(corpus_dir / "repo.json"),
                "--runs", "2",
                "--interval", "0.001",
                "--out", str(folded_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "profiled 2 run(s)" in out
        assert "phase" in out and "samples" in out  # the phase table
        assert "wrote folded stacks to" in out
        for line in folded_path.read_text().strip().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and count.isdigit()

    def test_profile_runs_validated(self, corpus_dir, capsys):
        rc = main(["profile", str(corpus_dir / "src"), "--runs", "0"])
        assert rc == 2
        assert "--runs" in capsys.readouterr().err


class TestExplain:
    def test_explain_prints_full_decision_trail(self, corpus_dir, capsys):
        rc = main(
            [
                "analyze",
                str(corpus_dir / "src"),
                "--repo",
                str(corpus_dir / "repo.json"),
                "--explain",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "detection:" in out
        assert "resolution: cross_scope=" in out
        assert "pruning:" in out
        # Every published pruner leaves a verdict line with evidence.
        for pruner in ("config_dependency", "cursor", "unused_hints", "peer_definition"):
            assert pruner in out
        # At least one reported finding shows its DOK breakdown and rank.
        assert "rank #1" in out
        assert "DOK = " in out

    def test_explain_filters_by_fragment(self, corpus_dir, capsys):
        main(
            [
                "analyze",
                str(corpus_dir / "src"),
                "--repo",
                str(corpus_dir / "repo.json"),
            ]
        )
        out = capsys.readouterr().out
        finding_line = next(line for line in out.splitlines() if line.startswith("#1"))
        fragment = finding_line.split()[1].split(":")[0]  # the file path
        rc = main(
            [
                "analyze",
                str(corpus_dir / "src"),
                "--repo",
                str(corpus_dir / "repo.json"),
                "--explain",
                fragment,
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert f"{fragment}:" in out
        rc = main(
            [
                "analyze",
                str(corpus_dir / "src"),
                "--repo",
                str(corpus_dir / "repo.json"),
                "--explain",
                "no-such-finding",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "no provenance record matches" in out

    def test_explain_json_writes_jsonl(self, corpus_dir, tmp_path, capsys):
        out_path = tmp_path / "provenance.jsonl"
        rc = main(
            [
                "analyze",
                str(corpus_dir / "src"),
                "--repo",
                str(corpus_dir / "repo.json"),
                "--explain-json",
                str(out_path),
            ]
        )
        assert rc == 0
        records = [
            json.loads(line) for line in out_path.read_text().splitlines() if line
        ]
        assert records
        assert [r["key"] for r in records] == sorted(r["key"] for r in records)
        statuses = {r["status"] for r in records}
        assert statuses <= {"detected", "not_cross_scope", "pruned", "reported"}
        assert any(r["status"] == "reported" for r in records)

    def test_sarif_include_pruned_round_trips(self, corpus_dir, tmp_path, capsys):
        bare = tmp_path / "bare.sarif"
        full = tmp_path / "full.sarif"
        main(
            [
                "analyze",
                str(corpus_dir / "src"),
                "--repo",
                str(corpus_dir / "repo.json"),
                "--sarif",
                str(bare),
            ]
        )
        main(
            [
                "analyze",
                str(corpus_dir / "src"),
                "--repo",
                str(corpus_dir / "repo.json"),
                "--sarif",
                str(full),
                "--sarif-include-pruned",
            ]
        )
        capsys.readouterr()
        bare_results = json.loads(bare.read_text())["runs"][0]["results"]
        full_results = json.loads(full.read_text())["runs"][0]["results"]
        suppressed = [r for r in full_results if "suppressions" in r]
        assert len(bare_results) == len(full_results) - len(suppressed)
        assert suppressed  # the corpus does exercise the pruners
        assert all(
            r["suppressions"][0]["justification"].startswith("pruned by ")
            for r in suppressed
        )


class TestGenerateCorpus:
    def test_generate(self, tmp_path, capsys):
        rc = main(["generate-corpus", "nfs-ganesha", "--scale", "0.02", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert (tmp_path / "repo.json").exists()
        assert list((tmp_path / "src").rglob("*.c"))
        assert "planted constructs" in out

    def test_unknown_app_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate-corpus", "postgres", "--out", str(tmp_path)])

    def test_roundtrip_generate_then_analyze(self, tmp_path, capsys):
        main(["generate-corpus", "openssl", "--scale", "0.02", "--out", str(tmp_path)])
        capsys.readouterr()
        rc = main(
            ["analyze", str(tmp_path / "src"), "--repo", str(tmp_path / "repo.json")]
        )
        assert rc == 0
        assert "cross-scope" in capsys.readouterr().out


class TestEvaluate:
    def test_evaluate_small(self, tmp_path, capsys):
        rc = main(["evaluate", "--scale", "0.03", "--out", str(tmp_path / "result")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Table 2" in out
        assert (tmp_path / "result" / "evaluation.txt").exists()
        assert (tmp_path / "result" / "mysql" / "detected.csv").exists()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", ".", "--workers"],
            ["serve", "--workers"],
            ["route", "--workers"],
            ["route", "--worker-threads"],
        ],
    )
    @pytest.mark.parametrize("count", ["0", "-1", "many"])
    def test_worker_counts_must_be_positive(self, argv, count, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + [count])
        assert excinfo.value.code == 2
        assert "--worker" in capsys.readouterr().err

    def test_thread_executor_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", ".", "--executor", "thread"])
        assert excinfo.value.code == 2
        assert "'serial', 'process'" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_service_worker_rejects_non_positive_workers(self, count):
        from repro.service.worker import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--workers", count])
        assert excinfo.value.code == 2
