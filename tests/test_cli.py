"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.core.project import Project
from repro.core.valuecheck import ValueCheck, ValueCheckConfig
from repro.corpus import generate_app
from repro.engine import DEFAULT_CACHE
from repro.store import BaselineEntry, BaselineFile, fingerprint_findings
from repro.vcs.repository import Repository

from tests.core.helpers import AUTHOR1, AUTHOR2, build_multifile_history

STATUS_LIB = "int status(void)\n{\n    return 1;\n}\n"
TWO_CHECKS = (
    "int status(void);\n"
    "int run(void)\n{\n    int r;\n"
    "    r = status();\n    if (r) { return 1; }\n"
    "    r = status();\n    if (r) { return 2; }\n"
    "    return 0;\n}\n"
)
#: Author2 clobbers both checked results: two findings on ``run``/``r``.
TWINS = TWO_CHECKS.replace("    r = status();\n", "    r = status();\n    r = 0;\n")


def _accept(tmp_path, report, project, accepted):
    """An accepted-findings file covering the ``accepted`` of ``report``'s
    reported findings by fingerprint, as ``triage --accept`` writes it."""
    fingerprints = fingerprint_findings(report.reported(), project.sources)
    baseline = BaselineFile(
        entries=[
            BaselineEntry(fingerprints[finding.key].primary, "known", "reviewer")
            for finding in accepted
        ]
    )
    return baseline.save(tmp_path / "accepted.json")


@pytest.fixture(autouse=True)
def cold_module_cache():
    """Each CLI invocation is a fresh process with a cold module cache;
    in one test process earlier analyses would warm it, and a cache hit
    parses nothing."""
    DEFAULT_CACHE.clear()


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
        # The tree under src/ is the repository's HEAD.
        project = Project.from_repository(Repository.load(corpus_dir / "repo.json"))
        report = ValueCheck(ValueCheckConfig()).analyze(project)
        assert report.reported()
        baseline = _accept(tmp_path, report, project, report.reported())
        rc = main(
            [
                "analyze",
                str(corpus_dir / "src"),
                "--repo",
                str(corpus_dir / "repo.json"),
                "--baseline",
                str(baseline),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert f"suppressed {len(report.reported())} known" in out
        assert "0 new" in out  # identical tree: everything is known

    def test_baseline_keeps_a_twin_of_an_accepted_finding(self, tmp_path, capsys):
        """Two findings on one variable in one function: accepting one
        leaves the other reported."""
        repo = build_multifile_history(
            [(AUTHOR1, {"lib.c": STATUS_LIB, "app.c": TWO_CHECKS}), (AUTHOR2, {"app.c": TWINS})]
        )
        repo.save(tmp_path / "repo.json")
        repo.checkout_to(tmp_path / "src")
        project = Project.from_repository(repo)
        report = ValueCheck(ValueCheckConfig()).analyze(project)
        first, second = report.reported()
        assert first.key.rsplit(":", 2)[0] == second.key.rsplit(":", 2)[0] == "app.c:run:r"
        baseline = _accept(tmp_path, report, project, [first])
        argv = ["analyze", str(tmp_path / "src"), "--repo", str(tmp_path / "repo.json")]
        assert main([*argv, "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "baseline suppressed 1 known finding(s); 1 new" in out
        assert f"app.c:{second.candidate.line} " in out
        assert f"app.c:{first.candidate.line} " not in out

    def test_analyze_summary_includes_stage_walltime(self, corpus_dir, capsys):
        rc = main(["analyze", str(corpus_dir / "src")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "layer self-time:" in out
        assert "frontend.parse" in out and "core.rank" in out

    def test_unparsable_file_fails_alike_under_every_executor(self, tmp_path, capsys):
        good = "int f(void)\n{\n    return 0;\n}\n"
        for name, text in (("a.c", good), ("b.c", "int g( {\n"), ("c.c", good)):
            (tmp_path / name).write_text(text)
        outcomes = []
        for executor in ("serial", "process"):
            DEFAULT_CACHE.clear()
            rc = main(["analyze", str(tmp_path), "--executor", executor, "--workers", "2"])
            outcomes.append((rc, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 2
        assert outcomes[0][1].startswith("error: b.c:1:8: ")

    def test_analyze_missing_directory(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path / "nope")])
        assert rc == 2

    def test_analyze_empty_directory(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path)])
        assert rc == 2


class TestInputErrors:
    """A bad input file is an error message and exit code 2, not a traceback."""

    def _fails(self, argv, capsys) -> str:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    def test_missing_repo_file(self, corpus_dir, tmp_path, capsys):
        argv = ["analyze", str(corpus_dir / "src"), "--repo", str(tmp_path / "missing.json")]
        assert "missing.json" in self._fails(argv, capsys)

    def test_repo_file_without_a_commit_table(self, corpus_dir, tmp_path, capsys):
        repo = tmp_path / "repo.json"
        repo.write_text(json.dumps({"format": 2, "name": "x"}))
        self._fails(["analyze", str(corpus_dir / "src"), "--repo", str(repo)], capsys)

    @pytest.mark.parametrize(
        "text",
        ['{"schema": 1, "entries": [', "[]", '{"entries": 5}', '{"entries": [5]}'],
        ids=["truncated", "array", "entries-not-a-list", "entry-not-an-object"],
    )
    def test_malformed_baseline_file(self, corpus_dir, tmp_path, capsys, text):
        baseline = tmp_path / "b.json"
        baseline.write_text(text)
        argv = ["--store", str(tmp_path / "s.db"), "--baseline", str(baseline)]
        err = self._fails(["gate", str(corpus_dir / "src"), *argv], capsys)
        assert "b.json is not a baseline file" in err
        self._fails(["analyze", str(corpus_dir / "src"), "--baseline", str(baseline)], capsys)

    def test_store_that_is_not_a_database(self, corpus_dir, tmp_path, capsys):
        store = tmp_path / "notadb"
        store.write_text("this is not a SQLite file\n" * 40)
        err = self._fails(["snapshot", str(corpus_dir / "src"), "--store", str(store)], capsys)
        assert "notadb is not a findings store" in err


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
        # The layer self-time table, as `valuecheck stats` prints it.
        assert "self-time" in out and "residual" in out
        assert "core.pipeline" in out and "frontend.parse" in out
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
        from repro.service import WorkerSpec
        from repro.service.worker import build_parser

        with pytest.raises(ValueError, match="at least 1"):
            WorkerSpec(threads=int(count))
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--spec", json.dumps({"threads": int(count)})])
        assert excinfo.value.code == 2
