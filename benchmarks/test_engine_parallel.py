"""Benchmark E8 — the analysis engine: executor fan-out and module cache.

Measures the same full pipeline under each executor (cache disabled so
every module really runs) and the warm-cache path (everything hits).
Each round gets a freshly-parsed project so per-project caches (VFGs,
contributions, resolvers) cannot leak timing between rounds.

Absolute speedups are hardware-dependent: process fan-out only wins on
multicore hosts (the process pool adds fork + pickle overhead on a
single core).
"""

import pytest

from conftest import BENCH_SEED

from repro.core import ValueCheck, ValueCheckConfig
from repro.corpus import generate_app
from repro.engine import AnalysisEngine, ResultCache

ENGINE_BENCH_SCALE = 0.1
ENGINE_WORKERS = 4


@pytest.fixture(scope="module")
def engine_app():
    return generate_app("nfs-ganesha", scale=ENGINE_BENCH_SCALE, seed=BENCH_SEED)


def _bench_executor(benchmark, app, executor: str):
    config = ValueCheckConfig(executor=executor, workers=ENGINE_WORKERS, module_cache=False)

    def setup():
        return (app.project(),), {}

    report = benchmark.pedantic(
        lambda project: ValueCheck(config).analyze(project),
        setup=setup,
        rounds=3,
        iterations=1,
    )
    assert report.engine_stats.executor == executor
    assert report.engine_stats.cache_hits == 0


def test_engine_serial_speed(benchmark, engine_app):
    _bench_executor(benchmark, engine_app, "serial")


def test_engine_process_speed(benchmark, engine_app):
    _bench_executor(benchmark, engine_app, "process")


def test_module_cache_warm_speed(benchmark, engine_app):
    cache = ResultCache()
    engine = AnalysisEngine(cache=cache)
    engine.run(engine_app.project())  # prime

    def warm_run():
        run = engine.run(engine_app.project())
        assert run.stats.analyzed == 0
        return run

    run = benchmark(warm_run)
    assert run.stats.cache_hits == run.stats.modules


def test_engine_solver_speed(benchmark):
    """The interned-bitset Andersen solver over the stress corpus.

    The stress corpus has copy chains, cycles, derefs and function-pointer
    fans, scaled down so rounds stay fast.  The solver must converge on
    every module — an unconverged run would make the timing meaningless.
    """
    from repro.corpus.solver_stress import stress_modules
    from repro.pointer.andersen import analyze_module

    modules = stress_modules(scale=0.25, seed=BENCH_SEED)

    def solve_all():
        return [analyze_module(module) for _, module in modules]

    results = benchmark(solve_all)
    assert all(result.converged for result in results)
