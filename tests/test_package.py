"""Package-level checks: public API surface, version, example hygiene."""

import pathlib
import py_compile
import re
import subprocess
import sys

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.4.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_headline_workflow(self):
        """The README's three-line quickstart must keep working."""
        params = repro.nash_difficulty(w_av=140630, alpha=1.1)
        assert (params.k, params.m) == (2, 17)
        game = repro.ClientGame.homogeneous(15, 140630.0, 1100.0)
        solution = game.solve(params.expected_hashes)
        assert solution.feasible

    def test_error_hierarchy(self):
        from repro import errors

        for name in ("SimulationError", "NetworkError", "CodecError",
                     "PuzzleError", "GameError", "ExperimentError"):
            assert issubclass(getattr(errors, name), errors.ReproError)


_IMPORT_FOOTPRINT_PROBE = r"""
import sys

import repro
import repro.experiments
import repro.faults.chaos
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.summary import run_scenario_summary

run_scenario_summary(ScenarioConfig(time_scale=0.01, attack_style="connect"))
loaded = sorted(name for name in ("scipy", "networkx", "cProfile", "pstats")
                if name in sys.modules)
assert not loaded, f"simulator import path loaded {loaded}"

game = repro.ClientGame.homogeneous(15, 140630.0, 1100.0)
assert game.solve(1e5).feasible
assert repro.StackelbergGame(game).solve_relaxed().total_rate > 0
assert "scipy.optimize" in sys.modules
print("ok")
"""


class TestImportFootprint:
    def test_simulator_leaves_scipy_and_networkx_unloaded(self):
        """Importing the package and running a scenario must not load
        the game solvers' scipy, any graph library or the profiler's
        cProfile/pstats; the solvers still load scipy when they first
        run. A fresh interpreter, because this test process has long
        since imported them."""
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_FOOTPRINT_PROBE],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


class TestExamples:
    def test_all_examples_compile(self):
        examples = sorted((ROOT / "examples").glob("*.py"))
        assert len(examples) >= 5
        for path in examples:
            py_compile.compile(str(path), doraise=True)

    def test_nash_tuning_example_runs(self):
        result = subprocess.run(
            [sys.executable, str(ROOT / "examples" / "nash_tuning.py")],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert "(k=2, m=17)" in result.stdout

    def test_scripts_compile(self):
        for path in sorted((ROOT / "scripts").glob("*.py")):
            py_compile.compile(str(path), doraise=True)


class TestDocs:
    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "docs/THEORY.md",
                     "docs/IMPLEMENTATION.md", "docs/USAGE.md"):
            assert (ROOT / name).is_file(), name

    def test_design_indexes_every_figure(self):
        design = (ROOT / "DESIGN.md").read_text()
        for artifact in ("Fig 3(a)", "Fig 6", "Fig 7", "Fig 8", "Fig 9",
                         "Fig 10", "Fig 11", "Fig 12", "Fig 13",
                         "Fig 14", "Fig 15", "Table 1"):
            assert artifact in design, artifact

    def test_design_names_only_existing_benchmarks(self):
        design = (ROOT / "DESIGN.md").read_text()
        named = set(re.findall(r"benchmarks/[\w./]+\.py", design))
        assert named
        assert sorted(path for path in named
                      if not (ROOT / path).is_file()) == []

    def test_benchmarks_cover_every_figure(self):
        names = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
        expected = {
            "bench_fig3_profiles.py", "bench_nash_example.py",
            "bench_fig6_connection_time.py", "bench_fig7_syn_flood.py",
            "bench_fig8_11_connection_flood.py",
            "bench_fig12_difficulty_sweep.py",
            "bench_fig13_14_botnet.py", "bench_fig15_adoption.py",
            "bench_table1_iot.py", "bench_ablations.py",
            "bench_extensions.py", "bench_micro.py",
        }
        assert expected <= names
