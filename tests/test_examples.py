"""Smoke tests for the runnable examples.

Every example is imported (not run), so a public API an example uses
cannot disappear unnoticed; the cheap, training-free ones also run.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest


_EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(_EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "Program graph" in out
        assert "Design space" in out
        assert "latency=" in out

    def test_explore_design_space(self):
        out = run_example("explore_design_space.py")
        assert "bottleneck" in out
        assert "Pareto frontier" in out
        # The directed explorer should report a best design.
        assert "best latency" in out

    @pytest.mark.parametrize(
        "path", sorted(_EXAMPLES.glob("*.py")), ids=lambda path: path.stem
    )
    def test_example_imports(self, path):
        spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # main() stays behind its __main__ guard
        assert callable(module.main)

    def test_all_examples_compile(self):
        """Every example must at least be valid Python."""
        for path in sorted(_EXAMPLES.glob("*.py")):
            source = path.read_text()
            compile(source, str(path), "exec")
