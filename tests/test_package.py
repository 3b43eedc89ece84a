"""Package-level surface tests: public API exports and the core alias."""

import pathlib
import re

import repro
import repro.core as core
import repro.framework as framework


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackages_exported(self):
        for name in ("algorithms", "datasets", "diffusion", "framework", "graph"):
            assert hasattr(repro, name)

    def test_core_aliases_framework(self):
        # repro.core re-exports the platform (the paper's contribution).
        assert core.IMFramework is framework.IMFramework
        assert core.tune_parameter is framework.tune_parameter
        assert core.recommend is framework.recommend

    def test_all_lists_resolve(self):
        import importlib

        for module_name in (
            "repro.graph",
            "repro.datasets",
            "repro.diffusion",
            "repro.algorithms",
            "repro.framework",
            "repro.core",
        ):
            module = importlib.import_module(module_name)
            for name in module.__all__:
                assert hasattr(module, name), f"{module_name}.{name}"

    def test_docstrings_on_public_modules(self):
        import importlib

        for module_name in (
            "repro",
            "repro.graph.digraph",
            "repro.graph.weights",
            "repro.diffusion.simulation",
            "repro.algorithms.base",
            "repro.framework.runner",
        ):
            module = importlib.import_module(module_name)
            assert module.__doc__ and len(module.__doc__) > 40

    def test_environment_read_only_by_cli(self):
        """Settings are passed explicitly; only the CLI reads the environment."""
        root = pathlib.Path(repro.__file__).parent
        readers = {
            str(path.relative_to(root))
            for path in root.rglob("*.py")
            if re.search(r"\benviron\b|\bgetenv\b", path.read_text())
        }
        assert readers <= {"cli.py"}, sorted(readers)

    def test_one_implementation_per_engine(self):
        """Reference implementations live in tests/oracles.py, not in src/."""
        import importlib
        import pkgutil

        import pytest

        from repro.algorithms import registry

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.diffusion.rrsets")
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name.endswith(".__main__"):
                continue  # importing it runs the CLI
            module = importlib.import_module(info.name)
            for name in getattr(module, "__all__", ()):
                assert "legacy" not in name.lower(), f"{info.name}.{name}"
                assert "RRCollection" not in name, f"{info.name}.{name}"
        for name in ("PMIA", "LDAG", "IRIE"):
            assert not registry.accepts_parameter(name, "engine"), name
