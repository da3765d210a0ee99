"""The public API surface: everything in ``__all__`` importable and real."""

import importlib

import pytest

import repro


class TestTopLevelApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    @pytest.mark.parametrize(
        "module",
        [
            "repro.analysis",
            "repro.core",
            "repro.engine",
            "repro.experiments",
            "repro.joins",
            "repro.obs",
            "repro.streams",
            "repro.testkit",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module}.{name}"

    def test_no_private_names_exported(self):
        for mod_name in ("repro", "repro.core", "repro.engine",
                         "repro.joins", "repro.obs", "repro.streams",
                         "repro.testkit"):
            mod = importlib.import_module(mod_name)
            assert not any(n.startswith("_") for n in mod.__all__)

    def test_all_sorted(self):
        """Keep the export lists tidy (and merges conflict-free)."""
        for mod_name in ("repro", "repro.core", "repro.engine",
                         "repro.joins", "repro.obs", "repro.streams",
                         "repro.testkit"):
            mod = importlib.import_module(mod_name)
            assert list(mod.__all__) == sorted(mod.__all__), mod_name

    def test_every_export_has_a_docstring(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            assert getattr(obj, "__doc__", None), name
