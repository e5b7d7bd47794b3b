"""Guards the documented public API against drift.

Every name in each package's ``__all__`` must resolve, and the core
entry points used throughout the README/docs must exist with their
documented signatures.  Packages resolve their exports on first access
(:mod:`repro.lazy`); the lazy tables must behave like the eager
imports they replace.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.video",
    "repro.core",
    "repro.net",
    "repro.p2p",
    "repro.player",
    "repro.abr",
    "repro.bwest",
    "repro.testbed",
    "repro.experiments",
    "repro.obs",
    "repro.parallel",
    "repro.lint",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), package_name
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name}"


#: ``__all__`` names a package defines itself instead of re-exporting.
DEFINED_LOCALLY = {"repro": {"__version__"}}


def _export_table(package):
    return inspect.getclosurevars(package.__getattr__).nonlocals["table"]


@pytest.mark.parametrize("package_name", PACKAGES)
class TestLazyExports:
    def test_table_covers_exactly_the_reexports(self, package_name):
        package = importlib.import_module(package_name)
        local = DEFINED_LOCALLY.get(package_name, set())
        assert set(_export_table(package)) == set(package.__all__) - local

    def test_dir_lists_every_export(self, package_name):
        package = importlib.import_module(package_name)
        assert set(package.__all__) <= set(dir(package))

    def test_star_import_binds_every_export(self, package_name):
        namespace = {}
        exec(f"from {package_name} import *", namespace)
        package = importlib.import_module(package_name)
        assert set(package.__all__) <= set(namespace)

    def test_unknown_name_is_an_attribute_error(self, package_name):
        package = importlib.import_module(package_name)
        assert not hasattr(package, "no_such_export")
        with pytest.raises(AttributeError, match="no_such_export"):
            package.no_such_export

    def test_export_is_the_defining_module_attribute(self, package_name):
        package = importlib.import_module(package_name)
        for name, submodule in _export_table(package).items():
            defining = importlib.import_module(f"{package_name}.{submodule}")
            assert getattr(package, name) is getattr(defining, name), name


def test_first_access_caches_in_package_globals():
    import repro.p2p as package

    namespace = vars(package)
    namespace.pop("Tracker", None)
    value = package.Tracker
    assert namespace["Tracker"] is value


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_eq1_signature():
    from repro import adaptive_pool_size

    params = list(
        inspect.signature(adaptive_pool_size).parameters
    )
    assert params == ["bandwidth", "buffered_playtime", "segment_size"]


def test_swarm_config_defaults_match_paper():
    from repro import SwarmConfig

    config = SwarmConfig(bandwidth=1.0)
    assert config.n_leechers == 19  # 20 nodes with the seeder
    assert config.peer_rtt == pytest.approx(0.05)
    assert config.seeder_rtt == pytest.approx(0.5)
    assert config.path_loss == pytest.approx(0.05)

def test_splicers_are_interchangeable():
    from repro import DurationSplicer, GopSplicer, Splicer

    assert issubclass(GopSplicer, Splicer)
    assert issubclass(DurationSplicer, Splicer)


def test_policies_are_interchangeable():
    from repro import AdaptivePoolPolicy, DownloadPolicy, FixedPoolPolicy

    assert issubclass(AdaptivePoolPolicy, DownloadPolicy)
    assert issubclass(FixedPoolPolicy, DownloadPolicy)


def test_cli_module_importable():
    from repro.cli import build_parser, main

    assert callable(main)
    assert build_parser().prog == "repro"
