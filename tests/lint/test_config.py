"""Scope resolution: dotted module names and sim-path prefixes."""

from repro.lint import SIM_PATH, in_scope, module_name


class TestScoping:
    def test_prefix_matches_self_and_submodules(self):
        prefixes = ("repro.p2p",)
        assert in_scope("repro.p2p", prefixes)
        assert in_scope("repro.p2p.leecher", prefixes)
        assert not in_scope("repro.p2p_extras", prefixes)
        assert not in_scope("repro.player", prefixes)

    def test_module_name_walks_package_chain(self, tmp_path):
        package = tmp_path / "pkg" / "sub"
        package.mkdir(parents=True)
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "mod.py").write_text("x = 1\n")
        assert module_name(package / "mod.py") == "pkg.sub.mod"
        assert module_name(package / "__init__.py") == "pkg.sub"

    def test_sim_path_covers_the_simulated_layers(self):
        assert in_scope("repro.p2p.leecher", SIM_PATH)
        assert in_scope("repro.net.flownet", SIM_PATH)
        assert not in_scope("repro.obs.ops", SIM_PATH)
        assert not in_scope("repro.parallel.progress", SIM_PATH)

    def test_bare_file_uses_stem(self, tmp_path):
        script = tmp_path / "scratch.py"
        script.write_text("x = 1\n")
        assert module_name(script) == "scratch"
