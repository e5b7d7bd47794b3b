"""Start-up guard: importing the program loads only what a run reaches.

Package ``__init__`` files resolve their exports on first access
(:mod:`repro.lazy`), so ``import repro`` and the ``reproduce`` command
path load neither numpy nor the modules only other commands use.  The
paper's 20-node sessions run on the exact tier, which must work without
numpy installed.  Each check runs in a fresh interpreter, because this
test process has long since imported everything.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Modules the ``reproduce`` command path never reaches on the exact
#: tier.
UNREACHED = (
    "numpy",
    "repro.p2p.scale",
    "repro.obs.bench",
    "repro.obs.compare",
)

#: The stall-diagnosis layer, which only ``--analyze`` sweeps and
#: ``repro analyze`` use.
DIAGNOSIS = (
    "repro.obs.analyze",
    "repro.obs.causes",
    "repro.obs.timeline",
    "repro.obs.export",
)

_QUICK_FIG2 = ["reproduce", "--quick", "--figure", "2", "--jobs", "1"]


def _python(program: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", program, _SRC, *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded(code: str) -> set[str]:
    """The modules loaded once ``code`` ran in a fresh interpreter."""
    program = (
        "import atexit, json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "atexit.register(lambda: print(json.dumps(sorted(sys.modules))))\n"
    )
    return set(json.loads(_python(program + code).splitlines()[-1]))


def test_command_path_imports_leave_unreached_modules_unloaded():
    loaded = _loaded(
        "import repro\n"
        "import repro.experiments.reproduce\n"
        "from repro.cli import main\n"
    )
    assert "repro.cli" in loaded
    assert [name for name in UNREACHED if name in loaded] == []


def test_version_leaves_the_simulator_unloaded():
    loaded = _loaded("from repro.cli import main\nmain(['--version'])\n")
    assert "repro.cli" in loaded
    assert not loaded & {"repro.p2p.swarm", "repro.experiments.ablations"}
    assert [name for name in DIAGNOSIS if name in loaded] == []


def test_sweep_imports_leave_the_diagnosis_layer_unloaded():
    # The figure modules and the sweep machinery that perfbench
    # imports; ``repro.cli`` is left out because ``repro analyze``
    # needs the diagnosis layer.
    loaded = _loaded(
        "import repro\n"
        "from repro.experiments import fig2, fig3, fig4, fig5, runner\n"
        "from repro.parallel import cache, executor, store, worker\n"
    )
    assert "repro.parallel.worker" in loaded
    assert [name for name in DIAGNOSIS if name in loaded] == []


def test_exact_tier_reproduce_runs_without_numpy():
    program = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "if sys.argv[2] == 'blocked':\n"
        "    sys.modules['numpy'] = None\n"
        "from repro.cli import main\n"
        f"sys.exit(main({_QUICK_FIG2!r}))\n"
    )
    blocked = _python(program, "blocked")
    assert "fig2" in blocked
    assert blocked == _python(program, "normal")
