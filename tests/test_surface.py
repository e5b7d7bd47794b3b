"""Every public name in ``src/repro`` earns a caller.

The public surface is derived from the source with :mod:`ast`: each
top-level function and class whose name does not start with ``_``,
plus the public methods and properties of those classes.  A name
counts as used when an ``ast.Name``, an ``ast.Attribute`` attribute or
an import alias spells it somewhere in ``src/``, ``benchmarks/``,
``perfbench/`` or ``examples/``, outside the name's own definition.
String occurrences do not count, so a lazy-export table row or an
``__all__`` entry is not a caller; neither is a test.

A name with no caller is dead code or a test-only hook.  Delete it,
or give it a row in :data:`EXEMPT` that says why it stays.  A second
check fails on a private def that nothing references, tests included.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "perfbench", "examples")

_REGISTERED = (
    "registered into the rule catalog by its @register decorator; "
    "the runner reaches it through the catalog, never by name"
)
_OBSERVES = "tests read it to observe the state of other code: "

#: Public names kept without a caller outside ``tests/``, each with
#: the reason it stays.  A row whose name is no longer defined, or
#: that has since gained a caller, fails :func:`test_no_stale_exemption`.
EXEMPT: dict[str, str] = {
    "repro.lint.rules.WallClockRule": _REGISTERED,
    "repro.lint.rules.GlobalRandomRule": _REGISTERED,
    "repro.lint.rules.UnorderedIterRule": _REGISTERED,
    "repro.lint.rules.SpecPicklableRule": _REGISTERED,
    "repro.lint.rules.NullPathRule": _REGISTERED,
    "repro.lint.rules.RaiseHierarchyRule": _REGISTERED,
    "repro.core.segment_size.max_cdn_segment_size": (
        "the paper's Section IV bound W <= B*T, a public result of the "
        "paper that the planned claims ledger checks (ROADMAP.md)"
    ),
    "repro.net.flownet.FlowNetwork.bytes_carried": (
        _OBSERVES + "per-link byte conservation in the flow solver"
    ),
    "repro.net.flownet.FlowNetwork.active_flows": (
        _OBSERVES + "which flows the solver still carries"
    ),
    "repro.net.flownet.FlowNetwork.flows_on": (
        _OBSERVES + "which flows share a link"
    ),
    "repro.p2p.leecher.Leecher.inflight": (
        _OBSERVES + "the download pool the policy sized"
    ),
    "repro.p2p.peer.PeerBase.active_upload_count": (
        _OBSERVES + "the upload-slot limit and choking"
    ),
    "repro.p2p.swarm.SwarmResult.all_finished": (
        _OBSERVES + "that every leecher played to the end"
    ),
    "repro.p2p.tracker.Tracker.peer_ids": (
        _OBSERVES + "swarm membership after joins and departures"
    ),
    "repro.p2p.wire.FrameDecoder.pending_bytes": (
        _OBSERVES + "partial frames buffered by the wire codec"
    ),
    "repro.lint.runner.lint_source": (
        "tests drive the lint rules through it on in-memory sources; "
        "the CLI lints files through lint_paths"
    ),
    "repro.core.validate.validate_splice": (
        "a test oracle: the splice property tests check every "
        "splicer's output against it"
    ),
}


@dataclass(frozen=True)
class Definition:
    qualname: str  # e.g. "repro.net.engine.Simulator.run"
    name: str
    public: bool  # a public top-level def, or a public member of one
    path: Path
    first: int
    last: int

    def encloses(self, path: Path, line: int) -> bool:
        return path == self.path and self.first <= line <= self.last


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_def(node: ast.AST) -> bool:
    return isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    )


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__")
    )


def _definitions() -> list[Definition]:
    """Every def at module level or in a module-level class body."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        for node in ast.parse(path.read_text()).body:
            if not _is_def(node):
                continue
            public = not node.name.startswith("_")
            found.append(Definition(
                f"{module}.{node.name}", node.name, public, path,
                node.lineno, node.end_lineno,
            ))
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if _is_def(member):
                    found.append(Definition(
                        f"{module}.{node.name}.{member.name}", member.name,
                        public and not member.name.startswith("_"), path,
                        member.lineno, member.end_lineno,
                    ))
    return found


def _references(dirs) -> dict[str, list[tuple[Path, int]]]:
    """Map each spelled identifier to the places that spell it."""
    spelled: dict[str, list[tuple[Path, int]]] = {}
    for top in dirs:
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name.rpartition(".")[2]
                else:
                    continue
                spelled.setdefault(name, []).append((path, node.lineno))
    return spelled


def _has_caller(definition: Definition, spelled) -> bool:
    return any(
        not definition.encloses(path, line)
        for path, line in spelled.get(definition.name, ())
    )


DEFINITIONS = _definitions()
PUBLIC = {d.qualname: d for d in DEFINITIONS if d.public}
CALLERS = _references(CALLER_DIRS)


def test_every_public_name_has_a_caller():
    uncalled = [
        f"{d.qualname} ({d.path.relative_to(REPO_ROOT)}:{d.first})"
        for d in PUBLIC.values()
        if d.qualname not in EXEMPT and not _has_caller(d, CALLERS)
    ]
    assert uncalled == [], (
        "public names with no caller outside tests/ — delete them or "
        "add an EXEMPT row saying why they stay:\n  " + "\n  ".join(uncalled)
    )


def _stale(exempt) -> dict[str, str]:
    """Exemptions whose name is gone or has since gained a caller."""
    return {
        name: "not defined" if name not in PUBLIC else "has a caller"
        for name in exempt
        if name not in PUBLIC or _has_caller(PUBLIC[name], CALLERS)
    }


def test_no_stale_exemption():
    assert _stale(EXEMPT) == {}


def test_stale_exemptions_are_detected():
    assert _stale({
        "repro.net.engine.Simulator.no_such_method": "gone",
        "repro.net.engine.Simulator.run": "called everywhere",
    }) == {
        "repro.net.engine.Simulator.no_such_method": "not defined",
        "repro.net.engine.Simulator.run": "has a caller",
    }


def test_every_exemption_gives_a_reason():
    assert all(reason.strip() for reason in EXEMPT.values())


def test_every_private_def_is_referenced():
    spelled = _references(CALLER_DIRS + ("tests",))
    unreferenced = [
        f"{d.qualname} ({d.path.relative_to(REPO_ROOT)}:{d.first})"
        for d in DEFINITIONS
        if _is_private(d.name) and not _has_caller(d, spelled)
    ]
    assert unreferenced == [], unreferenced
