"""The versioned ``repro.lint/1`` findings schema.

``repro lint --format=json`` emits one self-describing JSON document
per run: what :func:`build_payload` writes and the ``_PAYLOAD`` field
table checks (an example document is in docs/LINTING.md).  Bump the
schema integer on any backwards-incompatible layout change (version
policy: :mod:`repro.schema`).
"""

from __future__ import annotations

from .. import schema
from ..errors import LintError

#: Schema tag of the JSON findings document.
LINT_SCHEMA = "repro.lint/1"


def build_payload(
    result,
    *,
    paths: list[str],
    select: tuple[str, ...],
    ignore: tuple[str, ...],
) -> dict:
    """The JSON document for one lint run.

    Args:
        result: a :class:`~repro.lint.runner.LintResult`.
        paths: the paths as requested (not the expanded file list).
        select: effective rule selection (empty = all).
        ignore: effective rule ignores.
    """
    from .rules import CATALOG_VERSION, catalog_description

    return {
        "schema": LINT_SCHEMA,
        "catalog": {
            "version": CATALOG_VERSION,
            "rules": catalog_description(),
        },
        "paths": [str(path) for path in paths],
        "select": list(select),
        "ignore": list(ignore),
        "findings": [
            finding.to_dict() for finding in result.findings
        ],
        "unused_suppressions": [
            entry.to_dict() for entry in result.unused_suppressions
        ],
        "statistics": result.statistics(),
        "clean": result.clean,
    }


_PAYLOAD = schema.table({
    "schema": schema.tag(LINT_SCHEMA),
    "catalog": schema.table({
        "version": schema.integer(1),
        "rules": schema.list_of(schema.table({
            "id": schema.STR,
            "severity": schema.STR,
            "summary": schema.STR,
        })),
    }),
    "findings": schema.list_of(schema.table({
        "rule": schema.STR,
        "severity": schema.STR,
        "path": schema.STR,
        "module": schema.STR,
        "line": schema.COUNT,
        "col": schema.COUNT,
        "message": schema.STR,
        "hint": schema.STR,
    })),
    "unused_suppressions": schema.list_of(schema.table({
        "path": schema.STR,
        "line": schema.COUNT,
        "rule": schema.STR,
        "reason": schema.STR,
    })),
    "statistics": schema.table({
        "modules": schema.COUNT,
        "findings": schema.COUNT,
        "suppressed": schema.COUNT,
        "unused_suppressions": schema.COUNT,
        "per_rule": schema.map_of(schema.table(
            {"findings": schema.COUNT, "suppressed": schema.COUNT}
        )),
    }),
    "clean": schema.BOOL,
})


def validate_payload(payload: dict) -> dict:
    """Check ``payload`` against ``repro.lint/1``; return it.

    Raises:
        LintError: naming the first field that does not fit the
            schema.
    """
    return schema.validate(payload, _PAYLOAD, LintError, "lint payload")


def load_payload(path: str) -> dict:
    """Read and validate a lint JSON document from ``path``.

    Raises:
        LintError: unreadable file, invalid JSON, or schema drift.
    """
    return schema.load_json(path, _PAYLOAD, LintError, "lint payload")
