"""The versioned ``repro.lint/1`` findings schema.

``repro lint --format=json`` emits one self-describing JSON document
per run: what :func:`build_payload` writes (an example document is in
docs/LINTING.md).  Bump the schema integer on any backwards-incompatible
layout change (version policy: :mod:`repro.schema`).
"""

from __future__ import annotations

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

