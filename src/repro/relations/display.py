"""Plain-text rendering of K-relations, in the style of the paper's figures."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.relations.krelation import KRelation

__all__ = ["format_relation"]


def format_relation(
    relation: "KRelation",
    *,
    sort: bool = True,
    annotation_header: str = "annotation",
    max_annotation_width: int | None = None,
) -> str:
    """Render a K-relation as an aligned text table.

    Columns are the schema attributes followed by the annotation, formatted
    by the relation's semiring.  Rows are sorted by their attribute values
    when ``sort`` is true so output is deterministic.

    ``max_annotation_width`` caps the annotation column: any annotation
    whose full rendering exceeds it is re-rendered with the semiring's
    :meth:`~repro.semirings.base.Semiring.summarize_value` (e.g. provenance
    circuits print as a node-count/depth summary instead of the expanded
    expression).
    """
    attributes = list(relation.schema.attributes)
    header = attributes + [annotation_header]
    rows = []
    values_of = relation.schema.values_of
    items = [
        ([str(v) for v in values_of(key)], annotation)
        for key, annotation in relation._rows.items()
    ]
    if sort:
        items.sort(key=lambda item: item[0])
    for values, annotation in items:
        rendered = relation.semiring.format_value(annotation)
        if max_annotation_width is not None and len(rendered) > max_annotation_width:
            rendered = relation.semiring.summarize_value(annotation)
        values.append(rendered)
        rows.append(values)

    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render_row(cells: list[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    lines = [render_row(header), "-+-".join("-" * w for w in widths)]
    lines.extend(render_row(row) for row in rows)
    if not rows:
        lines.append("(empty)")
    return "\n".join(lines)
