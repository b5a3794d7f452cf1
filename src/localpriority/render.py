"""Figure-style grid rendering of constraints and compromiser assignments.

Layout convention: rows are agent 1's object, columns agent 2's, horizontal
panels agent 3's, vertical panel rows agent 4's. Feasible cells show a dot;
infeasible cells show the compromiser names in brackets (ASCII) or shaded
(SVG). Output is byte-deterministic for fixed input.
"""

from __future__ import annotations

from .core import CompromiserAssignment, Constraint, Instance

RENDER_FORMATS = ("ascii", "svg")
FEASIBLE_MARK = "·"
# Names go into SVG text as character data, where only these three are
# markup; `html.escape` would cost every `lp` process the html5 entity table.
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def render(target: CompromiserAssignment | Constraint, fmt: str = "ascii") -> str:
    """Render a constraint (feasibility only) or an assignment (with
    compromiser labels) as a grid document in one of `RENDER_FORMATS`."""
    if fmt not in RENDER_FORMATS:
        raise ValueError(f"format must be one of {RENDER_FORMATS}")
    if isinstance(target, CompromiserAssignment):
        constraint, alpha = target.constraint, target
    else:
        constraint, alpha = target, None
    inst = constraint.instance
    if not 2 <= inst.n <= 4:
        raise ValueError("only 2, 3, or 4 agents are renderable")
    if fmt == "ascii":
        return _render_ascii(constraint, alpha)
    return _render_svg(constraint, alpha)


def _cell_text(constraint: Constraint, alpha: CompromiserAssignment | None, code: int) -> str:
    if code in constraint.feasible:
        return FEASIBLE_MARK
    inst = constraint.instance
    if alpha is None:
        return "[]"
    names = [inst.agents[i] for i in sorted(alpha.cells[code])]
    return "[" + " ".join(names) + "]"


def _panel_rows(inst: Instance) -> list[list[tuple[str, tuple[int, ...]]]]:
    """The panels, row by row, each as (title, fixed coordinates of agents 3
    and 4): agent 3's object varies along a row, agent 4's down the rows."""
    if inst.n == 2:
        grid: list[list[tuple[int, ...]]] = [[()]]
    elif inst.n == 3:
        grid = [[(p,) for p in range(inst.m)]]
    else:
        grid = [[(p, q) for p in range(inst.m)] for q in range(inst.m)]
    names = [[f"{inst.agents[i]}={obj}" for obj in inst.objects] for i in range(2, inst.n)]
    return [
        [(" ".join(names[j][o] for j, o in enumerate(fixed)), fixed) for fixed in row]
        for row in grid
    ]


def _panel_lines(
    constraint: Constraint,
    alpha: CompromiserAssignment | None,
    fixed: tuple[int, ...],
    width: int,
    label_width: int,
) -> list[str]:
    """One rows-by-columns grid for fixed agent-3/4 coordinates."""
    inst = constraint.instance
    header = " " * label_width + " ".join(
        f"{inst.agents[1]}={obj}".ljust(width) for obj in inst.objects
    ).rstrip()
    lines = [header]
    for r in range(inst.m):
        cells = []
        for c in range(inst.m):
            code = inst.encode((r, c) + fixed)
            cells.append(_cell_text(constraint, alpha, code).ljust(width))
        label = f"{inst.agents[0]}={inst.objects[r]}".ljust(label_width)
        lines.append((label + " ".join(cells)).rstrip())
    return lines


def _render_ascii(constraint: Constraint, alpha: CompromiserAssignment | None) -> str:
    inst = constraint.instance
    width = max(
        len(_cell_text(constraint, alpha, code))
        for code in range(inst.num_allocations)
    )
    width = max(width, max(len(f"{inst.agents[1]}={o}") for o in inst.objects))
    label_width = max(len(f"{inst.agents[0]}={o}") for o in inst.objects) + 2

    sep = "   "
    out_lines: list[str] = []
    for row in _panel_rows(inst):
        blocks = [_panel_lines(constraint, alpha, fixed, width, label_width) for _, fixed in row]
        titles = [title for title, _ in row]
        block_width = max(len(line) for block in blocks for line in block)
        if any(titles):
            out_lines.append(
                sep.join(t.ljust(block_width) for t in titles).rstrip()
            )
        for row_idx in range(len(blocks[0])):
            out_lines.append(
                sep.join(
                    block[row_idx].ljust(block_width) for block in blocks
                ).rstrip()
            )
        out_lines.append("")
    return "\n".join(out_lines[:-1]) + "\n"


def _render_svg(constraint: Constraint, alpha: CompromiserAssignment | None) -> str:
    inst = constraint.instance
    cell = 46
    pad = 34
    gap = 22
    rows = _panel_rows(inst)
    panels, panel_rows = len(rows[0]), len(rows)
    panel_w = pad + inst.m * cell
    panel_h = pad + inst.m * cell + 14
    total_w = panels * panel_w + (panels - 1) * gap + 8
    total_h = panel_rows * panel_h + (panel_rows - 1) * gap + 8

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" height="{total_h}" '
        f'font-family="monospace" font-size="11">'
    ]
    for q, row in enumerate(rows):
        for p, (title, fixed) in enumerate(row):
            ox = 4 + p * (panel_w + gap) + pad
            oy = 4 + q * (panel_h + gap) + pad
            if title:
                parts.append(f'<text x="{ox}" y="{oy - 22}">{title.translate(_XML_TEXT)}</text>')
            for c in range(inst.m):
                parts.append(
                    f'<text x="{ox + c * cell + 4}" y="{oy - 6}">{inst.objects[c].translate(_XML_TEXT)}</text>'
                )
            for r in range(inst.m):
                parts.append(
                    f'<text x="{ox - 14}" y="{oy + r * cell + 26}">{inst.objects[r].translate(_XML_TEXT)}</text>'
                )
                for c in range(inst.m):
                    code = inst.encode((r, c) + fixed)
                    feasible = code in constraint.feasible
                    fill = "#ffffff" if feasible else "#cccccc"
                    x, y = ox + c * cell, oy + r * cell
                    parts.append(
                        f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                        f'fill="{fill}" stroke="#000000"/>'
                    )
                    if not feasible and alpha is not None:
                        names = " ".join(
                            inst.agents[i] for i in sorted(alpha.cells[code])
                        ).translate(_XML_TEXT)
                        parts.append(
                            f'<text x="{x + 4}" y="{y + 26}">{names}</text>'
                        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
