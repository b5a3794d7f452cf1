from xml.dom import minidom

import pytest

from localpriority.core import Constraint, Instance, make_alpha
from localpriority.mechanisms import da_alpha, ttc_alpha
from localpriority.render import render

from conftest import GOLDENS


def test_da_alpha_golden(da_spec):
    assert render(da_alpha(da_spec)) == (GOLDENS / "da_alpha.txt").read_text()


def test_ttc_alpha_golden(ttc_endowment):
    assert render(ttc_alpha(ttc_endowment)) == (GOLDENS / "ttc_alpha.txt").read_text()


def test_nonunique_golden(nonunique_alphas):
    alpha_full, _, _ = nonunique_alphas
    assert render(alpha_full) == (GOLDENS / "nonunique_alpha_I.txt").read_text()


def test_fully_feasible_renders_dots_only(inst3):
    constraint = Constraint(inst3, frozenset(range(27)), ("explicit",))
    doc = render(constraint)
    assert "[" not in doc
    assert doc.count("·") == 27


def test_render_is_pure(da_spec):
    alpha = da_alpha(da_spec)
    assert render(alpha) == render(alpha)


def test_constraint_render_marks_infeasible_without_labels(house3):
    doc = render(house3)
    assert doc.count("[]") == len(house3.infeasible_codes)


def test_two_agent_render_single_grid(nonunique_alphas):
    alpha_full, _, _ = nonunique_alphas
    doc = render(alpha_full)
    assert "[1 2]" in doc
    assert len(doc.splitlines()) == 4  # header plus one row per object
    svg = render(alpha_full, "svg")
    assert svg == (GOLDENS / "nonunique_alpha_I.svg").read_text()


def test_four_agent_render(inst3):
    inst = Instance(("1", "2", "3", "4"), ("a", "b"))
    feasible = frozenset(
        code for code in range(16) if len(set(inst.decode(code))) == 2
    )
    constraint = Constraint(inst, feasible, ("explicit",))
    alpha = make_alpha(constraint, {c: {0} for c in constraint.infeasible_codes})
    doc = render(alpha)
    assert "3=a 4=a" in doc and "3=b 4=b" in doc
    assert doc == (GOLDENS / "four_agent.txt").read_text()
    assert render(alpha, "svg") == (GOLDENS / "four_agent.svg").read_text()


def test_one_agent_not_renderable():
    inst = Instance(("1",), ("a", "b"))
    constraint = Constraint(inst, frozenset({0}), ("explicit",))
    with pytest.raises(ValueError):
        render(constraint)


def test_five_agents_not_renderable():
    inst = Instance(("1", "2", "3", "4", "5"), ("a", "b"))
    constraint = Constraint(inst, frozenset({0}), ("explicit",))
    with pytest.raises(ValueError):
        render(constraint)


def test_svg_render(da_spec):
    alpha = da_alpha(da_spec)
    doc = render(alpha, "svg")
    assert doc.startswith("<svg")
    assert doc == render(alpha, "svg")
    assert doc == (GOLDENS / "da_alpha.svg").read_text()
    assert doc.count('fill="#cccccc"') == len(alpha.cells)
    assert doc.count('fill="#ffffff"') == 27 - len(alpha.cells)


def test_unknown_format_rejected(house3):
    with pytest.raises(ValueError, match="format"):
        render(house3, "png")


def test_svg_escapes_names():
    # names with XML markup characters stay text, and the document parses
    inst = Instance(("1", "<2>", "3&"), ("a&b", "<c>"))
    constraint = Constraint(inst, frozenset({0, 7}), ("explicit",))
    alpha = make_alpha(constraint, {c: {0, 1, 2} for c in constraint.infeasible_codes})
    doc = minidom.parseString(render(alpha, "svg"))
    texts = [node.firstChild.data for node in doc.getElementsByTagName("text")]
    assert "3&=a&b" in texts and "<c>" in texts
    assert texts.count("1 <2> 3&") == len(constraint.infeasible_codes)
