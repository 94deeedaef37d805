"""One owner per representation, checked on the source of src/hecke.

The omega^2 rule and the norm form are written in hecke.numberfield
alone: no other module reads the field constants ctx.t and ctx.n, apart
from one named place that evaluates a form numberfield does not provide.
The orbit table and its key belong to hecke.torsion alone.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hecke"

# (module, function) -> why it reads ctx.t or ctx.n itself
FIELD_CONSTANT_READERS = {
    ("pairing", "_trace_numerators"): "the trace form of delta = 2*omega - t",
}


def _modules():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5, SRC
    return [(p.stem, p.read_text()) for p in paths]


def _field_constant_reads(source: str):
    """(enclosing function, line) of every read of .t or .n on a name or
    attribute called ctx."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Attribute) and node.attr in ("t", "n")
                and (getattr(node.value, "id", None) == "ctx"
                     or getattr(node.value, "attr", None) == "ctx")):
            out.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return out


def test_only_numberfield_reads_the_field_constants():
    bad = [f"{name}.py:{line} in {func}"
           for name, source in _modules() if name != "numberfield"
           for func, line in _field_constant_reads(source)
           if (name, func) not in FIELD_CONSTANT_READERS]
    assert not bad, "ctx.t or ctx.n outside numberfield: " + ", ".join(bad)


def test_only_torsion_names_the_orbit_table():
    bad = [name for name, source in _modules()
           if name != "torsion" and "_orbit_cache" in source]
    assert not bad, f"_orbit_cache named outside torsion: {bad}"
