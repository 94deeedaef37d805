"""Architecture rules, checked on the source of src/hecke.

One owner per representation: the omega^2 rule and the norm form are
written in hecke.numberfield alone, so no other module reads the field
constants ctx.t and ctx.n, apart from one named place that evaluates a
form numberfield does not provide.  The orbit table and its key belong
to hecke.torsion alone.

No public function without a caller: each is named inside the package
or checks a claim of the paper in a named test.  And the names that the
benchmark's tracer reads or wraps from outside the package still exist.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hecke"

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


# (module, function) -> the test that checks the paper's claim with it;
# these public functions have no caller inside the package
PAPER_CLAIM_CHECKS = {
    ("hecke_algebra", "alpha"):
        "test_acceptance.py::test_criterion_3_presentation_relations",
    ("hecke_algebra", "beta_endo"):
        "test_hecke_algebra.py::test_transport_endomorphism",
    ("hecke_algebra", "theta_product"):
        "test_hecke_algebra.py::test_theta_product_agrees_with_engine",
    ("kms", "eigenvalue_list"):
        "test_acceptance.py::test_criterion_6_partition_function_and_spectrum",
    ("kms", "kms_identity_check"):
        "test_acceptance.py::test_criterion_4_kms_identity_and_rescaling",
    ("kms", "partial_zeta"):
        "test_kms.py::test_partial_zeta_exact_and_float",
    ("oracle", "adjoint_fun"): "test_oracle.py::test_adjoint",
    ("oracle", "convolve"): "test_oracle.py::test_convolution_associativity",
    ("oracle", "count_L"): "test_oracle.py::test_count_R_random_sweep",
    ("oracle", "e_fun"): "test_oracle.py::test_e_sum_identity",
    ("oracle", "expected_monomial_function"):
        "test_oracle.py::test_monomial_closed_form_matches_convolution",
    ("oracle", "identity_fun"):
        "test_oracle.py::test_convolution_identity_and_examples",
    ("oracle", "symbolic_to_oracle"):
        "test_oracle.py::test_monomial_closed_form_matches_convolution",
    ("pairing", "character_laws"):
        "test_pairing.py::test_character_laws_exhaustive_small_levels",
    ("pairing", "pair"): "test_pairing.py::test_gauss_pairing_hand_values",
    ("symmetry", "group_elements"):
        "test_acceptance.py::test_criterion_8_galois_comparison",
}


def _names_read(tree) -> set:
    """Every Name and Attribute name read in `tree`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _uncalled_public_functions(modules) -> set:
    """(module, function) of each public module-level function that no
    module of the package names outside the function's own def; cli is
    left out, since click registers its commands."""
    readers: dict = {}      # name -> the top-level statements that read it
    funcs = []
    for name, source in modules:
        for top in ast.parse(source).body:
            for ref in _names_read(top):
                readers.setdefault(ref, set()).add(top)
            if (name != "cli" and isinstance(top, ast.FunctionDef)
                    and not top.name.startswith("_")):
                funcs.append((name, top))
    return {(name, f.name) for name, f in funcs
            if not readers.get(f.name, set()) - {f}}


def test_every_public_function_has_a_caller():
    uncalled = _uncalled_public_functions(_modules())
    bad = sorted(f"{m}.{f}" for m, f in uncalled - set(PAPER_CLAIM_CHECKS))
    assert not bad, "public functions with no caller in the package: " + \
        ", ".join(bad)
    stale = sorted(f"{m}.{f}" for m, f in set(PAPER_CLAIM_CHECKS) - uncalled)
    assert not stale, "PAPER_CLAIM_CHECKS names called functions: " + \
        ", ".join(stale)


def test_paper_claim_checks_name_their_tests():
    for (module, func), where in PAPER_CLAIM_CHECKS.items():
        path, test = where.split("::")
        tree = ast.parse((ROOT / "tests" / path).read_text())
        defs = [n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == test]
        assert defs, f"{where} not found"
        assert func in _names_read(defs[0]), \
            f"{where} does not use {module}.{func}"


def test_the_rule_sees_an_unused_function():
    name, source = next((n, s) for n, s in _modules() if n == "oracle")
    grown = source + "\n\ndef unused_probe(x):\n    return unused_probe(x)\n"
    assert ("oracle", "unused_probe") in _uncalled_public_functions(
        [(name, grown)])


def test_benchmark_tracer_finds_its_names():
    # the benchmark installs its tracer from outside the package and reads
    # named memo tables and methods; a renamed or deleted one breaks it
    code = (
        "import worker\n"
        "from tracer import OWN_SPANS, PRIVATE, Tracer\n"
        "worker.setup()\n"
        "tracer = Tracer(worker.MODULES)\n"
        "tracer.install()\n"
        "before = worker.memo_snapshot()\n"
        "tracer.on = True\n"
        "ctx = worker.MODULES['numberfield'].make_ctx(0)\n"
        "assert not worker.MODULES['oracle'].verify_equivalence(ctx, 2)"
        "['failed']\n"
        "tracer.on = False\n"
        "memo = worker.timed_counts(worker.memo_snapshot(), before)\n"
        "m = worker.layer_metrics(tracer, memo)\n"
        "missing = (PRIVATE | OWN_SPANS) - set(tracer.names)\n"
        "assert not missing, missing\n"
        "assert m['oracle.cosets_interned'] > 0, m\n"
        "assert m['hecke_algebra.mul_calls'] > 0, m\n"
        "print('ok')\n")
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    env = dict(os.environ, PYTHONPATH=path)
    res = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0 and res.stdout.split() == ["ok"], res.stderr
