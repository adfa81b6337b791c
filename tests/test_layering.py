"""Structure guards: every import is used, the algebra is geometry-free,
applies its differential in one pass over compiled operators and signs
by one integer Koszul rule, the word layer has one relator-segment
scan, a ray is one periodic block, the loop layer identifies crossings
by one union-find, and the building search pairs by the twin map alone
and audits connectivity once per finished configuration."""

import ast
import dataclasses
import inspect
from pathlib import Path

import sft_lab
from sft_lab.algebra import (ODD, EVEN, Generator, GeneratorSet,
                             basis_monomials, derive_generator,
                             multiply_generator)
from sft_lab.enumerator import ObstructionAudit, pair_cancellation
from sft_lab.words import BoundaryOrder, Ray

GEOMETRY = {"indexcalc", "model", "enumerator", "cli"}
PACKAGE = Path(sft_lab.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def module_tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / (module + ".py")).read_text())


def test_no_unused_imports():
    unused = []
    for module in MODULES:
        tree = module_tree(module)
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    node.module != "__future__":
                imported.update(alias.asname or alias.name
                                for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0]
                                for alias in node.names)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += ["%s.%s" % (module, name)
                   for name in sorted(imported - read)]
    assert unused == []


def package_imports(module: str):
    """Names of the sft_lab modules ``module`` imports."""
    found = set()
    for node in ast.walk(module_tree(module)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.split(".")[0] != "sft_lab":
                continue
            parts = (node.module or "").split(".")[node.level == 0:]
            found.update(parts[:1] if parts and parts[0] else
                         [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("sft_lab."))
    return found


def test_algebra_imports_no_geometry():
    imports = package_imports("algebra")
    assert not imports & GEOMETRY
    assert imports == {"errors"}


def attribute_readers(module: str, attr: str):
    """Names of the functions of ``module`` that read ``.attr``; None
    stands for a read outside any function."""
    readers = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr == attr:
            readers.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(module_tree(module), None)
    return readers


def test_words_has_one_segment_scan():
    # every relator-segment rewrite, based or cyclic, goes through the
    # one scan; a second reader of the table would be a near-copy of it
    readers = attribute_readers("words", "segments")
    assert "_rewrites" in readers
    assert readers <= {"_rewrites", "segments", "_relator_segments"}


def callers(module: str, name: str):
    """Names of the functions of ``module`` that call ``name``, as a
    plain function or as a method."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            target = node.func
            called = (target.attr if isinstance(target, ast.Attribute)
                      else getattr(target, "id", None))
            if called == name:
                found.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(module_tree(module), None)
    return found


def test_cobracket_identifies_crossings_by_one_union_find():
    # crossings are merged along shared edges, not labelled by searching
    # a double coset for a least canonical spelling
    assert callers("cobracket", "canonical_element") == set()
    assert callers("cobracket", "_pair_orbit_key") == {
        "self_intersection_pairs", "bracket"}
    names = {getattr(node, "name", getattr(node, "id", None))
             for node in ast.walk(module_tree("cobracket"))}
    assert not names & {"CONNECTOR_RADIUS", "_reduced_words", "_power"}


def test_lifts_share_an_axis_by_one_commutator_test():
    # one axis can carry two different ray blocks, so both callers
    # decide a shared axis by one commutator test, reduced only for
    # classes that may share a root; the rays keep the one capped memo
    assert callers("cobracket", "primitive_root") == {
        "self_intersection_pairs", "bracket"}
    assert callers("cobracket", "is_trivial") == {"_crossing_sign"}
    assert callers("cobracket", "same_stream") == set()
    source = (PACKAGE / "cobracket.py").read_text()
    assert "_ray_cache" not in source and "_axis_rays" not in source


def test_ray_is_one_periodic_block():
    # a ray is the stream of its block: no prefix, and the block is cut
    # to its primitive root but never Dehn-reduced into a normal form
    assert Ray.__slots__ == ("tail",)
    assert list(inspect.signature(BoundaryOrder.ray).parameters) == [
        "self", "tail"]
    assert "_normalize_ray_cached" not in callers("words", "reduce_word")


def test_algebra_applies_compiled_operators_in_one_pass():
    # each entry is divided by its combinatorial factor once, when the
    # table is built, and only apply_D_exact reads the compiled operators
    for module in MODULES:
        readers = attribute_readers(module, "operators")
        factor_calls = callers(module, "combinatorial_factor")
        if module == "algebra":
            assert readers == {"__init__", "apply_D_exact"}
            assert factor_calls == {"__init__"}
        else:
            assert readers == factor_calls == set()
    defined = {node.name for node in ast.walk(module_tree("algebra"))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"apply_Dk", "apply_D", "_apply_entry",
                          "times_hbar", "orders", "monomial_times_hbar"}
    assert list(inspect.signature(basis_monomials).parameters) == [
        "gens", "trunc"]


def test_algebra_signs_by_one_integer_rule():
    # products and derivatives place a generator by the one _slot rule,
    # and the monomial kernel builds no Fraction: signs and exponents are
    # integers, and only the count weight is a Fraction
    assert callers("algebra", "_slot") == {"multiply_generator",
                                           "derive_generator"}
    assert not callers("algebra", "Fraction") & {
        "multiply_generator", "derive_generator", "multiply_monomials",
        "apply_D_exact"}
    gens = GeneratorSet([Generator("a", ODD), Generator("b", EVEN)])
    m = (0, (("a", 1), ("b", 2)))
    for gid in ("a", "b"):
        assert type(multiply_generator(gens, gid, m)[0]) is int
        assert type(derive_generator(gens, gid, m)[0]) is int



def test_connectivity_is_audited_once_per_entry():
    # every configuration the search builds is connected, so only the
    # audit of a finished configuration tests it
    assert callers("enumerator", "_connected") == {"check_constraints"}


def test_buildings_pair_by_the_twin_map_alone():
    # no convention and no in-list partner search
    assert list(inspect.signature(pair_cancellation).parameters) == [
        "buildings"]


def test_obstruction_audit_has_no_leaf_rank():
    # the rank in the leaf is 0 for every audited component
    assert "leaf_rank" not in {f.name for f in
                               dataclasses.fields(ObstructionAudit)}
