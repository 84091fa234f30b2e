"""Modules of the package import only public names from each other, and
read no private attribute of an object other than ``self`` or ``cls``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gonosomal"


def test_no_module_imports_a_private_name_from_a_sibling():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("gonosomal")
            ):
                found += [
                    f"{path.name}:{node.lineno} imports {alias.name} from .{node.module or ''}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not found, "; ".join(found)


def test_no_module_reads_a_private_attribute_of_another_object():
    # os._exit is public despite its name: the documented way out of a
    # forked child (test_one_function_forks_exits_and_reaps_a_child pins
    # its one use)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.endswith("__")
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
                and ast.unparse(node) != "os._exit"
            ):
                found.append(f"{path.name}:{node.lineno} reads {ast.unparse(node)}")
    assert not found, "; ".join(found)


# The count and tolerance phrases include the placeholder of the one f-string
# that words them, so they match neither sample_simplex's "n and nu must be
# at least 1" nor load_tensor's "counts must be positive".
@pytest.mark.parametrize(
    "phrase",
    ["single state", "one per row", "non-finite coordinate", "is immutable",
     "{name} must be at least 1", "{name} must be positive"],
)
def test_each_input_rule_is_raised_from_one_place(phrase):
    # a rule written out twice drifts apart: its message must have one home
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            # the source of the raise, f-string placeholders included
            if isinstance(node, ast.Raise) and phrase in ast.unparse(node):
                found.append(f"{path.name}:{node.lineno}")
    assert len(found) == 1, f"{phrase!r} is raised at {', '.join(found) or 'no place'}"


def _written_names(body):
    # names the statements rebind, or write an item or attribute of
    names = set()
    for node in (node for stmt in body for node in ast.walk(stmt)):
        if isinstance(getattr(node, "ctx", None), ast.Store):
            while isinstance(node, (ast.Subscript, ast.Attribute, ast.Starred)):
                node = node.value
            if isinstance(node, ast.Name):
                names.add(node.id)
    return names


def test_only_orbit_steps_a_batch_in_a_loop():
    # a loop that feeds an image of apply_raw or apply_normalized back into
    # the map re-checks its input every step: GonosomalOperator.orbit, which
    # checks it once, is the one stepping loop.  Applying the map once to
    # each item a loop walks over (a root, a test point) is not stepping.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [ast.parse(path.read_text(), filename=str(path))]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.FunctionDef) and node.name == "orbit":
                continue
            if isinstance(node, (ast.For, ast.While)):
                written = _written_names(node.body + node.orelse)
                found += [
                    f"{path.name}:{call.lineno} steps {ast.unparse(call)} in a loop"
                    for stmt in node.body + node.orelse
                    for call in ast.walk(stmt)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in ("apply_raw", "apply_normalized")
                    and written & {n.id for a in call.args for n in ast.walk(a)
                                   if isinstance(n, ast.Name)}
                ]
            stack.extend(ast.iter_child_nodes(node))
    assert not found, "; ".join(sorted(set(found)))


def test_the_pair_matrix_is_read_by_the_kernels_alone():
    # every map forms its pair products in orbit (apply_raw and
    # apply_normalized are its iterate 1) or stepper (one state), and its
    # Jacobian in _pair_jacobian: no second batch product reads the matrix.
    # __init__ names it as a string, in the one write of the attribute.
    tree = ast.parse((PACKAGE / "operator.py").read_text())
    (cls,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "GonosomalOperator"
    ]
    readers = {
        func.name for func in cls.body if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if "_pair_matrix" in (getattr(node, "attr", None), getattr(node, "value", None))
    }
    assert readers == {"__init__", "pair_matrix", "stepper", "orbit", "_pair_jacobian"}


def test_the_block_sum_guard_has_one_home():
    # the normalized map's division rule reads its two thresholds in
    # can_normalize (a mask) and can_normalize_all (its batch-wide .all())
    # alone; every caller goes through one of the two
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if isinstance(node, ast.Name) and node.id in ("_BLOCK_SUM_GUARD", "_NORMAL_MIN"):
                        readers.add(f"{path.name}:{func.name}")
    assert readers == {"operator.py:can_normalize", "operator.py:can_normalize_all"}


def test_the_annihilation_error_is_raised_by_the_two_stepping_loops_alone():
    # the normalized maps refuse a state in GonosomalOperator.orbit (a batch;
    # apply_normalized and jacobian_normalized step through it) and in
    # GonosomalOperator.iterate (one state) alone
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Raise) and "_annihilated(" in ast.unparse(child):
                # a nested helper counts as the method that defines it
                sites.append(f"{path.name}:{'.'.join(scope[:2])}")
            visit(child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), [])
    assert sorted(sites) == [
        "operator.py:GonosomalOperator.iterate", "operator.py:GonosomalOperator.orbit",
    ]


def test_the_sup_norm_constant_and_zero_rule_have_one_home():
    # C = 19/12 is written once (as a Fraction or a quotient of 19 and 12,
    # either way round), and the radius log(12/19) that it sets is read by
    # classify_limit alone
    constants, readers = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            operands = (
                node.args if isinstance(node, ast.Call)
                else [node.left, node.right] if isinstance(node, ast.BinOp) else []
            )
            if len(operands) == 2 and {getattr(n, "value", None) for n in operands} == {12, 19}:
                constants.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.FunctionDef):
                readers.update(
                    f"{path.name}:{node.name}" for name in ast.walk(node)
                    if isinstance(name, ast.Name) and name.id == "_LOG_ZERO_RADIUS"
                )
    assert len(constants) == 1 and constants[0].startswith("invariant_sets.py:"), constants
    assert readers == {"invariant_sets.py:classify_limit"}


def test_the_series_term_cap_is_read_by_classify_limit_alone():
    # the escape series past its first partial sum is summed in one loop:
    # the batch classifier hands every row it cannot decide there to
    # classify_limit, so the term cap has one reader
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(func, ast.FunctionDef):
                readers.update(
                    f"{path.name}:{func.name}" for node in ast.walk(func)
                    if isinstance(node, ast.Name) and node.id == "_MAX_TERMS"
                )
    assert readers == {"invariant_sets.py:classify_limit"}


def test_the_fixed_point_search_builds_one_newton_system():
    # a normalized fixed point is the raw root on its simplex ray, so both
    # modes solve W(s) = s: find_fixed_points defines one residual and one
    # Jacobian, and spectral.py imports no chart embedding or chart guard
    tree = ast.parse((PACKAGE / "spectral.py").read_text())
    (search,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "find_fixed_points"
    ]
    defined = [
        getattr(node, "name", "lambda") for node in ast.walk(search)
        if isinstance(node, (ast.FunctionDef, ast.Lambda)) and node is not search
    ]
    assert defined == ["fun", "jac"]
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & {"embed_reduced", "can_normalize"}


def test_one_function_forks_exits_and_reaps_a_child():
    # the battery's forked search is the package's one concurrency path: a
    # second one would need its own rules for exit, errors and reaping
    sites = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{path.name}:{child.name}")
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr in ("fork", "_exit", "waitpid")
                and isinstance(child.value, ast.Name) and child.value.id == "os"
            ):
                sites.setdefault(child.attr, set()).add(scope)
            visit(child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), f"{path.name}:<module>")
    assert sites == dict.fromkeys(("fork", "_exit", "waitpid"), {"verify.py:_in_child"})


def test_the_batch_classifier_takes_no_raw_step():
    # every raw step of the classifier is classify_limit's, under its
    # rounding bound: classify_limits names no kernel that steps a state,
    # and hands what it cannot decide to classify_limit
    tree = ast.parse((PACKAGE / "invariant_sets.py").read_text())
    (batch,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "classify_limits"
    ]
    named = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(batch)}
    assert "classify_limit" in named
    assert not named & {"orbit", "apply_raw", "stepper", "hemophilia_operator"}
