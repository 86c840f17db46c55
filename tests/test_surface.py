"""Library surface: every public function of every module of dmsr has a
caller outside the tests: code in the package or in perfbench/*.py reads
it, or the benchmark's tracer binds it by name (perfbench/tracing.py's
FUNCTIONS). A function only the tests call fails here. Only the tape and the
data inputs read `requires_grad`, and the package stays within its line
bound.
"""

import ast
import glob
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src", "dmsr")
MODULES = sorted(f[:-3] for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


def _tree(path):
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read())


def _public_functions(module):
    return {node.name for node in _tree(os.path.join(SRC, module + ".py")).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def _traced(module):
    """The functions of `module` named in the tracer's FUNCTIONS table."""
    for node in _tree(os.path.join(ROOT, "perfbench", "tracing.py")).body:
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "FUNCTIONS"):
            return {row.elts[1].value for row in node.value.elts
                    if row.elts[0].value == module}
    raise AssertionError("perfbench/tracing.py has no FUNCTIONS table")


def _referenced(module):
    """The names of `module` that the package's code or perfbench/*.py reads:
    imported from it, read through a name the module is imported as, or read
    inside it."""
    found = set()
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    paths += sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
    for path in paths:
        nodes = list(ast.walk(_tree(path)))
        aliases = set()
        for node in nodes:
            if isinstance(node, ast.ImportFrom):
                if node.level == 0:             # from dmsr.ops import x, from dmsr import ops
                    source = node.module
                else:                           # from .ops import x, from . import ops
                    source = f"dmsr.{node.module}" if node.module else "dmsr"
                if source == f"dmsr.{module}":
                    found.update(a.name for a in node.names)
                elif source == "dmsr":
                    aliases.update(a.asname or a.name for a in node.names if a.name == module)
        for node in nodes:
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                found.add(node.attr)
            elif path == os.path.join(SRC, module + ".py") and isinstance(node, ast.Name):
                found.add(node.id)
    return found


@pytest.mark.parametrize("module", MODULES)
def test_public_functions_have_a_caller_outside_the_tests(module):
    public = _public_functions(module)
    assert public or module == "swin"           # swin's layers are all classes
    unused = public - _referenced(module) - _traced(module)
    assert not unused, f"dmsr.{module} functions only the tests call: {sorted(unused)}"


def _requires_grad_readers():
    """The functions of the package that read `.requires_grad`, each named
    module.function or module.Class.method; a read in a nested function
    counts for the top-level function or method around it."""
    readers = set()
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        scopes = []
        for node in _tree(os.path.join(SRC, fname)).body:
            if isinstance(node, ast.ClassDef):
                scopes += [(f"{node.name}.{getattr(item, 'name', '<body>')}", item)
                           for item in node.body]
            else:
                scopes.append((getattr(node, "name", "<module>"), node))
        readers.update(f"{fname[:-3]}.{name}" for name, scope in scopes
                       if any(isinstance(n, ast.Attribute) and n.attr == "requires_grad"
                              and isinstance(n.ctx, ast.Load) for n in ast.walk(scope)))
    return readers


def test_only_the_tape_and_the_data_inputs_read_requires_grad():
    # every backward returns an array for every input and the sweep drops a
    # constant's, so no op reads the flag but the three that take data: _conv
    # skips a constant input's gradient (the input convs' sub-images), and
    # joint_filter and bilinear_sample refuse an image that requires one;
    # tensor.recording is the tape's test of whether an op records a node
    readers = _requires_grad_readers()
    tensor_methods = {r for r in readers if r.startswith("tensor.Tensor.")}
    assert tensor_methods
    assert readers - tensor_methods == {"tensor._grad_key", "tensor.recording", "tensor.record",
                                        "ops.Module.named_parameters", "ops._conv",
                                        "ops.joint_filter", "ops.bilinear_sample"}


# The non-blank, non-comment lines of src/dmsr, as counted by
#   grep -v '^\s*$' src/dmsr/*.py | grep -v ':\s*#' | wc -l
# A change that raises the bound says why in CHANGES.md.
SRC_LINE_BOUND = 2240


def test_source_stays_within_its_line_bound():
    count = 0
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname), encoding="utf-8") as f:
                count += sum(1 for line in f if line.strip()
                             and not re.search(r":\s*#", f"src/dmsr/{fname}:{line}"))
    assert count <= SRC_LINE_BOUND, f"src/dmsr has {count} lines, the bound is {SRC_LINE_BOUND}"
