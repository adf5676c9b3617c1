"""A setting exists only where it is read: every parameter of every
function and lambda in the library is read in that function's body."""
import ast
import pathlib

import pytest

import chenlee_lab

SOURCES = {path.name: path.read_text()
           for path in sorted(pathlib.Path(chenlee_lab.__file__).parent.glob("*.py"))}


def _unread_parameters(source, module):
    """'module:line: function(parameter)' for each parameter of a function
    or lambda in `source` that nothing in its body (nested functions
    included) loads; defaults and annotations are not the body."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {n.id for stmt in body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        unread += [f"{module}:{node.lineno}: {name}({p})" for p in params if p not in loaded]
    return unread


def test_every_parameter_is_read():
    assert len(SOURCES) > 10  # the scan sees the library
    unread = []
    for module, source in SOURCES.items():
        unread += _unread_parameters(source, module)
    assert unread == []


@pytest.mark.parametrize("module, planted, parameter", [
    # contraction_time as it read when it took the dissipation it ignored
    ("solver.py", "def contraction_time(phi_norm_hs, s, eta, C):\n"
                  "    return min(1.0, (8.0 * C * C * phi_norm_hs) ** (-1.0 / s))", "eta"),
    ("limits.py", "key = lambda row, col: row", "col"),
    ("flowderiv.py", "def grid_for(d, *, points_per_band=32):\n    return d", "points_per_band"),
    ("cli.py", "def run(cfg, **extra):\n    return cfg", "extra"),
    ("core.py", "class A:\n    def scaled(self, factor):\n        return self", "factor"),
    # a default that reads the name is not the body reading it
    ("spaces.py", "def norm(u, s, w=s):\n    return u + w", "s"),
], ids=["contraction_time_eta", "lambda", "keyword_only", "var_keyword", "method",
        "default_is_not_the_body"])
def test_ratchet_catches_a_planted_unread_parameter(module, planted, parameter):
    source = SOURCES[module] + "\n" + planted + "\n"
    # the line of the planted function, after its module's last line
    line = SOURCES[module].count("\n") + 2 + next(
        i for i, text in enumerate(planted.splitlines()) if "def " in text or "lambda" in text)
    unread = _unread_parameters(source, module)
    assert any(u.startswith(f"{module}:{line}: ") and u.endswith(f"({parameter})")
               for u in unread), unread
