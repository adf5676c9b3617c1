"""A setting exists only where it is read: every parameter of every
function and lambda in the library is read in that function's body, and
every config key (a `RunConfig` field) is read by the code that runs."""
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


# config.py's code that handles every key alike, or only checks a value: a
# key that only these read configures nothing
_GENERIC = {"_convert", "parse_config", "validate", "config_echo"}


def _unread_keys(sources):
    """The fields of config.py's RunConfig that no module of `sources` loads
    as an attribute (`cfg.grid_M`, `self.eq_beta`) outside `_GENERIC`."""
    tree = ast.parse(sources["config.py"])
    run_config = next(node for node in tree.body
                      if isinstance(node, ast.ClassDef) and node.name == "RunConfig")
    keys = [node.target.id for node in run_config.body if isinstance(node, ast.AnnAssign)]
    loaded = set()
    for module, source in sources.items():
        roots = ast.parse(source).body
        if module == "config.py":
            roots = [node for node in roots
                     if not (isinstance(node, ast.FunctionDef) and node.name in _GENERIC)]
        loaded |= {node.attr for root in roots for node in ast.walk(root)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [key for key in keys if key not in loaded]


def test_every_config_key_is_read():
    # the keys that only the runs read are unread in config.py alone
    assert {"experiment", "illposed_N", "sweep_values"} <= set(
        _unread_keys({"config.py": SOURCES["config.py"]}))
    assert _unread_keys(SOURCES) == []


_PLANTED_KEY = "    sweep_tolerance: float = 0.15\n"


@pytest.mark.parametrize("module, anchor, reader, unread", [
    # a threshold key as it was before the verdict became a constant, and nothing reads it
    ("config.py", None, None, True),
    # read by validate alone: checked, but it configures nothing
    ("config.py", "    if cfg.seed < 0:\n", "    assert cfg.sweep_tolerance >= 0\n", True),
    # read by a run: no longer unread
    ("cli.py", "    return [eta_limit_sweep(", "    assert cfg.sweep_tolerance >= 0\n", False),
], ids=["nothing_reads_it", "only_validate_reads_it", "a_run_reads_it"])
def test_ratchet_catches_a_planted_unread_key(module, anchor, reader, unread):
    # the key is planted as RunConfig's last field, its reader before `anchor`
    sources = dict(SOURCES)
    last = "    sweep_s: float = 0.0\n"
    assert sources["config.py"].count(last) == 1
    sources["config.py"] = sources["config.py"].replace(last, last + _PLANTED_KEY)
    if anchor is not None:
        assert sources[module].count(anchor) == 1
        sources[module] = sources[module].replace(anchor, reader + anchor)
    assert _unread_keys(sources) == (["sweep_tolerance"] if unread else [])
