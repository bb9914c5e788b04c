"""The package is the pipeline: a static check of src/dnprobe.

Every top-level function and every method of the package has a caller in
the package or in demos/ outside its own body, and every name a module
imports is read there; test-only references live in tests/reference.py.
Every defaulted parameter of a package function is passed at some call
site in src, demos/ or tests/.  Each "<predicate> fails" message of a
hypothesis check is raised at one site, and a package error class is
caught only where a failure becomes an exit code (cli.main) or a
per-datum result (pde.solve_forward).  Every key config accepts is read
in config.py outside its schema tables, and every attribute the config
sets is read (cfg.name, or self.name in config.py).  scipy appears in the package only
where the Newton stall fallback factorizes a Jacobian, and no module
forms an explicit inverse with numpy.linalg.inv: a linear system is
factored and solved.  Importing the package builds no array that a
module keeps, and its subcommands load neither numpy.random, hashlib,
secrets nor scipy when no Newton step stalls.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter, defaultdict

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SRC = os.path.join(ROOT, "src", "dnprobe")

# bound by perfbench/spans.py, which times them; they leave the package
# together with that binding (ROADMAP item 1)
SPANS_BOUND = {"solve_linearized", "linear_flux", "nonlinear_flux",
               "recover_gamma_point", "recover_rho_point"}

# (module, top-level function) where a package error class may be caught
CATCH_SITES = {("cli", "main"), ("pde", "solve_forward")}

# (module, top-level function) where scipy may be named: the lazy splu
# binding and the Jacobian it factorizes
SCIPY_SITES = {("pde", "_lazy_splu"), ("pde", "_forward_jacobian")}


def _modules():
    """{module name: parsed tree} of the package sources."""
    out = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                out[name[:-3]] = ast.parse(fh.read())
    return out


def _top_level(tree):
    """(top-level statement, its function name or None) of a module."""
    for stmt in tree.body:
        yield stmt, stmt.name if isinstance(stmt, ast.FunctionDef) else None


def _names(node):
    """Identifiers a subtree reads: bare names, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _demo_names():
    found = set()
    demos = os.path.join(ROOT, "demos")
    for name in os.listdir(demos):
        if name.endswith(".py"):
            with open(os.path.join(demos, name)) as fh:
                found.update(_names(ast.parse(fh.read())))
    return found


def test_every_top_level_function_has_a_caller_in_src_or_demos():
    modules = _modules()
    defined = [(mod, name) for mod, tree in modules.items()
               for _, name in _top_level(tree) if name is not None]
    used = _demo_names()
    for mod, tree in modules.items():
        for stmt, name in _top_level(tree):
            # a function's own body is not a caller of it; an import is
            # not a call either (__init__ re-exports)
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                used.update(n for n in _names(stmt) if n != name)
    orphans = sorted(f"{mod}.{name}" for mod, name in defined
                     if name not in used and name not in SPANS_BOUND)
    assert orphans == [], f"no caller in src or demos/: {orphans}"


def _attributes(tree):
    """The attribute names a subtree reads, x.name, one per read."""
    return Counter(sub.attr for sub in ast.walk(tree) if isinstance(sub, ast.Attribute))


def test_every_method_has_a_caller_in_src_or_demos():
    # as for top-level functions, a method's own body is not a caller of
    # it; a method is reached as an attribute (obj.name, self.name, cls.name),
    # so a local variable of the same name is not a caller either, and
    # dunder methods are called by Python itself
    modules = _modules()
    used = Counter()
    for folder in (SRC, os.path.join(ROOT, "demos")):
        for name in os.listdir(folder):
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as fh:
                    used.update(_attributes(ast.parse(fh.read())))
    orphans = sorted(f"{mod}.{cls.name}.{fn.name}" for mod, tree in modules.items()
                     for cls in tree.body if isinstance(cls, ast.ClassDef)
                     for fn in cls.body if isinstance(fn, ast.FunctionDef)
                     and not (fn.name.startswith("__") and fn.name.endswith("__"))
                     and used[fn.name] <= _attributes(fn)[fn.name])
    assert orphans == [], f"methods with no caller in src or demos/: {orphans}"


def _functions(tree):
    """(function, number of leading parameters a call does not pass) for
    the top-level functions and the methods of a module; a method's self
    or cls is bound, not passed (the package has no staticmethod)."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt, 0
        elif isinstance(stmt, ast.ClassDef):
            yield from ((sub, 1) for sub in stmt.body if isinstance(sub, ast.FunctionDef))


def _defaulted(fn, bound):
    """(parameter, position a call passes it at, or None) of a function's
    defaulted parameters."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default no caller overrides is a constant: keywords and positions
    # passed, per callee name, over every call in src, demos/ and tests/
    keywords, positions = defaultdict(set), defaultdict(int)
    for folder in (SRC, os.path.join(ROOT, "demos"), os.path.join(ROOT, "tests")):
        for name in os.listdir(folder):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(folder, name)) as fh:
                tree = ast.parse(fh.read())
            for call in ast.walk(tree):
                if isinstance(call, ast.Call):
                    callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                    keywords[callee].update(k.arg for k in call.keywords)
                    positions[callee] = max(positions[callee], len(call.args))
    unpassed = [f"{mod}.{fn.name}({param})"
                for mod, tree in _modules().items() for fn, bound in _functions(tree)
                for param, i in _defaulted(fn, bound)
                if param not in keywords[fn.name] and (i is None or positions[fn.name] <= i)]
    assert unpassed == [], f"defaulted parameters no call passes: {sorted(unpassed)}"


def test_each_predicate_is_raised_at_one_site():
    # "<predicate> fails" names a hypothesis check; each has one raise site
    sites = Counter()
    for mod, tree in _modules().items():
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.Raise):
                sites.update({name for sub in ast.walk(stmt)
                              if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                              for name in re.findall(r"(\w+) fails", sub.value)})
    assert sites, "no predicate raise sites found"
    repeated = sorted(name for name, count in sites.items() if count > 1)
    assert repeated == [], f"predicates raised at more than one site: {repeated}"


def test_package_errors_are_caught_only_in_main_and_the_forward_solve():
    # a check, build or solve that fails raises up to main: no layer in
    # between turns a package error into a value
    modules = _modules()
    errors = {stmt.name for tree in modules.values() for stmt in tree.body
              if isinstance(stmt, ast.ClassDef) and stmt.name.endswith("Error")}
    assert errors, "no package error classes found"
    sites = set()
    for mod, tree in modules.items():
        for stmt in tree.body:
            for handler in ast.walk(stmt):
                if (isinstance(handler, ast.ExceptHandler) and handler.type is not None
                        and errors & set(_names(handler.type))):
                    sites.add((mod, getattr(stmt, "name", None)))
    assert sites <= CATCH_SITES, f"package errors caught at: {sorted(sites - CATCH_SITES)}"
    assert sites == CATCH_SITES, f"the catch sites moved: {sorted(CATCH_SITES - sites)}"


def test_every_imported_name_is_read_in_its_module():
    # __init__ imports to re-export; every other module reads each name it
    # imports, so an import without a use fails here
    unread = []
    for mod, tree in _modules().items():
        if mod == "__init__":
            continue
        read = {sub.id for sub in ast.walk(tree)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        for stmt in ast.walk(tree):
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unread.append(f"{mod}: {bound}")
    assert unread == [], f"imported but never read: {unread}"


def test_the_spans_allowlist_names_package_functions():
    defined = {name for tree in _modules().values()
               for _, name in _top_level(tree) if name is not None}
    assert SPANS_BOUND <= defined


def test_scipy_is_named_only_by_the_newton_fallback():
    sites = set()
    for mod, tree in _modules().items():
        for stmt, name in _top_level(tree):
            modules = [n for n in _names(stmt) if n == "scipy" or n.startswith("scipy.")]
            modules += [sub.module for sub in ast.walk(stmt)
                        if isinstance(sub, ast.ImportFrom) and sub.module
                        and sub.module.split(".")[0] == "scipy"]
            if modules:
                sites.add((mod, name))
    assert sites <= SCIPY_SITES, f"scipy outside the Newton fallback: {sorted(sites - SCIPY_SITES)}"
    assert sites, "the Newton fallback no longer names scipy: update SCIPY_SITES"


def test_no_module_forms_an_explicit_inverse():
    # np.linalg.inv, numpy.linalg.inv or an inv imported from numpy.linalg
    sites = []
    for mod, tree in _modules().items():
        for sub in ast.walk(tree):
            if (isinstance(sub, ast.Attribute) and sub.attr == "inv"
                    and isinstance(sub.value, ast.Attribute) and sub.value.attr == "linalg"):
                sites.append(f"{mod}:{sub.lineno}")
            elif (isinstance(sub, ast.ImportFrom) and (sub.module or "").endswith("linalg")
                    and any(alias.name == "inv" for alias in sub.names)):
                sites.append(f"{mod}:{sub.lineno}")
    assert sites == [], f"np.linalg.inv in src: {sites}"


def test_import_builds_no_arrays():
    # a table formed at import is paid by every interpreter that imports
    # the package, used or not: after `import dnprobe.cli`, no global of a
    # dnprobe module is an array, nor holds one in a dict, list or tuple
    code = """if True:
        import sys
        import numpy as np
        import dnprobe.cli
        for name, mod in sorted(sys.modules.items()):
            if name.split(".")[0] != "dnprobe":
                continue
            for key, value in vars(mod).items():
                held = list(value.values()) if isinstance(value, dict) else value
                held = held if isinstance(held, (list, tuple)) else []
                if any(isinstance(v, np.ndarray) for v in [value, *held]):
                    print(f"{name}.{key}")
        """
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []


# modules a command pays for in memory and start-up without needing them:
# the dictionary draws its own stream, the config hash is zlib's, and a
# law constant in s needs no sparse Jacobian
UNNEEDED_MODULES = ("numpy.random", "hashlib", "_hashlib", "secrets", "scipy")


def test_commands_load_no_unneeded_module(tmp_path):
    # in a fresh interpreter, since pytest and hypothesis load hashlib
    # themselves: every subcommand of a small 2D config whose laws are
    # constant in s, and probe-rho on a small 3D one
    from test_cli import GAMMA_CFG, RHO3D_SMALL
    argv = []
    for name, text, commands in (
            ("gamma", GAMMA_CFG, ["forward", "linearize-check", "probe-gamma", "stability"]),
            ("rho", RHO3D_SMALL, ["probe-rho"])):
        path = tmp_path / f"{name}.ini"
        path.write_text(text.format(out=tmp_path / "out"))
        argv += [[command, "-c", str(path)] for command in commands]
    code = f"""if True:
        import sys
        from dnprobe.cli import main
        codes = [main(argv) for argv in {argv!r}]
        loaded = [m for m in {UNNEEDED_MODULES!r} if m in sys.modules]
        print("exits", *codes, "loaded", *loaded)
        """
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "exits 0 0 0 0 0 loaded"


def test_every_config_key_is_read_outside_the_schema_tables():
    # a key of _DEFAULTS that nothing reads is an option accepted and
    # ignored; a read is parse(section, key, ...), raw[section][key], or
    # x[key] or f(x, key) with x = raw[section].  _DEFAULTS and _CHOICES
    # name every key, so they are not readers
    with open(os.path.join(SRC, "config.py")) as fh:
        tree = ast.parse(fh.read())
    tables = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
            tables[stmt.targets[0].id] = stmt
    schema = ast.literal_eval(tables["_DEFAULTS"].value)
    code = [stmt for stmt in tree.body
            if stmt not in (tables["_DEFAULTS"], tables["_CHOICES"])]

    def text(node):
        is_text = isinstance(node, ast.Constant) and isinstance(node.value, str)
        return node.value if is_text else None

    def section(node):
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "raw":
            return text(node.slice)
        return aliases.get(getattr(node, "id", None))

    nodes, aliases, read = [sub for top in code for sub in ast.walk(top)], {}, set()
    for node in nodes:
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and section(node.value)):
            aliases[node.targets[0].id] = section(node.value)
    for node in nodes:
        if isinstance(node, ast.Subscript):
            read.add((section(node.value), text(node.slice)))
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            first = text(node.args[0]) or section(node.args[0])
            read.add((first, text(node.args[1])))
    unread = sorted(f"[{s}] {k}" for s, keys in schema.items() for k in keys
                    if (s, k) not in read)
    assert unread == [], f"config keys accepted but never read: {unread}"


def test_every_config_attribute_is_read_outside_its_assignment():
    # a key read into an attribute that nothing reads is an option accepted
    # and ignored, as an unread key is; a read is cfg.name anywhere in the
    # package, or self.name in config.py
    modules = _modules()
    [cls] = [stmt for stmt in modules["config"].body
             if isinstance(stmt, ast.ClassDef) and stmt.name == "ExperimentConfig"]
    [init] = [fn for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"]

    def owner(node):
        return getattr(node.value, "id", None)

    assigned = {node.attr for node in ast.walk(init) if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store) and owner(node) == "self"}
    assert assigned, "ExperimentConfig.__init__ sets no attributes"
    read = {node.attr for mod, tree in modules.items() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and (owner(node) == "cfg" or (mod == "config" and owner(node) == "self"))}
    unread = sorted(assigned - read)
    assert unread == [], f"config attributes set but never read: {unread}"
