"""The public surface of src/onsk is what the `onsk` command reaches.

The walk starts from cli.main, from everything that runs when a module is
imported (module and class statements, decorators, default values) and
from the allowed names.  A reached body reaches every module function,
class and method whose name it uses as a Name or an Attribute, whatever
the object it is read from; a reached class also reaches its dunders.
This over-approximates reach, so live code is never flagged.  A public
function, class or non-dunder method that the walk does not reach must be
named in ALLOWED with its reason.

The options of src/onsk are the parameters it gives a default.  Each must
be passed by some call in src/onsk or perfbench: by keyword, by position,
or through *args or **kwargs.  Calls are matched to definitions by name
alone, as for reach, so the walk over-approximates what is set.  An option
that no such call sets must be named in ALLOWED_OPTIONS with its reason.
"""

import ast
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "onsk"
BENCH = ROOT / "perfbench"

_ROUTE = "paper route with no CLI suite yet; tier-1 proves it"
_BENCH = "perfbench drives or patches it by name"
_ORACLE = ("reference that tier-1 and perfbench's series workload compare "
           "boundary_contract against; no CLI suite runs it")
ALLOWED = {
    "kmatrix.solve_intertwiner": _ROUTE,
    "kmatrix.solve_intertwiner_space": _ROUTE,
    "kmatrix.build_ktr_multi": _ROUTE,
    "onsager.hamiltonian_multi": _ROUTE,
    "spectra.verify_tr_middle": _ROUTE,
    "qboson.boundary_contract_oracle": _ORACLE,
    "qboson.QBosonEngine.mulseq": _BENCH,
    "linalg.Operator.dagger": _BENCH,
    "linalg.Operator.apply": _BENCH,
}

ALLOWED_OPTIONS = {
    "onsager.CoidealSpec.variant": (
        "the paper's sign-flipped cyclic representation; tier-1 proves its "
        "routes and relations, no CLI suite runs it"),
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)


def _used_names(nodes):
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr


def _define(node, qual, defs, by_name, roots):
    """Record the function or class node as qual, with its methods; what
    runs at import time goes to roots."""
    by_name.setdefault(node.name, []).append(qual)
    roots += node.decorator_list
    if isinstance(node, ast.ClassDef):
        roots += node.bases + node.keywords
        dunders = []
        for sub in node.body:
            if not isinstance(sub, _DEFS):
                roots.append(sub)
                continue
            _define(sub, f"{qual}.{sub.name}", defs, by_name, roots)
            if sub.name.startswith("__") and sub.name.endswith("__"):
                dunders.append(f"{qual}.{sub.name}")
        defs[qual] = ((), dunders)
    else:
        roots += [d for d in node.args.defaults + node.args.kw_defaults if d is not None]
        defs[qual] = (node.body, ())


def unreached(src, allowed=ALLOWED):
    """Qualified names of the public definitions under src that no walk
    from cli.main, from import-time code or from an allowed name reaches."""
    defs = {}      # qualified name -> (body, names it reaches besides the body's)
    by_name = {}   # plain name -> qualified names
    roots = []
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, _DEFS):
                _define(stmt, f"{path.stem}.{stmt.name}", defs, by_name, roots)
            else:
                roots.append(stmt)
    reached = set()
    todo = ["cli.main", *allowed] + [q for n in _used_names(roots) for q in by_name.get(n, ())]
    while todo:
        qual = todo.pop()
        if qual in reached:
            continue
        reached.add(qual)
        body, also = defs.get(qual, ((), ()))
        todo += [q for n in _used_names(body) for q in by_name.get(n, ())]
        todo += also
    return sorted(q for q in defs if q not in reached
                  and not any(part.startswith("_") for part in q.split(".")[1:]))


def test_public_surface_is_reached_from_the_cli():
    assert unreached(SRC) == []
    # every allowed name is needed: the command alone does not reach it
    assert set(ALLOWED) <= set(unreached(SRC, allowed=()))


def test_surface_walk_flags_planted_definitions(tmp_path):
    src = tmp_path / "onsk"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    report = src / "report.py"
    report.write_text(report.read_text().replace(
        "class Report:\n",
        "class Report:\n    def planted_method(self):\n        return self.title\n\n")
        + "\n\ndef planted_function():\n    return Report()\n")
    assert unreached(src) == ["report.Report.planted_method", "report.planted_function"]
    # a reached body that reads the name, from any object, reaches the method
    cli = src / "cli.py"
    cli.write_text(cli.read_text().replace(
        "    args = build_parser().parse_args(argv)\n",
        "    args = build_parser().parse_args(argv)\n    args.planted_method\n"))
    assert unreached(src) == ["report.planted_function"]


def _options(node, qual, cls, out):
    """Record each defaulted parameter of the functions below node as
    qualified name -> (name calls use, index among the positional
    arguments a call passes, or None for keyword-only; parameter name).
    A constructor's parameters are qualified by its class, which calls
    name; cls names the class whose body node is, if any."""
    for sub in ast.iter_child_nodes(node):
        if isinstance(sub, ast.ClassDef):
            _options(sub, f"{qual}.{sub.name}", sub.name, out)
            continue
        if not isinstance(sub, _FUNCS):
            _options(sub, qual, cls, out)
            continue
        name, fqual = sub.name, f"{qual}.{sub.name}"
        if cls and name in ("__init__", "__new__"):
            name, fqual = cls, qual
        static = any(getattr(d, "id", None) == "staticmethod" for d in sub.decorator_list)
        bound = 1 if cls and not static else 0   # self or cls, which calls do not pass
        args = sub.args
        pos = args.posonlyargs + args.args
        for i in range(len(pos) - len(args.defaults), len(pos)):
            out[f"{fqual}.{pos[i].arg}"] = (name, i - bound, pos[i].arg)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                out[f"{fqual}.{arg.arg}"] = (name, None, arg.arg)
        _options(sub, fqual, None, out)


def _sets(call, index, param):
    if any(k.arg in (None, param) for k in call.keywords):
        return True
    return index is not None and (len(call.args) > index
                                  or any(isinstance(a, ast.Starred) for a in call.args))


def unset_options(src, bench, allowed=ALLOWED_OPTIONS):
    """Qualified names of the defaulted parameters under src that no call
    in src or bench passes, less the allowed ones."""
    options = {}
    for path in sorted(src.glob("*.py")):
        _options(ast.parse(path.read_text()), path.stem, None, options)
    calls = {}
    for path in sorted(src.glob("*.py")) + sorted(bench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return sorted(q for q, (name, index, param) in options.items()
                  if q not in allowed
                  and not any(_sets(c, index, param) for c in calls.get(name, ())))


def test_every_option_is_set_by_src_or_perfbench():
    assert unset_options(SRC, BENCH) == []
    # every allowed option is needed: no call sets it
    assert set(ALLOWED_OPTIONS) <= set(unset_options(SRC, BENCH, allowed=()))


def test_option_walk_flags_a_planted_option(tmp_path):
    src = tmp_path / "onsk"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    report = src / "report.py"
    text = report.read_text() + "\n\ndef f(x, flag=False):\n    return x, flag\n"
    report.write_text(text + "\n\nf(1)\n")
    assert unset_options(src, BENCH) == ["report.f.flag"]
    # a call that passes flag, by keyword or by position, sets it
    for call in ("f(1, flag=True)", "f(1, True)"):
        report.write_text(text + f"\n\nf(1)\n{call}\n")
        assert unset_options(src, BENCH) == []
