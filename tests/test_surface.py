"""The public surface of src/onsk is what the `onsk` command reaches.

The walk starts from cli.main, from everything that runs when a module is
imported (module and class statements, decorators, default values) and
from the allowed names.  A reached body reaches every module function,
class and method whose name it uses as a Name or an Attribute, whatever
the object it is read from; a reached class also reaches its dunders.
This over-approximates reach, so live code is never flagged.  A public
function, class or non-dunder method that the walk does not reach must be
named in ALLOWED with its reason.
"""

import ast
import shutil
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "onsk"

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

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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
