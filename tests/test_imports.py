"""Module coupling pinned by parsing the source.

The closed formulas in `formulas.py` must not import the face-scan or
homology oracles that check them, only `polynomials.py` may touch a
polynomial's integer numerators and common denominator, no module imports
a name it never reads but the benchmark tracer's shims, and none imports
`dataclasses`.  These tests read each module with `ast`, so they hold
without importing anything.  One more starts a fresh interpreter and pins
what importing the CLI loads: start-up is most of a short command's time.
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cutcx"


def imported_modules(module: str) -> set[str]:
    """Last dotted component of every cutcx module that `module` imports."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {a.name.rpartition(".")[2] for a in node.names if a.name.startswith("cutcx")}
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("cutcx"):
                continue
            if node.module and node.module != "cutcx":
                names.add(node.module.rpartition(".")[2])
            else:  # from . import x / from cutcx import x
                names |= {a.name for a in node.names}
    return names


def test_formulas_imports_no_oracle():
    assert imported_modules("formulas") & {"complexes", "homology"} == set()


def test_reader_sees_relative_imports():
    assert {"complements", "polynomials"} <= imported_modules("formulas")


def test_only_polynomials_scales_to_a_common_denominator():
    # Polynomial decides how to evaluate over its common denominator; no other module scales by hand.
    private = {"_numerators", "_den", "over_common_denominator"}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "polynomials.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names |= {a.name for a in node.names}
        assert names & private == set(), path.name


# Imports that no code in their module reads: bench/tracer.py patches these
# bindings by name, so each stays until the tracer stops wrapping it.
TRACER_SHIMS = {
    ("cli", "f_vector_bruteforce"),
    ("complements", "gap_connected"),
    ("complements", "is_connected_induced"),
    ("complexes", "is_bad"),
    ("verification", "is_face"),
}


def unused_imports(path: Path) -> set[str]:
    """Names that a module's import statements bind and no other line of it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_module_imports_a_name_it_never_uses():
    unused = {(path.stem, name) for path in SRC.glob("*.py") if path.name != "__init__.py" for name in unused_imports(path)}
    assert unused <= TRACER_SHIMS, sorted(unused - TRACER_SHIMS)


def test_no_module_imports_dataclasses():
    # The records are NamedTuples: dataclasses pulls in inspect, and each decorator runs exec.
    for path in sorted(SRC.glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {a.name.partition(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.partition(".")[0])
        assert "dataclasses" not in imported, path.name


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    # -S keeps site-packages' .pth hooks out, so only cutcx and the standard library load.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cutcx.cli; cutcx.cli.build_parser(); "
        "print(' '.join(sorted({'dataclasses', 'inspect'} & set(sys.modules))))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "\n"
