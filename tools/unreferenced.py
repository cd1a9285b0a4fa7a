"""List the names a package's __init__.py exports that no other module of
the package references: candidates for deletion, used only by tests or
outside callers.  A name is referenced where it is read (a name or an
attribute) or imported in any module but __init__.py; its own def or
class statement is not a reference.  A name that the benchmark directory
mentions (as a name, an attribute, an import or a part of a dotted string)
is marked, since the benchmark may reach it by name.

    python tools/unreferenced.py [package directory, default src/polycheck]
                                 [benchmark directory, default perfbench]

prints one line per name, ``*`` after the names the benchmark mentions,
and the count.  Standard library only.
"""

import ast
import sys
from pathlib import Path


def exported(init_source):
    """The names __init__.py imports from its package's modules."""
    names = []
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.ImportFrom) and node.level:
            names.extend(alias.asname or alias.name for alias in node.names)
    return names


def identifiers(source, strings):
    """Every identifier source reads or imports, and where strings is true
    every part of a dotted string too."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(node.value.split("."))
    return found


def main(argv):
    package = Path(argv[1] if len(argv) > 1 else "src/polycheck")
    bench = Path(argv[2] if len(argv) > 2 else "perfbench")
    used = set()
    for path in sorted(package.rglob("*.py")):
        if path.name != "__init__.py":
            used |= identifiers(path.read_text(encoding="utf-8"), strings=False)
    in_bench = set()
    for path in sorted(bench.rglob("*.py")):
        in_bench |= identifiers(path.read_text(encoding="utf-8"), strings=True)
    names = [n for n in exported((package / "__init__.py").read_text(encoding="utf-8"))
             if n not in used]
    for name in names:
        print(f"{name}{' *' if name in in_bench else ''}")
    print(f"{len(names)} of the exported names are referenced by no other module"
          f" (* mentioned under {bench})")


if __name__ == "__main__":
    main(sys.argv)
