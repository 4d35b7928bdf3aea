"""Print the size of circmix's surface: source lines, exported names and
settable values.

    python3 scripts/api_surface.py

Three lines are printed:

- ``lines``: the line count of ``src/circmix/*.py``;
- ``exported``: ``len(circmix.__all__)``;
- ``settable``: the values a caller can set without passing them, i.e. the
  defaulted parameters of public functions and methods (``__init__``
  included, ``self``/``cls`` never) plus the defaulted fields of public
  dataclasses.  "Public" means a module-level name, or a method of a
  module-level class, that does not start with an underscore.  The source is
  read with ``ast``, so a dataclass's generated ``__init__`` is not counted
  twice.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _public(name: str) -> bool:
    return not name.startswith("_")


def _defaults(fn: ast.FunctionDef) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def settable_values(tree: ast.Module) -> int:
    count = 0
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and _public(node.name):
            count += _defaults(node)
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            dataclass = _is_dataclass(node)
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                        _public(item.name) or item.name == "__init__"):
                    count += _defaults(item)
                elif (dataclass and isinstance(item, ast.AnnAssign)
                      and item.value is not None):
                    count += 1
    return count


def main() -> int:
    files = sorted((SRC / "circmix").glob("*.py"))
    texts = [path.read_text() for path in files]
    sys.path.insert(0, str(SRC))
    import circmix

    print(f"lines {sum(len(text.splitlines()) for text in texts)}")
    print(f"exported {len(circmix.__all__)}")
    print(f"settable {sum(settable_values(ast.parse(text)) for text in texts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
