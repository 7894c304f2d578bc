"""Every value a caller can set is listed here on purpose.

A settable value is a defaulted parameter or a dataclass field with a
default. A value that only tests set is a module constant instead, so a new
option fails this test until it is added to ``SETTABLE`` deliberately.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sfmlab"

SETTABLE = {
    "cli.main(argv=)",
    "errors.SingularConfigurationError.__init__(point_index=)",
    "errors.SingularConfigurationError.__init__(camera_index=)",
    "io.dumps(indent=)",
    "io._number(integral=)",
    "sfm.JetScene.omega",
    "sfm.jet_position(omega=)",
    "sfm.numerical_rank(rel_tol=)",
    "sfm.generic_rank(trials=)",
    "sfm.generic_rank(seed=)",
    "sfm.generic_rank(rel_tol=)",
}


def _settable(body, prefix: str, dataclass: bool = False):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            yield from (f"{prefix}{node.name}({a.arg}=)" for a in defaulted)
            yield from _settable(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            is_dataclass = any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            yield from _settable(node.body, f"{prefix}{node.name}.", is_dataclass)
        elif (dataclass and isinstance(node, ast.AnnAssign) and node.value is not None
              and "ClassVar" not in ast.unparse(node.annotation)):
            yield f"{prefix}{node.target.id}"
        else:  # definitions nested in other statements
            yield from _settable(ast.iter_child_nodes(node), prefix)


def settable_values(src: Path = SRC) -> list[str]:
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += _settable(tree.body, f"{path.stem}.")
    return found


def test_settable_values_are_the_listed_ones():
    found = settable_values()
    assert set(found) == SETTABLE
    assert len(found) == len(SETTABLE) == 11
