import ast
from pathlib import Path

import pstlab


def _imported_public_names():
    """The public names that pstlab/__init__.py imports from its modules."""
    tree = ast.parse(Path(pstlab.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names if not (alias.asname or alias.name).startswith("_")
    }


def test_all_matches_the_imports():
    # a stale entry breaks `from pstlab import *` but not `import pstlab`
    assert len(pstlab.__all__) == len(set(pstlab.__all__))
    assert set(pstlab.__all__) == _imported_public_names()
    namespace = {}
    exec("from pstlab import *", namespace)
    assert set(pstlab.__all__) <= namespace.keys()
