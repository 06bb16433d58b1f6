from __future__ import annotations

import ast
from pathlib import Path


def test_oracles_do_not_import_the_package():
    # the oracles pin expected values only while they share no code with
    # the implementation they check
    source = Path(__file__).with_name("oracles.py").read_text(encoding="utf-8")
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported
    assert not [name for name in imported if name.split(".")[0] == "cbsbounds"], imported
