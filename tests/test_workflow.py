import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_workflow_names_only_existing_tests():
    # every tests/<file>.py::<name> a CI step runs is a module-level test of
    # that file: a step naming a renamed or deleted test would fail in CI
    # alone, where pytest exits 4 on the unknown node
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    named = re.findall(r"tests/(\w+\.py)::(\w+)", text)
    assert len(named) > 10
    missing = []
    for file, name in named:
        tree = ast.parse((ROOT / "tests" / file).read_text())
        if name not in {node.name for node in tree.body
                        if isinstance(node, ast.FunctionDef)}:
            missing.append(f"{file}::{name}")
    assert missing == []
