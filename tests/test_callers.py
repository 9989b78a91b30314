"""Every symbol that src/jrom defines has a caller.

A module-level function, class or assignment, or a method that is not a
dunder, whose name occurs nowhere in src/, tests/ or perfbench/ outside its
own definition is code nothing runs, so it fails this test.
"""

import ast
import os
import re
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src", "jrom")
SEARCHED = ("src", "tests", "perfbench")
WORD = re.compile(r"\w+")


def _python_files():
    for top in SEARCHED:
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def _definitions(tree):
    """(name, defining node) of each symbol the module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def test_no_symbol_without_a_caller():
    words = Counter()           # every whole word of the searched files
    sources = []
    for path in _python_files():
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        words.update(WORD.findall(text))
        if os.path.dirname(path) == SOURCE:
            sources.append((path, text))
    orphans = []
    for path, text in sources:
        lines = text.splitlines()
        for name, node in _definitions(ast.parse(text, path)):
            if name.startswith("__") and name.endswith("__"):
                continue
            own = WORD.findall("\n".join(lines[node.lineno - 1:
                                                node.end_lineno]))
            if words[name] == own.count(name):
                orphans.append("%s:%d %s" % (os.path.relpath(path, ROOT),
                                             node.lineno, name))
    assert not orphans, orphans
