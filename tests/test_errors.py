import ast
import inspect
from pathlib import Path

import newsflow
from newsflow import errors


def _raised_names(tree):
    """Names of the classes that `raise` statements of a module instantiate or re-raise."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def test_every_error_class_is_raised_by_the_package():
    # a class whose last raise is deleted goes with it; the two bases are only caught
    package = Path(newsflow.__file__).parent
    raised = set()
    for path in package.rglob("*.py"):
        raised.update(_raised_names(ast.parse(path.read_text(encoding="utf-8"))))
    classes = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.NewsflowError) and cls.__module__ == errors.__name__}
    assert classes - raised == {"NewsflowError", "NumericalError"}
