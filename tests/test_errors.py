"""The package's exception types: each one is raised somewhere in it."""

import inspect
import pathlib
import re

from coupledq import errors


def test_every_error_class_has_a_raise_site():
    source = "\n".join(p.read_text() for p in
                       sorted(pathlib.Path(errors.__file__).parent.glob("*.py")))
    classes = [c.__name__ for _, c in inspect.getmembers(errors, inspect.isclass)
               if issubclass(c, errors.CoupledQError) and c is not errors.CoupledQError]
    assert classes
    assert [name for name in classes
            if not re.search(rf"\braise\s+{name}\b", source)] == []
