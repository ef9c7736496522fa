"""The error hierarchy is the public surface of every failure."""

import torsio
import torsio.errors
from torsio import TorsioError


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_is_exported_and_nothing_else():
    classes = {cls.__name__: cls for cls in [TorsioError, *_subclasses(TorsioError)]
               if cls.__module__ == "torsio.errors"}
    assert len(classes) == 28
    public = {name for name in dir(torsio.errors) if not name.startswith("_")}
    assert public == set(classes)
    for name, cls in classes.items():
        assert getattr(torsio, name) is cls
