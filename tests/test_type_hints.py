"""Every annotation in the package resolves.

Modules use ``from __future__ import annotations``, so an annotation is
a string until something asks ``typing.get_type_hints`` for it — as the
compile cache's codec does for every record it stores
(``repro.cache.freeze``). A name an annotation uses but its module never
imports only shows up then, as a ``NameError``.
"""

import importlib
import inspect
import pkgutil
import typing

import repro


def _annotated():
    """``(qualified name, object)`` for every class, function, method
    and property getter each ``repro`` module defines."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{obj.__qualname__}", obj
            elif inspect.isclass(obj):
                yield f"{info.name}.{obj.__qualname__}", obj
                for name, member in vars(obj).items():
                    if isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield f"{info.name}.{obj.__qualname__}.{name}", member


def test_every_annotation_resolves():
    unresolved = []
    seen = 0
    for name, obj in _annotated():
        seen += 1
        try:
            typing.get_type_hints(obj)
        except Exception as exc:  # noqa: BLE001 - collected and reported
            unresolved.append(f"{name}: {type(exc).__name__}: {exc}")
    assert seen > 1000
    assert not unresolved, "\n".join(unresolved)
