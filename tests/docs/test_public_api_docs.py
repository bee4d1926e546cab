"""Docstring audit: the public surface stays fully documented.

Enforces the documentation contract on every symbol re-exported from
``repro`` (top level), ``repro.serve``, and ``repro.streams.registry``:

* a substantive docstring exists;
* callables that take parameters document them — a ``Parameters``
  section on the symbol itself, on a base class, or (for dataclasses)
  an ``Attributes`` section describing the fields;
* public methods and properties of exported classes have docstrings.

This is what keeps the generated API reference (``docs/build.py``)
complete: the page renders docstrings verbatim, so an undocumented
symbol would ship an empty reference entry.
"""

import dataclasses
import inspect

import pytest

import repro
import repro.serve
import repro.streams.registry


def _public_symbols():
    surfaces = [
        (repro, [n for n in repro.__all__ if n != "__version__"]),
        (repro.serve, list(repro.serve.__all__)),
        (
            repro.streams.registry,
            list(repro.streams.registry.__all__),
        ),
    ]
    for module, names in surfaces:
        for name in names:
            yield f"{module.__name__}.{name}", getattr(module, name)


SYMBOLS = sorted(_public_symbols())


def _parameters(obj):
    try:
        signature = inspect.signature(obj)
    except (TypeError, ValueError):
        return []
    return [p for p in signature.parameters.values() if p.name not in ("self", "cls")]


def _documents_parameters(obj) -> bool:
    docs = [inspect.getdoc(obj) or ""]
    if inspect.isclass(obj):
        docs += [c.__doc__ or "" for c in obj.__mro__[1:] if c is not object]
        docs.append(inspect.getdoc(obj.__init__) or "")
        if dataclasses.is_dataclass(obj):
            # NumPy style documents dataclass fields under "Attributes".
            return any("Parameters" in d or "Attributes" in d for d in docs)
    return any("Parameters" in d for d in docs)


@pytest.mark.parametrize("qualname,obj", SYMBOLS, ids=[q for q, _ in SYMBOLS])
def test_symbol_has_substantive_docstring(qualname, obj):
    if not callable(obj):
        pytest.skip("not a callable symbol")
    doc = inspect.getdoc(obj) or ""
    assert len(doc) >= 30, f"{qualname} has no substantive docstring"


@pytest.mark.parametrize("qualname,obj", SYMBOLS, ids=[q for q, _ in SYMBOLS])
def test_callable_parameters_are_documented(qualname, obj):
    if not callable(obj):
        pytest.skip("not a callable symbol")
    if getattr(obj, "_is_protocol", False):
        # typing.Protocol classes are not instantiable; their apparent
        # (*args, **kwargs) constructor is typing machinery, not API.
        pytest.skip("protocol class — no constructor to document")
    if not _parameters(obj):
        pytest.skip("takes no parameters")
    assert _documents_parameters(obj), (
        f"{qualname} takes parameters but documents none "
        "(no Parameters section on the symbol, a base class, or __init__)"
    )


@pytest.mark.parametrize("qualname,obj", SYMBOLS, ids=[q for q, _ in SYMBOLS])
def test_class_members_are_documented(qualname, obj):
    if not inspect.isclass(obj):
        pytest.skip("not a class")
    undocumented = []
    for name, member in vars(obj).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            if not (inspect.getdoc(member) or ""):
                undocumented.append(name)
            continue
        target = (
            member.__func__
            if isinstance(member, (classmethod, staticmethod))
            else member
        )
        if callable(target) and not (inspect.getdoc(target) or ""):
            undocumented.append(name)
    assert not undocumented, f"{qualname} has undocumented members: {undocumented}"
