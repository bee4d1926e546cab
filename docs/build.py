#!/usr/bin/env python
"""Offline docs builder: reStructuredText + introspected API reference.

Usage::

    PYTHONPATH=src python docs/build.py [--out docs/_build]

Renders every ``docs/source/*.rst`` page to HTML with docutils and
generates an API reference page straight from the package's docstrings
(signatures via :mod:`inspect`), so the reference can never drift from
the code.  The build is **fully offline** — no network, no external
theme — and **warnings are errors**: any docutils warning (unknown
directive, bad reference, malformed table) aborts with a non-zero exit,
which is what the CI docs job enforces.

Why not Sphinx?  The repository's only runtime dependency is numpy, and
the docs build is kept runnable in the same minimal environment plus
``docutils`` + ``jinja2`` (both far smaller than a Sphinx toolchain).
The source pages are plain docutils reStructuredText, so migrating to
Sphinx later is a rename, not a rewrite.
"""

from __future__ import annotations

import argparse
import html
import inspect
import io
import sys
from pathlib import Path

DOCS_DIR = Path(__file__).resolve().parent
SOURCE_DIR = DOCS_DIR / "source"
REPO_ROOT = DOCS_DIR.parent

sys.path.insert(0, str(REPO_ROOT / "src"))

PAGE_TEMPLATE = """\
<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{{ title }} — repro docs</title>
<style>
  body { font-family: system-ui, sans-serif; max-width: 60rem; margin: 0 auto;
         padding: 0 1.5rem 4rem; line-height: 1.55; color: #1a1a1a; }
  nav { border-bottom: 1px solid #ddd; padding: 0.75rem 0; margin-bottom: 1.5rem; }
  nav a { margin-right: 1.1rem; text-decoration: none; color: #0b5394; }
  nav a.current { font-weight: 700; color: #1a1a1a; }
  pre { background: #f6f8fa; padding: 0.8rem 1rem; overflow-x: auto;
        border-radius: 6px; font-size: 0.92em; }
  code, tt { background: #f6f8fa; padding: 0.1em 0.3em; border-radius: 4px;
             font-size: 0.95em; }
  pre code, pre tt { background: none; padding: 0; }
  table { border-collapse: collapse; }
  td, th { border: 1px solid #ccc; padding: 0.3rem 0.7rem; }
  h1, h2, h3 { line-height: 1.25; }
  .api-symbol { border: 1px solid #e2e2e2; border-radius: 6px;
                padding: 0.3rem 1rem 0.8rem; margin: 1.2rem 0; }
  .api-symbol h3 { margin-bottom: 0.3rem; font-family: ui-monospace, monospace;
                   font-size: 1.0em; }
  .api-kind { color: #777; font-size: 0.85em; margin-left: 0.5rem;
              font-family: system-ui, sans-serif; font-weight: 400; }
  .docstring { white-space: pre-wrap; font-family: ui-monospace, monospace;
               font-size: 0.88em; background: #fbfbfb; padding: 0.6rem 0.8rem;
               border-left: 3px solid #0b5394; }
</style>
</head>
<body>
<nav>
{% for name, target, label in nav_items %}\
<a href="{{ target }}"{% if name == current %} class="current"{% endif %}>{{ label }}</a>
{% endfor %}\
</nav>
{{ body }}
</body>
</html>
"""

#: (page key, output file, nav label).  Page keys match source/<key>.rst
#: except ``api``, which is generated by introspection.
PAGES = [
    ("index", "index.html", "Overview"),
    ("architecture", "architecture.html", "Architecture"),
    ("engines", "engines.html", "Engines & replication"),
    ("serving", "serving.html", "Serving"),
    ("scaling-out", "scaling-out.html", "Scaling out"),
    ("fault-tolerance", "fault-tolerance.html", "Fault tolerance"),
    ("dynamic-populations", "dynamic-populations.html", "Dynamic populations"),
    ("privacy-accounting", "privacy-accounting.html", "Privacy accounting"),
    ("utility", "utility.html", "Utility & pMSE"),
    ("checkpoint-format", "checkpoint-format.html", "Checkpoint format"),
    ("api", "api.html", "API reference"),
]


def rst_to_html(text: str, source_path: str) -> str:
    """Render one RST document body to HTML; any warning is fatal."""
    from docutils.core import publish_parts
    from docutils.utils import SystemMessage

    warning_stream = io.StringIO()
    try:
        parts = publish_parts(
            source=text,
            source_path=source_path,
            writer_name="html5",
            settings_overrides={
                # halt_level=2 turns every WARNING (level 2) and above
                # into a fatal SystemMessage: warnings are errors.
                "halt_level": 2,
                "report_level": 1,
                "warning_stream": warning_stream,
                "embed_stylesheet": False,
                "stylesheet_path": "",
            },
        )
    except SystemMessage as exc:
        print(warning_stream.getvalue(), file=sys.stderr)
        raise SystemExit(f"docs build failed (warnings are errors): {source_path}: {exc}")
    logged = warning_stream.getvalue().strip()
    if logged:
        raise SystemExit(
            f"docs build failed (warnings are errors): {source_path}:\n{logged}"
        )
    # docutils promotes a lone top-level title out of the body; put it back.
    title = parts.get("title") or ""
    heading = f"<h1>{title}</h1>\n" if title else ""
    return heading + parts["body"]


def _symbol_kind(obj) -> str:
    if inspect.isclass(obj):
        return "class"
    if inspect.isfunction(obj) or inspect.isbuiltin(obj):
        return "function"
    if callable(obj):
        return "callable"
    return type(obj).__name__


def _signature(name: str, obj) -> str:
    try:
        return f"{name}{inspect.signature(obj)}"
    except (TypeError, ValueError):
        return name


def _api_entry(name: str, obj) -> str:
    kind = _symbol_kind(obj)
    doc = inspect.getdoc(obj) or "(no docstring)"
    parts = [
        '<div class="api-symbol">',
        f"<h3>{html.escape(_signature(name, obj))}"
        f'<span class="api-kind">{html.escape(kind)}</span></h3>',
        f'<div class="docstring">{html.escape(doc)}</div>',
    ]
    if inspect.isclass(obj):
        # Walk the full MRO below ``object`` so inherited public API
        # (e.g. StreamCounter.feed on every counter) is documented too;
        # the most-derived definition wins.
        members: dict[str, object] = {}
        for klass in reversed(obj.__mro__[:-1]):  # exclude object
            for member_name, member in vars(klass).items():
                if not member_name.startswith("_"):
                    members[member_name] = member
        for method_name, method in sorted(members.items()):
            target = method
            if isinstance(method, (classmethod, staticmethod)):
                # Use the bound form so classmethod signatures don't leak
                # the cls parameter into the documented call shape.
                target = getattr(obj, method_name)
            elif isinstance(method, property):
                method_doc = inspect.getdoc(method) or "(no docstring)"
                parts.append(
                    f"<h4><code>{html.escape(method_name)}</code>"
                    '<span class="api-kind">property</span></h4>'
                    f'<div class="docstring">{html.escape(method_doc)}</div>'
                )
                continue
            if not callable(target):
                continue
            method_doc = inspect.getdoc(target) or "(no docstring)"
            parts.append(
                f"<h4><code>{html.escape(_signature(method_name, target))}</code></h4>"
                f'<div class="docstring">{html.escape(method_doc)}</div>'
            )
    parts.append("</div>")
    return "\n".join(parts)


def build_api_page() -> str:
    """The API reference: the hand-written protocol guide
    (``source/api.rst``) followed by a reference generated from the live
    public surface."""
    import repro
    import repro.serve
    import repro.streams.registry
    import repro.types

    sections = [
        (
            "repro — top-level exports",
            repro,
            [n for n in repro.__all__ if n != "__version__"],
        ),
        (
            "repro.types — protocols & value types",
            repro.types,
            [n for n in repro.types.__all__ if n not in repro.__all__],
        ),
        ("repro.serve — online serving", repro.serve, list(repro.serve.__all__)),
        (
            "repro.streams.registry — counter & bank registries",
            repro.streams.registry,
            list(repro.streams.registry.__all__),
        ),
    ]
    guide_source = SOURCE_DIR / "api.rst"
    chunks = [
        "<h1>API reference</h1>",
        rst_to_html(guide_source.read_text(), str(guide_source)),
    ]
    for title, module, names in sections:
        chunks.append(f"<h2>{html.escape(title)}</h2>")
        module_doc = inspect.getdoc(module)
        if module_doc:
            chunks.append(f'<div class="docstring">{html.escape(module_doc)}</div>')
        for name in names:
            chunks.append(_api_entry(name, getattr(module, name)))
    return "\n".join(chunks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(DOCS_DIR / "_build"))
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    from jinja2 import Environment

    template = Environment(autoescape=False).from_string(PAGE_TEMPLATE)

    for key, target, label in PAGES:
        if key == "api":
            body = build_api_page()
        else:
            source = SOURCE_DIR / f"{key}.rst"
            body = rst_to_html(source.read_text(), str(source))
        rendered = template.render(
            title=label, body=body, nav_items=PAGES, current=key
        )
        (out_dir / target).write_text(rendered)
        print(f"built {out_dir / target}")
    print(f"docs build OK: {len(PAGES)} pages, warnings treated as errors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
