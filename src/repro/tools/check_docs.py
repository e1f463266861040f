"""Fail CI when the docs reference files or modules that no longer exist.

Usage::

    python -m repro.tools.check_docs            # checks docs/*.md + README.md
    python -m repro.tools.check_docs FILE ...   # check specific markdown files

Three kinds of reference are verified:

* **relative markdown links** ``[text](target)`` — the target (anchor and
  query stripped) must exist on disk, resolved against the linking file's
  directory; external (``http://``, ``https://``, ``mailto:``) and
  pure-anchor links are skipped;
* **dotted module paths** in backticks, e.g. ```repro.datalog.sharding`` `` —
  the module must be importable, or its longest importable prefix must
  expose the trailing attribute (so ``repro.workloads.telecom.db1`` checks
  ``db1`` on ``repro.workloads.telecom``);
* **repo-relative file paths** in backticks ending in ``.py``/``.md``/
  ``.json``/``.yml`` (e.g. ``perfbench/run.py``) — the
  file must exist relative to the repo root.  Paths containing glob
  characters are checked as globs and must match at least one file.

The checker exits non-zero listing every stale reference, so renaming a
module or moving a benchmark without updating ``docs/`` breaks the build
instead of silently rotting the documentation.
"""

from __future__ import annotations

import glob
import importlib
import re
import sys
from pathlib import Path

__all__ = ["check_file", "find_repo_root", "main"]

#: ``[text](target)`` markdown links; target captured lazily to stop at the
#: first closing parenthesis (doc links here never contain nested parens).
_MD_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")

#: Backticked dotted module paths rooted at the package, optionally ending
#: in an attribute: `repro.core.naive`, `repro.workloads.telecom.db1`.
_MODULE_REF = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")

#: Backticked repo-relative file paths: `tests/datalog/test_sharding.py`,
#: `benchmarks/bench_figure5_row*.py`, `docs/architecture.md`.
_FILE_REF = re.compile(r"`([A-Za-z0-9_\-./*]+\.(?:py|md|json|yml|yaml|toml))`")

_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "#")


def _check_markdown_links(doc: Path, text: str, repo_root: Path) -> list[str]:
    problems = []
    for match in _MD_LINK.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL_PREFIXES):
            continue
        path_part = target.split("#", 1)[0].split("?", 1)[0]
        if not path_part:
            continue
        resolved = (doc.parent / path_part).resolve()
        if not resolved.exists():
            problems.append(
                f"{doc.relative_to(repo_root)}: broken link ({target})"
            )
    return problems


def _module_exists(dotted: str) -> bool:
    """True when ``dotted`` resolves to a module, or to an attribute chain
    (function, class, method, ...) on its longest importable module prefix."""
    parts = dotted.split(".")
    module = None
    consumed = 0
    for i in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:i]))
            consumed = i
            break
        except ImportError:
            continue
    if module is None:
        return False
    obj = module
    for attr in parts[consumed:]:
        try:
            obj = getattr(obj, attr)
        except AttributeError:
            return False
    return True


def _check_module_refs(doc: Path, text: str, repo_root: Path) -> list[str]:
    problems = []
    for dotted in sorted(set(_MODULE_REF.findall(text))):
        if not _module_exists(dotted):
            problems.append(
                f"{doc.relative_to(repo_root)}: stale module path `{dotted}`"
            )
    return problems


def _check_file_refs(doc: Path, text: str, repo_root: Path) -> list[str]:
    problems = []
    for ref in sorted(set(_FILE_REF.findall(text))):
        if "*" in ref or "?" in ref:
            if not glob.glob(str(repo_root / ref)):
                problems.append(
                    f"{doc.relative_to(repo_root)}: file glob `{ref}` matches nothing"
                )
        elif not (repo_root / ref).exists():
            problems.append(
                f"{doc.relative_to(repo_root)}: referenced file `{ref}` does not exist"
            )
    return problems


def check_file(doc: Path, repo_root: Path) -> list[str]:
    """All stale references of one markdown file."""
    text = doc.read_text(encoding="utf-8")
    return (
        _check_markdown_links(doc, text, repo_root)
        + _check_module_refs(doc, text, repo_root)
        + _check_file_refs(doc, text, repo_root)
    )


def find_repo_root(start: Path) -> Path:
    """The nearest ancestor containing ``pyproject.toml`` (else ``start``)."""
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return start


def main(argv: list[str] | None = None) -> int:
    """Thin CI-compatibility shim over ``python -m repro.tools.lint``.

    The checker is now the ``doc-refs`` rule (REP108) of the lint
    framework; this entry point survives so existing CI configurations and
    muscle memory keep working.  Explicit file arguments are still checked
    directly through :func:`check_file`.
    """
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        repo_root = find_repo_root(Path.cwd().resolve())
        problems: list[str] = []
        for arg in argv:
            problems.extend(check_file(Path(arg).resolve(), repo_root))
        if problems:
            print(f"check_docs: {len(problems)} stale reference(s):", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(f"check_docs: {len(argv)} file(s) OK")
        return 0
    # Imported lazily: the lint framework imports this module's check
    # functions, and the lazy import keeps the module graph acyclic.
    from repro.tools.lint.cli import main as lint_main

    return lint_main(["--rule", "doc-refs"])


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
