#!/usr/bin/env python3
"""Doc health checks: quickstart, links, API and metric-catalog coverage.

Four checks, all also enforced by the test suite (``tests/test_docs.py``):

1. **Quickstart doctest** — every fenced ````python`` block in ``README.md``
   is executed, in order, in one shared namespace (later blocks may build on
   earlier ones, exactly as a reader would type them).  Any exception fails
   the check, so the README can never drift from the actual API.
2. **Link check** — every relative Markdown link in ``README.md`` and
   ``docs/*.md`` must point at an existing file or directory inside the
   repository (anchors are stripped; ``http(s)``/``mailto`` links are
   ignored).
3. **Public-API coverage** — every name exported by
   ``repro.service.__all__`` must appear in ``docs/api.md``, so the
   reference can never silently fall behind the package's public surface.
4. **Metric-catalog accuracy** — every ``repro_…`` metric name written in
   ``docs/observability.md`` must exist in the live registries (the
   process-wide default registry plus a ``PropagationService`` instance's
   always-on registry), so the catalog can never document a metric that
   was renamed or removed.

Run with::

    PYTHONPATH=src python scripts/check_docs.py [repo_root]

Exit status 0 when everything passes, 1 otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import List, Tuple

FENCE_PATTERN = re.compile(r"```python\n(.*?)```", re.DOTALL)
# [text](target) — excluding images is unnecessary; image targets must exist too.
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
EXTERNAL_SCHEMES = ("http://", "https://", "mailto:")


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


def python_blocks(markdown_path: Path) -> List[str]:
    """All fenced ```python code blocks of a Markdown file, in order."""
    return FENCE_PATTERN.findall(markdown_path.read_text(encoding="utf-8"))


def run_quickstart(root: Path) -> List[str]:
    """Execute the README's python blocks cumulatively; return error messages."""
    readme = root / "README.md"
    if not readme.exists():
        return [f"{readme} is missing"]
    blocks = python_blocks(readme)
    if not blocks:
        return [f"{readme} contains no ```python quickstart block"]
    namespace: dict = {"__name__": "__readme__"}
    errors = []
    for index, block in enumerate(blocks, start=1):
        try:
            exec(compile(block, f"README.md:block{index}", "exec"), namespace)
        except Exception as exc:  # noqa: BLE001 - report any failure
            errors.append(f"README.md python block #{index} failed: "
                          f"{type(exc).__name__}: {exc}")
            break
    return errors


def doc_files(root: Path) -> List[Path]:
    files = [root / "README.md"]
    files.extend(sorted((root / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def broken_links(root: Path) -> List[Tuple[Path, str]]:
    """All (file, target) pairs whose relative link target does not exist."""
    broken = []
    for markdown_path in doc_files(root):
        text = markdown_path.read_text(encoding="utf-8")
        # Don't treat link-looking strings inside code fences as links.
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for target in LINK_PATTERN.findall(text):
            if target.startswith(EXTERNAL_SCHEMES) or target.startswith("#"):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = (markdown_path.parent / relative).resolve()
            if not resolved.exists():
                broken.append((markdown_path.relative_to(root), target))
    return broken


def undocumented_service_api(root: Path) -> List[str]:
    """Names in ``repro.service.__all__`` that ``docs/api.md`` never mentions."""
    api_doc = root / "docs" / "api.md"
    if not api_doc.exists():
        return ["docs/api.md is missing"]
    source = str(root / "src")
    if source not in sys.path:
        sys.path.insert(0, source)
    import repro.service as service_module

    text = api_doc.read_text(encoding="utf-8")
    return [f"repro.service.{name} is not documented in docs/api.md"
            for name in service_module.__all__ if name not in text]


METRIC_NAME_PATTERN = re.compile(r"`(repro_[a-z0-9_]+)`")


def unknown_catalog_metrics(root: Path) -> List[str]:
    """Metric names in ``docs/observability.md`` missing from the registries."""
    obs_doc = root / "docs" / "observability.md"
    if not obs_doc.exists():
        return ["docs/observability.md is missing"]
    source = str(root / "src")
    if source not in sys.path:
        sys.path.insert(0, source)
    # Importing the packages registers every module-level metric on the
    # default registry; the service's always-on registry needs an instance.
    import repro.engine  # noqa: F401
    from repro.obs import iter_registries
    from repro.service import PropagationService

    service = PropagationService()
    known = set()
    for registry in iter_registries(service.registry):
        known.update(registry.names())
    documented = set(METRIC_NAME_PATTERN.findall(
        obs_doc.read_text(encoding="utf-8")))
    return [f"docs/observability.md names metric {name!r}, which no "
            f"registry defines"
            for name in sorted(documented - known)]


def main(argv: List[str] | None = None) -> int:
    arguments = list(sys.argv[1:]) if argv is None else list(argv)
    root = Path(arguments[0]).resolve() if arguments else repo_root()
    failures = 0
    errors = run_quickstart(root)
    if errors:
        failures += len(errors)
        for error in errors:
            print(f"FAIL {error}")
    else:
        print("ok   README quickstart blocks run cleanly")
    dangling = broken_links(root)
    if dangling:
        failures += len(dangling)
        for markdown_path, target in dangling:
            print(f"FAIL broken link in {markdown_path}: ({target})")
    else:
        print("ok   all intra-repo doc links resolve")
    missing = undocumented_service_api(root)
    if missing:
        failures += len(missing)
        for message in missing:
            print(f"FAIL {message}")
    else:
        print("ok   every repro.service public name is documented in "
              "docs/api.md")
    unknown = unknown_catalog_metrics(root)
    if unknown:
        failures += len(unknown)
        for message in unknown:
            print(f"FAIL {message}")
    else:
        print("ok   every metric in docs/observability.md exists in the "
              "registries")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
