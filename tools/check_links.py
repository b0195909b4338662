#!/usr/bin/env python3
"""Markdown link checker for the repository docs.

Validates every relative link and image reference in the given markdown
files: the target file must exist, and a ``#fragment`` pointing into a
markdown file must match one of that file's headings (GitHub anchor
rules: lowercase, spaces to dashes, punctuation stripped).  External
links (``http``/``https``/``mailto``) are skipped — CI must not depend
on network reachability.

It checks markdown files only: file names cited in code comments or
docstrings (``.py`` files) are not checked.

Usage::

    python tools/check_links.py README.md docs/*.md

Exits 1 and lists every broken link if any check fails, 0 otherwise.
No third-party dependencies.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

# [text](target) and ![alt](target); stop at the first unescaped ')'.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
_SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")


def github_anchor(heading: str) -> str:
    """Translate a heading to its GitHub auto-generated anchor id."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_anchors(markdown_path: Path) -> set[str]:
    """All anchor ids defined by a markdown file's headings."""
    text = _FENCE_RE.sub("", markdown_path.read_text(encoding="utf-8"))
    return {github_anchor(match) for match in _HEADING_RE.findall(text)}


def check_file(markdown_path: Path, repo_root: Path) -> list[str]:
    """Return a list of broken-link descriptions for one markdown file."""
    problems: list[str] = []
    text = _FENCE_RE.sub("", markdown_path.read_text(encoding="utf-8"))
    for target in _LINK_RE.findall(text):
        if target.startswith(_SKIP_SCHEMES):
            continue
        path_part, _, fragment = target.partition("#")
        if not path_part:  # same-file anchor like (#layout)
            resolved = markdown_path
        else:
            resolved = (markdown_path.parent / path_part).resolve()
            if repo_root not in resolved.parents and resolved != repo_root:
                problems.append(f"{markdown_path}: link escapes repo: {target}")
                continue
            if not resolved.exists():
                problems.append(f"{markdown_path}: missing target: {target}")
                continue
        if fragment and resolved.suffix.lower() in (".md", ".markdown"):
            if fragment.lower() not in heading_anchors(resolved):
                problems.append(f"{markdown_path}: missing anchor: {target}")
    return problems


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: check_links.py FILE.md [FILE.md ...]", file=sys.stderr)
        return 2
    repo_root = Path(__file__).resolve().parent.parent
    problems: list[str] = []
    for name in argv:
        path = Path(name)
        if not path.exists():
            problems.append(f"{name}: file not found")
            continue
        problems.extend(check_file(path.resolve(), repo_root))
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} broken link(s)", file=sys.stderr)
        return 1
    print(f"checked {len(argv)} file(s): all links ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
