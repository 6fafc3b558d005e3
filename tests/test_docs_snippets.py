"""The docs are executable: every ``python`` fenced block in docs/*.md
runs top-to-bottom (blocks share one namespace per file, so later
snippets build on earlier ones), and every relative markdown link
resolves to a real file. Illustrative listings use ``text`` fences and
are skipped."""

import linecache
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted((ROOT / "docs").glob("*.md"))
LINKED_FILES = DOC_FILES + [ROOT / "README.md", ROOT / "DESIGN.md",
                            ROOT / "EXPERIMENTS.md"]

FENCE = re.compile(r"^```(\w*)\s*$")
# [text](target) — excluding images and external URLs
LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)#\s]+)(#[^)\s]*)?\)")


def _python_blocks(path: Path):
    """(start_line, code) for each ```python block in a markdown file."""
    blocks, lang, buf, start = [], None, [], 0
    for i, line in enumerate(path.read_text().splitlines(), 1):
        m = FENCE.match(line)
        if m and lang is None:
            lang, buf, start = m.group(1), [], i + 1
        elif m:
            if lang == "python":
                blocks.append((start, "\n".join(buf)))
            lang = None
        elif lang is not None:
            buf.append(line)
    return blocks


def test_docs_exist_and_have_snippets():
    names = {p.name for p in DOC_FILES}
    assert {"ARCHITECTURE.md", "DSL.md", "COMPILE_CACHE.md"} <= names
    for required in ("ARCHITECTURE.md", "DSL.md", "COMPILE_CACHE.md"):
        assert _python_blocks(ROOT / "docs" / required), (
            f"docs/{required} has no runnable python blocks"
        )


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_docs_snippets_execute(path):
    ns = {"__name__": f"docs_snippet_{path.stem}"}
    for start, code in _python_blocks(path):
        fname = f"{path.name}:{start}"
        # the DSL frontend reads neuron-class *source* via inspect;
        # registering the snippet in linecache makes that work for
        # exec'd code
        linecache.cache[fname] = (len(code), None,
                                  code.splitlines(True), fname)
        try:
            exec(compile(code, fname, "exec"), ns)
        except Exception as e:
            pytest.fail(f"{path.name} snippet at line {start} failed: "
                        f"{type(e).__name__}: {e}")


@pytest.mark.parametrize("path", LINKED_FILES, ids=lambda p: p.name)
def test_markdown_links_resolve(path):
    if not path.exists():
        pytest.skip(f"{path.name} not present")
    broken = []
    for m in LINK.finditer(path.read_text()):
        target = m.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if not (path.parent / target).exists():
            broken.append(target)
    assert not broken, f"{path.name} has broken links: {broken}"


def test_readme_links_docs_tree():
    """The README documentation index must link every page in docs/."""
    text = (ROOT / "README.md").read_text()
    missing = [p.name for p in DOC_FILES if f"docs/{p.name}" not in text]
    assert not missing, f"README does not link: {missing}"


def test_oracle_table_has_a_row_per_check():
    """docs/TESTING.md's oracle table has a row for every check the
    oracle reports on a conv spec that tiles (a thread count and an
    optimization level above 0 written ``N``)."""
    from repro.testing import check_spec, random_spec

    text = (ROOT / "docs" / "TESTING.md").read_text()
    rows = set(re.findall(r"^\| `([^`]+)` \|", text, re.M))
    checks = check_spec(random_spec(11)).checks
    named = {re.sub(r"(threads|level):[1-9]\d*$", r"\1:N", c) for c in checks}
    assert named <= rows, sorted(named - rows)
