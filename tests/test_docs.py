"""The documents that mirror one another."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_paper_is_its_header_and_the_readme():
    header = "# noncross\n\n*arXiv 2006* · `arxiv_math_0601676`\n\n"
    paper = (ROOT / "PAPER.md").read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert paper == header + readme
