"""The docs name only live code: every dotted ``repro.…`` reference in
the prose documents imports as a module or resolves as an attribute."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: the documents checked (``benchmarks/e2e/README.md`` sits with the
#: frozen benchmark and is left out)
DOCS = sorted((ROOT / "docs").glob("*.md")) + [
    ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
]

DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")


def resolves(reference):
    """Import the longest module prefix of ``reference``, then look the
    rest up as attributes."""
    parts = reference.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def references(text):
    """``(line, reference)`` for every dotted ``repro.…`` name."""
    return [(number, match.group(0))
            for number, line in enumerate(text.splitlines(), 1)
            for match in DOTTED.finditer(line)]


def test_every_dotted_reference_resolves():
    dead = [f"{doc.relative_to(ROOT)}:{number}: {reference}"
            for doc in DOCS
            for number, reference in references(doc.read_text())
            if not resolves(reference)]
    assert dead == []


def test_a_dead_reference_is_caught():
    found = references("see `repro.lint.plan.analyze_graph`, not "
                       "`repro.query.Query` or repro.lint.plan.gone.")
    assert [ref for _, ref in found if not resolves(ref)] == [
        "repro.query.Query", "repro.lint.plan.gone",
    ]
