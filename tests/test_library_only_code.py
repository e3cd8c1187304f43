"""Every public top-level function and class of the package has a caller
in the package, the scripts or the benchmark, not only in tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent

# module.name -> why it stays with no caller outside tests
LIBRARY_ONLY = {
    "evaluation.cohens_kappa": "acceptance criterion 2 checks it against a brute-force oracle; "
    "evaluate cannot report it before the pinned report.json may change",
}


def _sources() -> dict[Path, list[str]]:
    return {
        path: path.read_text(encoding="utf-8").splitlines()
        for folder in ("src", "scripts", "bench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }


def _library_only_names(sources: dict[Path, list[str]]) -> list[str]:
    """module.name of each public top-level def or class of src/ynkit whose
    name appears in no line of sources outside its own definition."""
    found = []
    for path in sorted((ROOT / "src" / "ynkit").glob("*.py")):
        for node in ast.parse("\n".join(sources[path])).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            word = re.compile(rf"\b{node.name}\b")
            own = range(node.lineno - 1, node.end_lineno)
            if not any(
                word.search(line)
                for source, lines in sources.items()
                for i, line in enumerate(lines)
                if not (source == path and i in own)
            ):
                found.append(f"{path.stem}.{node.name}")
    return sorted(found)


def test_every_public_name_has_a_caller_outside_tests():
    assert _library_only_names(_sources()) == sorted(LIBRARY_ONLY)
