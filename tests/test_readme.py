"""README's Library example runs and gives the values its comments show."""

import ast
import re
from pathlib import Path

from kneserdiss.graphs import MAX_ADJACENCY_BYTES
from kneserdiss.kneser import MAX_GROUND_SET

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> list[str]:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library\n+```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no python block under '## Library'"
    return match.group(1).splitlines()


def commented_value(comment: str):
    """The literal a comment opens with, as in ``(4, True): ...``; else None."""
    for text in (comment, comment.split(": ", 1)[0]):
        try:
            return ast.literal_eval(text)
        except (SyntaxError, ValueError):
            pass
    return None


def test_readme_library_example():
    namespace, checked = {}, {}
    for line in library_block():
        code, _, comment = line.partition("#")
        code = code.strip()
        if not code:
            continue
        expect = commented_value(comment.strip())
        if expect is None:
            exec(code, namespace)
        else:
            got = eval(code, namespace)
            assert got == expect, (code, got, expect)
            checked[code] = expect
    petersen = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    # every commented value was read, so none can drift unchecked
    assert checked == {
        "res.best_size": 6,
        "g.vertex_set_elements(res.witness)": petersen,
        "rep.best_lower, rep.best_upper": (21, 24),
        "rep.known_exact": (21, "triples_equal_independence"),
        "kd.psi3(g)": (4, True),
    }


def test_readme_adjacency_cap():
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert "more than 2 GiB" in text and "above 131,072 vertices" in text
    assert MAX_ADJACENCY_BYTES == 2 << 30

    def rows(order):
        return order * ((order + 7) // 8)

    assert rows(131_072) <= MAX_ADJACENCY_BYTES < rows(131_073)


def test_readme_ground_set_limit():
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert "Two limits guard graph size" in text and "n > 64 is refused" in text
    assert MAX_GROUND_SET == 64
