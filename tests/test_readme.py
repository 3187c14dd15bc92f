"""The README's library sketch runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    sketch = text.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "detect_witnesses" in sketch
    exec(compile(sketch, "README.md (Library sketch)", "exec"), {"__name__": "readme_sketch"})
