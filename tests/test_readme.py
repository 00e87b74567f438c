import pathlib
import re

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text(
    encoding="utf-8")


def test_library_quick_start_runs(capsys):
    section = README.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (Library quick start)", "exec"), {})
    lines = capsys.readouterr().out.split()
    # The plan's fidelity, the CV window fidelity, the proven Hadamard
    # floor 1 - sqrt(2)/2 and a search error at or above it.
    assert len(lines) == 4
    fidelity, window, floor, error = map(float, lines)
    assert 0.99 <= fidelity <= 1.0 and 0.99 <= window <= 1.0
    assert abs(floor - (1 - 2**-0.5)) <= 1e-15
    assert error >= floor - 1e-14
