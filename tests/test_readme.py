import pathlib
import re
from fractions import Fraction

import numpy as np

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_readme_python_blocks_run():
    # an API change must not leave a stale example behind; a line whose comment
    # is a list of numbers, such as the quick tour's spectrum, must evaluate to it
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    checked = 0
    for block in blocks:
        namespace = {}
        exec(compile(block, str(README), "exec"), namespace)
        for line in block.splitlines():
            code, sep, comment = line.partition("#")
            values = re.fullmatch(r"\s*\[([-+\d/.,\s]+)\]\s*", comment)
            if sep and values:
                expected = [float(Fraction(v.strip())) for v in values.group(1).split(",")]
                got = np.asarray(eval(code, namespace), dtype=float)
                assert got.shape == (len(expected),) and np.abs(got - expected).max() <= 1e-12, line
                checked += 1
    assert checked >= 1
