"""The README's Python example runs and gives what its comments state."""

import os
import re

from tangentcat.polycore import PolyMap, Polynomial, map_equal

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def example_source():
    text = open(README, encoding="utf-8").read()
    section = text.split("\n## Example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_the_readme_example_derives_h_and_splits_the_point():
    namespace = {}
    exec(compile(example_source(), "README.md", "exec"), namespace)
    x = [Polynomial.variable(3, i) for i in range(3)]
    assert map_equal(namespace["full"].H, PolyMap(3, (x[0], x[1], x[2], -(x[0] * x[1] * x[2]))))
    assert namespace["parts"] == ((1, 2), (1, 3), (1, 10))
