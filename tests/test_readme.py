import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_library_example_runs():
    with open(README, encoding="utf-8") as handle:
        blocks = re.findall(r"```python\n(.*?)```", handle.read(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    bound = namespace["bounds"][("h", 0)]
    assert bound.is_finite and bound.value == 6
