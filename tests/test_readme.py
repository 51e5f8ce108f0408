"""The README's library tour runs as written: its ``python`` blocks,
executed in order in one namespace, as a reader pastes them."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 3
    namespace = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), namespace)
    # the hybrid block runs the first block's GF(3) model through its rates
    assert namespace["run"].events
