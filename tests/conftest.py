import pytest

from crbmkit import compiler, packing


@pytest.fixture(autouse=True)
def fresh_compile_shapes():
    """Each test starts with no compile shape and no packing sequence kept
    (``compiler._SHAPES``, ``packing._SEQUENCES``), so what it counts or
    spies is built in it; the other memos (``dimension``, ``bounds``,
    ``mrf``) are left as they are."""
    compiler._SHAPES.clear()
    packing._SEQUENCES.clear()
