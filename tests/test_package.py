import sys

import pytest

import crbmkit


def test_public_names_are_the_defining_modules_objects():
    for name in crbmkit.__all__:
        value = getattr(crbmkit, name)
        home = value.__module__
        assert home.startswith("crbmkit.")
        assert getattr(sys.modules[home], name) is value


def test_dir_lists_every_public_name():
    assert set(crbmkit.__all__) <= set(dir(crbmkit))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        crbmkit.no_such_name
    assert not hasattr(crbmkit, "no_such_name")
    # a submodule is not a table name, and still imports
    from crbmkit import bitspace
    assert bitspace.__name__ == "crbmkit.bitspace"
