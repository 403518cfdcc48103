import pytest

from crbmkit import compiler


@pytest.fixture
def plan_caches():
    """The compiler's shape-plan caches: its module-level lru caches."""
    return [fn for fn in vars(compiler).values()
            if callable(getattr(fn, "cache_clear", None))]


@pytest.fixture(autouse=True)
def fresh_compile_plans(plan_caches):
    # a compile reuses the plan an earlier compile of its shape built, so
    # a test that counts what a compile builds must not see another test's
    for cache in plan_caches:
        cache.cache_clear()
