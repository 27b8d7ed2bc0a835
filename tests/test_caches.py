"""Every memo in the package is bounded, so none grows with the variety of
its inputs."""

import importlib
import inspect
import pkgutil

import pma


def _lru_caches():
    """Each functools.lru_cache wrapper the package's modules and classes
    hold, by qualified name; ``__main__`` is skipped, importing it runs the CLI."""
    found = {}
    for info in pkgutil.iter_modules(pma.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"pma.{info.name}")
        owners = [module, *(c for c in vars(module).values() if inspect.isclass(c))]
        for owner in owners:
            for name in vars(owner):
                obj = getattr(owner, name)
                if hasattr(obj, "cache_parameters"):
                    found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def test_every_lru_cache_is_bounded():
    caches = _lru_caches()
    assert {"pma.field._scale_table", "pma.model._marks", "pma.model._upsilon",
            "pma.pma1._db_names", "pma.spma2._db_names",
            "pma.transcript._frames"} <= set(caches)
    # Upsilon memoizes its packed inverse and packed columns itself
    assert [name for name in caches if name.startswith("pma.field.")] == \
        ["pma.field._scale_table"]
    assert [name for name, cache in caches.items()
            if cache.cache_parameters()["maxsize"] is None] == []
