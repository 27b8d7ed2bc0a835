"""Arbitrary run configurations for the property tests: a valid config of
each variant with some keys replaced by any JSON value, and the check every
accepted run must pass."""

import warnings
from dataclasses import fields

from hypothesis import strategies as st

from pma.harness import RunConfig, resolve_config

# Arbitrary JSON values for the keys of a run config. Ints stay small: an
# accepted int is a party count, universe size or budget, and a run's time
# grows with it.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
_NAMES = st.sampled_from(("a", "b", "c", "d"))
_ABSENT = object()
# besides arbitrary values, shapes that a run may accept
_VALUES = {
    "variant": st.sampled_from(("pma1", "spma1", "spma2", "pma2")),
    "datasets": st.fixed_dictionaries({
        "universe": st.lists(_NAMES, min_size=1, max_size=4, unique=True)
        | st.lists(_NAMES | _JSON, max_size=3),
        "parties": st.lists(st.lists(_NAMES | _JSON, max_size=3), max_size=4)}),
    "gen_probs": st.floats(0, 1) | st.lists(st.floats(0, 1), max_size=4),
    "y": st.lists(st.integers(0, 3), max_size=4),
}
# per variant, a valid config with generated and with given datasets
BASES = [{"variant": v, "t": 1, "seed": 5, **source} for v in ("pma1", "spma1", "spma2")
         for source in ({"m": 3, "e": 2},
                        {"datasets": {"universe": ["c", "a", "b"],
                                      "parties": [["a"], ["a", "b"], ["c", "a"]]}})]


@st.composite
def patched_configs(draw):
    """A valid config of one variant with up to three keys replaced by any
    JSON value, or removed."""
    config = dict(draw(st.sampled_from(BASES)))
    keys = st.sampled_from(sorted(f.name for f in fields(RunConfig)))
    for key in draw(st.sets(keys, min_size=1, max_size=3)):
        value = draw(st.just(_ABSENT) | _JSON | _VALUES.get(key, _JSON))
        if value is _ABSENT:
            config.pop(key, None)
        else:
            config[key] = value
    return config


def _holds_bool(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return any(map(_holds_bool, value))
    return isinstance(value, bool)


def check_accepted_run(config: dict, report: dict) -> None:
    """A run of ``config`` was accepted: no value it read held a bool, and
    every count equals the brute-force count over the parties."""
    datasets = config.get("datasets")
    read = dict(config)
    if datasets is not None:  # gen_probs is read only to generate datasets
        read.pop("gen_probs", None)
    if isinstance(datasets, dict):  # only these two entries are read
        read["datasets"] = [datasets["universe"], datasets["parties"]]
        universe = sorted(datasets["universe"])
        members = [{universe.index(x) + 1 for x in party} for party in datasets["parties"]]
    else:  # generated: the run's own parameter warnings were checked by the caller
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            members = [d.members for d in resolve_config(RunConfig.from_dict(config))[1]]
    assert not any(map(_holds_bool, read.values())), read
    theta = config.get("theta")
    e = report["params"]["e"]
    assert [r["theta"] for r in report["results"]] == \
        (list(range(1, e + 1)) if theta is None else [theta])
    for r in report["results"]:
        assert r["count"] == sum(r["theta"] in held for held in members)
