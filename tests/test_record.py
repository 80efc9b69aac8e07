import pytest

from qroute import PathSpec, SimConfig, SimStats, SwapPolicy


class _TwinPolicy(SwapPolicy):
    """A record of another type with a policy's fields."""

    __slots__ = ()


def test_records_replace_by_constructor_and_compare_by_type():
    config = SimConfig(slots=50)
    changed = config.replace(seed=9)
    assert (config.seed, config.slots, changed.seed, changed.slots) == (0, 50, 9, 50)
    with pytest.raises(ValueError, match=r"^slots: must be >= 1, got 0$"):
        SimConfig().replace(slots=0)
    with pytest.raises(AttributeError):
        config.seed = 9

    policy = SwapPolicy("doubling")
    assert policy == SwapPolicy("doubling") and hash(policy) == hash(SwapPolicy("doubling"))
    assert policy != ("doubling", None) and policy != _TwinPolicy("doubling")
    path = PathSpec(("A", "B"), (1,), (0.5,), ())
    assert path == PathSpec(["A", "B"], [1], [0.5], [])
    assert path != (("A", "B"), (1,), (0.5,), ())

    stats = SimStats(10, 1, "proactive", "sync", "doubling",
                     per_request={"r": {"delivered": 2, "hist": [8, 2]}})
    out = stats.to_dict()
    out["per_request"]["r"]["hist"].append(5)
    out["per_request"]["r"]["rate"] = 0.2  # as the simulate command does
    assert stats.per_request == {"r": {"delivered": 2, "hist": [8, 2]}}
    assert stats.to_dict() == {
        "slots_run": 10, "seed": 1, "scheme": "proactive", "forwarding": "sync",
        "policy": "doubling", "delivered_total": 0,
        "per_request": {"r": {"delivered": 2, "hist": [8, 2]}}, "per_path": {},
        "swap_counters": {}, "links_generated": 0, "entities_disposed": {},
    }
