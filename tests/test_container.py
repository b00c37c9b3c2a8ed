"""The container's header decoder, on spec dataclasses of its own."""

import json
from dataclasses import asdict, dataclass

import pytest

from dtasnn.container import CheckpointError, decode


@dataclass(frozen=True)
class Inner:
    rate: float
    flag: bool


@dataclass(frozen=True)
class Outer:
    count: int
    grid: tuple
    inner: Inner

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")


SPEC = Outer(count=3, grid=((1, 2), (3, 4, 5)), inner=Inner(rate=0.5, flag=True))


def header() -> dict:
    """SPEC as the container stores it: ``asdict`` through JSON."""
    return json.loads(json.dumps(asdict(SPEC)))


def test_round_trip():
    assert decode(Outer, header()) == SPEC


def test_keys_that_are_not_fields_are_left_to_the_caller():
    assert decode(Outer, {**header(), "extra": 1}) == SPEC


def test_missing_nested_field_named_by_dotted_path():
    h = header()
    del h["inner"]["flag"]
    with pytest.raises(CheckpointError, match="missing field 'inner.flag'"):
        decode(Outer, h)


@pytest.mark.parametrize("field, value, match", [
    ("count", -1, "count must be >= 0"),
    ("inner", [0.5, True], "'inner' is not a JSON object"),
])
def test_refused_value_raises_callers_error(field, value, match):
    with pytest.raises(CheckpointError, match=match):
        decode(Outer, {**header(), field: value})
