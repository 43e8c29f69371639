"""JSONL export/reload properties over every event kind and awkward values.

Pins the serialized form independently of the exporter's implementation:
each ``to_jsonl`` event line must be exactly ``json.dumps(e.to_dict(),
separators=(",", ":"))``, and ``from_jsonl`` must restore the same events.
Values cover the corners of JSON floats (NaN, ±inf, −0.0, subnormals),
non-ASCII and control-character strings, ``numpy.float64`` values, bools,
``gamma_max=None`` and a span ``unit`` both absent and set.
"""

import json
import math
import sys
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import DROP_REASONS, EVENT_KINDS, SPAN_OUTCOMES
from repro.obs.export import from_jsonl, to_jsonl
from repro.obs.recorder import Recorder

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3]

floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)
# Any code point, surrogates and C0/C1 controls included.
texts = st.text(
    alphabet=st.characters(min_codepoint=0, max_codepoint=sys.maxunicode, exclude_categories=())
)

BY_TYPE = {
    "float": floats,
    "int": st.integers(min_value=-(2**63), max_value=2**63),
    "bool": st.booleans(),
    "str": texts,
    "Optional[float]": st.none() | floats,
    "Optional[str]": st.none() | texts,
}

#: Fields whose values the event validates on construction.
BY_FIELD = {
    "outcome": st.sampled_from(SPAN_OUTCOMES),
    "reason": st.sampled_from(DROP_REASONS),
}


def event_strategy(cls):
    return st.builds(
        cls, **{f.name: BY_FIELD.get(f.name, BY_TYPE[f.type]) for f in fields(cls)}
    )


events = st.one_of([event_strategy(cls) for cls in EVENT_KINDS.values()])


def exact(event):
    """Comparable form that tells NaN, −0.0 and every float bit pattern apart."""
    return type(event), tuple(
        float(v).hex() if isinstance(v, float) else (type(v), v)
        for v in (getattr(event, f.name) for f in fields(event))
    )


def recording(evs):
    rec = Recorder()
    rec.annotate(scenario="prop", note="é\x00 ")
    for e in evs:
        rec.emit(e)
    return rec


@settings(max_examples=300, deadline=None)
@given(st.lists(events, max_size=12))
def test_lines_are_plain_json_dumps_and_round_trip(evs):
    text = to_jsonl(recording(evs))
    lines = text.split("\n")
    assert lines[-1] == ""
    assert lines[1:-1] == [json.dumps(e.to_dict(), separators=(",", ":")) for e in evs]
    clone = from_jsonl(text)
    assert [exact(e) for e in clone.events] == [exact(e) for e in evs]
    if not any(isinstance(v, float) and math.isnan(v) for e in evs for v in e.to_dict().values()):
        assert clone.events == evs
    assert to_jsonl(clone) == text


@pytest.mark.parametrize("kind", sorted(EVENT_KINDS))
def test_events_stay_frozen_equal_and_hashable(kind):
    cls = EVENT_KINDS[kind]
    a, b = cls(t=1.0), cls(t=1.0)
    assert a == b and hash(a) == hash(b) and a != cls(t=2.0)
    with pytest.raises(FrozenInstanceError):
        a.t = 2.0
    with pytest.raises(FrozenInstanceError):
        del a.t
    # Slots leave no room for new attributes.  (CPython's frozen slotted
    # dataclasses raise TypeError rather than FrozenInstanceError here.)
    with pytest.raises((FrozenInstanceError, TypeError)):
        a.not_a_field = 1
    assert not hasattr(a, "__dict__")
