"""Task identity: cheaper to take, never different.

``spec_hash`` values are what manifests carry, what ``obs diff`` joins
on and what every cache address derives from, so the fast paths in
``canonical_spec`` and ``PathSpec.to_dict`` must be invisible in them.
"""

import collections
import dataclasses
import json
from dataclasses import dataclass
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.spec import FaultEvent, FaultSpec
from repro.linkem.conditions import make_conditions
from repro.parallel.cache import canonical_spec, spec_hash
from repro.workload import PathSpec, Session, TransferSpec
from tests.workload.test_golden_reports import FIXED, TRACED


def parent_canonical_spec(obj: Any) -> Any:
    """``canonical_spec`` as it read before leaves were settled first."""
    if not isinstance(obj, type) and hasattr(obj, "canonical_dict"):
        spec = parent_canonical_spec(obj.canonical_dict())
        spec["__spec__"] = f"{type(obj).__module__}.{type(obj).__qualname__}"
        return spec
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        spec = {
            field.name: parent_canonical_spec(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
        spec["__dataclass__"] = (
            f"{type(obj).__module__}.{type(obj).__qualname__}"
        )
        return spec
    if isinstance(obj, dict):
        return {str(key): parent_canonical_spec(value)
                for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [parent_canonical_spec(item) for item in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"not representable: {type(obj)!r}")


@dataclass(frozen=True)
class _Knob:
    """A plain dataclass (``__dataclass__``-tagged)."""

    level: Any
    extras: Any = None


class _Declared:
    """Speaks the spec protocol (``__spec__``-tagged)."""

    def __init__(self, payload):
        self.payload = payload

    def canonical_dict(self):
        return {"payload": self.payload, "flag": True}


class _Bag(dict):
    """A dict subclass: must not take the exact-type fast path blindly."""


class _DeclaredBag(dict):
    """A dict subclass that *also* declares its own canonical form."""

    def canonical_dict(self):
        return {"size": len(self)}


_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-10**12, 10**12),
    st.floats(allow_nan=False), st.text(max_size=8),
)
_keys = st.one_of(st.text(max_size=6), st.integers(0, 9), st.booleans())


def _containers(children):
    mappings = st.dictionaries(_keys, children, max_size=4)
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        mappings,
        mappings.map(_Bag),
        mappings.map(_DeclaredBag),
        mappings.map(collections.OrderedDict),
        st.builds(_Knob, children, children),
        children.map(_Declared),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_leaves, _containers, max_leaves=25))
def test_reordered_canonical_spec_equals_the_parents(obj):
    ours = canonical_spec(obj)
    theirs = parent_canonical_spec(obj)
    assert ours == theirs
    # ``True == 1`` and ``[1] == [1.0]``: the JSON text is what is hashed.
    assert json.dumps(ours, sort_keys=True) == \
        json.dumps(theirs, sort_keys=True)


def test_path_spec_to_dict_is_every_field_in_order():
    path = FIXED.paths[0]
    names = [field.name for field in dataclasses.fields(PathSpec)]
    assert list(path.to_dict()) == names  # a later field cannot be forgotten
    assert path.to_dict() == dataclasses.asdict(path)
    assert PathSpec.from_dict(path.to_dict()) == path


def test_spec_hashes_recorded_at_the_parent_still_hold():
    session = Session()
    tcp = TransferSpec(kind="tcp", condition=FIXED, nbytes=200_000,
                       path="lte", direction="up", cc="reno", seed=11)
    mptcp = TransferSpec(
        kind="mptcp", condition=TRACED, nbytes=1_000_000, primary="wifi",
        cc="olia", fidelity="flow",
        config={"initial_ssthresh_segments": 12},
        options={"mode": "backup", "backup_paths": ["lte"]},
        faults=FaultSpec(events=(FaultEvent(
            kind="blackhole", path="wifi", at_s=0.5, detected=True),)),
    )
    hashes = [
        spec_hash(task.fn, task.kwargs)
        for task in (session.task_for(tcp), session.task_for(mptcp))
    ]
    hashes.append(spec_hash("m:f", {
        "condition": make_conditions(seed=1)[0],
        "sizes": (1, 2.5, None, True),
        "nested": {"a": [1, (2, "x")], 3: False},
    }))
    assert hashes == [
        "3236cb98e34510f521f165743823ca3399157a45dd19313938ffb6db8ec781f3",
        "ab4016df587f5e80b15762650b17b608939479a8589fb4b9eb172abccfa09614",
        # Re-recorded when the registry began returning ConditionSpec
        # rows: the kwarg is a bare registry row, whose ``__dataclass__``
        # tag named ``repro.linkem.conditions.LocationCondition`` (a
        # deleted type).  No product code hashes a bare condition; the
        # two task hashes above are the parent's.
        "723a4c82e00bb5bf33b18d0dac74209c92e6c8c0c40078b8ccbb92f0430b4d89",
    ]
