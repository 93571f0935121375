"""Property test of the JSON config reader and the run behind it: a config
with one thing changed either runs or is rejected, never with a traceback.

Each example takes the `scenario_to_dict` output of a short builtin run and
changes one thing: a leaf or subtree replaced by an odd value, a key
deleted, or an unknown key added. `cli.main` then runs it in-process. It
must return 0, 2 or 3, raise nothing, print no traceback, and finish within
`EXAMPLE_SECONDS`.
"""

import contextlib
import copy
import io
import json
import math
import time
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trajsync.cli import main
from trajsync.scenarios import get_scenario, scenario_to_dict

BASES = {
    name: scenario_to_dict(replace(get_scenario(name), horizon=horizon))
    for name, horizon in (("out_of_range", 0.2), ("nominal_square", 0.1))
}

ODD_VALUES = (
    math.nan, math.inf, -math.inf, "inf", 0, -1, 1e-320, 1e308, 1e400,
    "x", True, None, [], {}, [1, 2],
)

# The slowest example seen took 3.3 s on a 2-core Xeon: a norm_order of
# 1e308 reads every span as inf, so each clamp scans 10^6 samples.
EXAMPLE_SECONDS = 20.0


def _paths(node, prefix=()):
    """Every path into the JSON tree, the root's () first."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


PATHS = {name: list(_paths(data)) for name, data in BASES.items()}
OBJECT_PATHS = {
    name: [p for p in paths if isinstance(_at(BASES[name], p), dict)]
    for name, paths in PATHS.items()
}


@st.composite
def mutated_configs(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    data = copy.deepcopy(BASES[name])
    how = draw(st.sampled_from(("replace", "delete", "add")))
    if how == "replace":
        path = draw(st.sampled_from(PATHS[name]))
        value = draw(st.sampled_from(ODD_VALUES))
        if not path:
            return value
        _at(data, path[:-1])[path[-1]] = value
        return data
    obj = _at(data, draw(st.sampled_from(OBJECT_PATHS[name])))
    if how == "delete":
        del obj[draw(st.sampled_from(sorted(obj)))]
    else:
        key = draw(st.text(min_size=1, max_size=12).filter(lambda k: k not in obj))
        obj[key] = draw(st.sampled_from(ODD_VALUES))
    return data


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations") / "scenario.json"


@settings(max_examples=1000, suppress_health_check=[HealthCheck.too_slow])
@given(data=mutated_configs())
def test_a_changed_config_runs_or_exits_2_without_a_traceback(config_path, data):
    config_path.write_text(json.dumps(data))
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--scenario", str(config_path)])
    seconds = time.perf_counter() - t0
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert seconds < EXAMPLE_SECONDS
