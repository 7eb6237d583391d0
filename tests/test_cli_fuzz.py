"""Generated scenarios for processor, resource and erase-demo: every one
either runs or exits with a documented code, and none raises.

Each scenario starts valid.  Sizes are drawn either small enough to run
in milliseconds (data + ancilla <= 6, cv_level <= 3, <= 3 steps) or far
past a bound, so that no example allocates more than a few MiB.  Some
scenarios then get one field, an amplitude's re or im slot among them,
replaced by a wrong type, a bad name or an out-of-range value, integers
past int64 and past float range included.  A scenario that also holds
a key only another command reads must exit 2.  Every generated program,
run as both a processor and a resource scenario, must get the same exit
code from both.
"""
import copy
import json
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cvhistory.cli import SCENARIO_KEYS, main

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "X", "CONST(1,1,9)", "ADDER(0)", "outside", "grid"]),
    st.integers(-3, 9),
    # past int64 and past float range
    st.sampled_from([2**63, -(2**63) - 1, 10**400]),
    st.lists(st.integers(-2, 9), max_size=3),
    st.fixed_dictionaries({"n_in": st.integers(-1, 2), "m_out": st.integers(0, 2)}),
)
# past a check made before anything is allocated, each against the
# 2^28-byte budget unless stated: data >= 13 for the data density;
# ancilla >= 24 for the joint table; cv_level >= 25 for the indicator (and
# a final level >= 54 past the max level); for erase-demo, a final level
# >= 25 for its dense wave
far_level = st.one_of(st.integers(25, 80), st.integers(10**4, 10**12))
far_data = st.one_of(st.integers(13, 80), st.integers(10**4, 10**12))


@st.composite
def valid_step(draw, n_total, n_data):
    qubits = list(range(n_total))
    anc = qubits[n_data:]
    if n_total >= 3 and draw(st.booleans()):
        x = draw(st.permutations(qubits))
        name = draw(st.sampled_from(["AND", "OR", "XOR", "CONST(2,1,1)"]))
        if draw(st.integers(0, 3)) == 0:
            name = f"CONST({draw(far_level)},1,0)"
        op = {"table": name, "mode": draw(st.sampled_from(["xor", "mod_sub"]))}
        op.update(x_qubits=x[:2], y_qubits=x[2:3])
    elif n_total >= 2 and draw(st.booleans()):
        pair = draw(st.permutations(qubits))[:2]
        op = {"gate": draw(st.sampled_from(["CNOT", "SWAP", "CZ"])), "targets": pair}
    else:
        gate = draw(st.sampled_from(["X", "Y", "Z", "H", "S", "T"]))
        op = {"gate": gate, "targets": [draw(st.sampled_from(qubits))]}
    clean = draw(st.lists(st.sampled_from(anc), unique=True)) if anc else []
    return {"op": op, "clean": clean}


@st.composite
def programs(draw):
    data = draw(st.integers(1, 3))
    ancilla = draw(st.integers(0, 6 - data))
    cv_level = draw(st.integers(0, 3))
    steps = draw(st.lists(valid_step(data + ancilla, data), max_size=3))
    which = draw(st.sampled_from(["small", "small", "data", "ancilla", "cv_level"]))
    if which == "data":
        data = draw(far_data)
    elif which == "ancilla":
        ancilla = draw(far_level)
    elif which == "cv_level":
        cv_level = draw(far_level)
    return {"data": data, "ancilla": ancilla, "cv_level": cv_level, "steps": steps}


def scenario(kind, required, **optional):
    return st.fixed_dictionaries(dict(required, kind=st.just(kind)), optional=optional)


pair_list = st.lists(
    st.sampled_from(
        [[0.6, 0.8], [1.0, 0.0], [0, 1], [[0.0, 0.6], [0.8, 0.0]], [0.6, [0.0, 0.8]], [0.6, 0.6]]
    ),
    max_size=3,
)
grid_options = st.fixed_dictionaries(
    {"window": st.just([-2.0, 2.0]), "n": st.sampled_from([64, 256])}
)

grid_scenario = scenario(
    "erase-demo", {"pairs": pair_list, "backend": st.just("grid"), "grid": grid_options}
)

kinds = {
    "processor": scenario(
        "processor",
        {"program": programs()},
        data_basis=st.integers(0, 7),
    ),
    "resource": scenario("resource", {"program": programs()}),
    "erase-demo": st.one_of(
        scenario(
            "erase-demo",
            {"pairs": pair_list, "cv_level": st.one_of(st.integers(0, 3), far_level)},
        ),
        grid_scenario,
    ),
}


def _paths(obj, prefix=()):
    """The key path of every field of a JSON value, inner nodes included."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(sorted(kinds)))
    # a private copy: just() and sampled_from() hand out shared objects
    obj = copy.deepcopy(draw(kinds[kind]))
    if draw(st.booleans()):
        paths = sorted(_paths(obj), key=repr)
        path = draw(st.sampled_from(paths + [("bogus",)]))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(junk)
    return kind, obj


@st.composite
def foreign_key_scenarios(draw):
    """A generated scenario given one more key, one that only another
    command reads."""
    kind, obj = draw(scenarios())
    foreign = set().union(*SCENARIO_KEYS.values()) - set(SCENARIO_KEYS[kind])
    obj[draw(st.sampled_from(sorted(foreign)))] = draw(junk)
    return kind, obj


@given(scenarios())
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_cli_exits_with_a_documented_code(tmp_path, kind_and_scenario):
    kind, obj = kind_and_scenario
    obj = dict(obj, out_dir=os.path.join(str(tmp_path), "out"))
    path = os.path.join(str(tmp_path), "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    assert main([kind, path]) in (0, 1, 2, 3)


@given(foreign_key_scenarios())
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_foreign_key_exits_2(tmp_path, kind_and_scenario):
    kind, obj = kind_and_scenario
    out = os.path.join(str(tmp_path), "out")
    path = os.path.join(str(tmp_path), "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(obj, out_dir=out), fh)
    assert main([kind, path]) == 2
    assert not os.path.exists(out)


@given(grid_scenario, st.sampled_from(["outside_unit", "inside_one_two"]))
@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_variant_exits_2(tmp_path, obj, value):
    """variant, once the grid's choice of reset flip, is an unknown key."""
    out = os.path.join(str(tmp_path), "out")
    path = os.path.join(str(tmp_path), "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(obj, variant=value, out_dir=out), fh)
    assert main(["erase-demo", path]) == 2
    assert not os.path.exists(out)


@given(programs())
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_processor_and_resource_agree(tmp_path, program):
    """resource refuses exactly the programs the processor refuses, and
    predicts the level the processor ends at."""
    out = {kind: os.path.join(str(tmp_path), kind) for kind in ("processor", "resource")}
    codes = {}
    for kind in out:
        path = os.path.join(str(tmp_path), f"{kind}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"kind": kind, "program": program, "out_dir": out[kind]}, fh)
        codes[kind] = main([kind, path])
    assert codes["processor"] == codes["resource"]
    if codes["processor"] == 0:
        with open(os.path.join(out["processor"], "summary.json"), encoding="utf-8") as fh:
            level = json.load(fh)["cv_level"]
        with open(os.path.join(out["resource"], "resource_report.json"), encoding="utf-8") as fh:
            assert json.load(fh)["cv_final_level"] == level
