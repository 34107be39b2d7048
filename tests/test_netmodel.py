import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path

import pytest

import ogpf
from ogpf.errors import ParseError, ValidationError
from ogpf.netmodel import _COLLECTIONS, _read

from conftest import make_instance


def test_load_small2area(small2area):
    inst = small2area
    assert inst.num_areas == 2
    assert len(inst.buses) == 4
    assert len(inst.gas_nodes) == 5
    internal = [p for p in inst.pipelines if p.weymouth_c is not None]
    assert len(internal) == 3
    assert len(inst.pipelines) - len(internal) == 1


def test_gas_area_of_size_one_rejected():
    with pytest.raises(ValidationError, match="gas subgraph size must exceed 1"):
        make_instance(
            num_areas=2,
            buses=[ogpf.Bus("b1", 1, 5.0, -1, 1), ogpf.Bus("b2", 2, 5.0, -1, 1)],
            lines=[ogpf.PowerLine("b1", "b2", 0.01)],
            gas_nodes=[ogpf.GasNode("n1", 1, 1.0, 1, 100),
                       ogpf.GasNode("n2", 1, 1.0, 1, 100),
                       ogpf.GasNode("n3", 2, 1.0, 1, 100)],
            pipelines=[ogpf.Pipeline("n1", "n2", 50.0, weymouth_c=5.0),
                       ogpf.Pipeline("n2", "n3", 50.0)],
            generators=[ogpf.Generator("g1", "b1", "non_gas_fueled", 0, 50,
                                       cost_c2=0.1, cost_c1=1.0, cost_c0=0.0)],
        )


def test_empty_file_is_parse_error(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(ParseError):
        ogpf.load_instance(path)


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        ogpf.load_instance(tmp_path / "nope.json")


def test_unknown_field_rejected(tmp_path):
    doc = json.load(open(ogpf.instance_path("single1area")))
    doc["buses"][0]["voltage"] = 1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="unknown fields"):
        ogpf.load_instance(path)


def test_nonfinite_number_rejected(tmp_path):
    doc = json.load(open(ogpf.instance_path("single1area")))
    doc["buses"][0]["demand_e"] = "Infinity"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc).replace('"Infinity"', "Infinity"))
    with pytest.raises(ParseError):
        ogpf.load_instance(path)


@pytest.mark.parametrize("mutate,match", [
    (lambda b: dataclasses.replace(b, theta_min=0.7), "theta_min"),
    (lambda b: dataclasses.replace(b, demand_e=-1.0), "demand_e"),
])
def test_bus_invariants(mutate, match):
    with pytest.raises(ValidationError, match=match):
        mutate(ogpf.Bus("b1", 1, 5.0, -0.6, 0.6))


def test_generator_kind_field_consistency():
    with pytest.raises(ValidationError):
        ogpf.Generator("g", "b1", "non_gas_fueled", 0, 10, cost_c2=0.1,
                       cost_c1=1.0, cost_c0=0.0, eta2=0.1)
    with pytest.raises(ValidationError):
        ogpf.Generator("g", "b1", "gas_fueled", 0, 10, eta2=0.1, eta1=1.0,
                       eta0=0.0)  # missing gas_node
    with pytest.raises(ValidationError):
        ogpf.Generator("g", "b1", "gas_fueled", 0, 10, eta2=-0.1, eta1=1.0,
                       eta0=0.0, gas_node="n1")


def test_tie_pipe_must_not_carry_weymouth():
    with pytest.raises(ValidationError, match="tie pipe"):
        make_instance(
            num_areas=2,
            buses=[ogpf.Bus("b1", 1, 5.0, -1, 1), ogpf.Bus("b2", 2, 5.0, -1, 1)],
            lines=[ogpf.PowerLine("b1", "b2", 0.01)],
            gas_nodes=[ogpf.GasNode("n1", 1, 1.0, 1, 100),
                       ogpf.GasNode("n2", 1, 1.0, 1, 100),
                       ogpf.GasNode("n3", 2, 1.0, 1, 100),
                       ogpf.GasNode("n4", 2, 1.0, 1, 100)],
            pipelines=[ogpf.Pipeline("n1", "n2", 50.0, weymouth_c=5.0),
                       ogpf.Pipeline("n2", "n3", 50.0, weymouth_c=5.0),
                       ogpf.Pipeline("n3", "n4", 50.0, weymouth_c=5.0)],
        )


def test_internal_pipe_needs_weymouth():
    with pytest.raises(ValidationError, match="internal pipe"):
        make_instance(pipelines=[ogpf.Pipeline("n1", "n2", 50.0)])


def test_disconnected_graphs_rejected():
    with pytest.raises(ValidationError, match="electrical graph"):
        make_instance(
            buses=[ogpf.Bus("b1", 1, 5.0, -1, 1), ogpf.Bus("b2", 1, 5.0, -1, 1),
                   ogpf.Bus("b3", 1, 0.0, -1, 1)],
            lines=[ogpf.PowerLine("b1", "b2", 0.01)],
        )
    with pytest.raises(ValidationError, match="gas graph"):
        make_instance(
            gas_nodes=[ogpf.GasNode("n1", 1, 1.0, 1, 100),
                       ogpf.GasNode("n2", 1, 1.0, 1, 100),
                       ogpf.GasNode("n3", 1, 1.0, 1, 100)],
            pipelines=[ogpf.Pipeline("n1", "n2", 50.0, weymouth_c=5.0)],
        )


def test_unknown_references_rejected():
    with pytest.raises(ValidationError, match="unknown bus"):
        make_instance(generators=[
            ogpf.Generator("g1", "nope", "non_gas_fueled", 0, 50,
                           cost_c2=0.1, cost_c1=1.0, cost_c0=0.0)])
    with pytest.raises(ValidationError, match="unknown gas node"):
        make_instance(gas_sources=[
            ogpf.GasSource("s1", "nope", 0, 10, 1.0, 0.0)])


def test_duplicate_ids_rejected():
    with pytest.raises(ValidationError, match="duplicate bus"):
        make_instance(buses=[ogpf.Bus("b1", 1, 5.0, -1, 1),
                             ogpf.Bus("b2", 1, 5.0, -1, 1),
                             ogpf.Bus("b1", 1, 5.0, -1, 1)])


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_single_area_has_no_ties(instances):
    edges = ogpf.classify_edges(instances["single1area"])
    assert edges.tie_lines == ()
    assert edges.tie_pipes == ()
    assert len(edges.internal_pipes) == 2


def test_classify_small2area(small2area):
    edges = ogpf.classify_edges(small2area)
    assert len(edges.tie_pipes) == 1
    assert len(edges.tie_lines) == 1
    assert len(edges.internal_pipes) == 3


def test_cross_area_pipe_is_tie():
    inst = make_instance(
        num_areas=2,
        buses=[ogpf.Bus("b1", 1, 5.0, -1, 1), ogpf.Bus("b2", 2, 5.0, -1, 1)],
        lines=[ogpf.PowerLine("b1", "b2", 0.01)],
        gas_nodes=[ogpf.GasNode("n1", 1, 1.0, 1, 100),
                   ogpf.GasNode("n2", 1, 1.0, 1, 100),
                   ogpf.GasNode("n3", 2, 1.0, 1, 100),
                   ogpf.GasNode("n4", 2, 1.0, 1, 100)],
        pipelines=[ogpf.Pipeline("n1", "n2", 50.0, weymouth_c=5.0),
                   ogpf.Pipeline("n2", "n3", 50.0),
                   ogpf.Pipeline("n3", "n4", 50.0, weymouth_c=5.0)],
    )
    edges = ogpf.classify_edges(inst)
    assert [(p.from_node, p.to_node) for p in edges.tie_pipes] == [("n2", "n3")]


def test_classification_is_a_partition(instances):
    for inst in instances.values():
        edges = ogpf.classify_edges(inst)
        internal_undirected = {frozenset((p.from_node, p.to_node))
                               for p in edges.internal_pipes}
        tie = {frozenset((p.from_node, p.to_node)) for p in edges.tie_pipes}
        every = {frozenset((p.from_node, p.to_node)) for p in inst.pipelines}
        assert internal_undirected | tie == every
        assert not internal_undirected & tie



def test_save_load_round_trip(tmp_path, instances):
    for name, inst in instances.items():
        path = tmp_path / f"{name}.json"
        ogpf.save_instance(inst, path)
        again = ogpf.load_instance(path)
        assert again == inst


# sha256 of the bytes ``save_instance`` writes for each bundled instance
SAVE_SHA256 = {
    "chain2area": "2850c3687d6505c0ebdf77543e83e6a945ed914b4a5d8a1e1e43042ff8cce932",
    "loop1area": "78ff11794e591815ec4112be656bec577fee6d16169a3f88495037000ac04ce1",
    "medium3area": "ef69232e4eb9e561aa56bfe9727a9c4f9848550a9c14004be8222755d713db0c",
    "single1area": "e11ea31d5dd9a669de92e2c6cd38dec28e0f6434266fe44f75b0c37c3b9925c5",
    "small2area": "201f261230a10960195859cd406fcc4b8f146010959f9a3fb8a401e42a3cfaad",
}


def test_saved_files_are_unchanged(tmp_path, instances):
    assert set(instances) == set(SAVE_SHA256)
    for name, inst in instances.items():
        path = tmp_path / f"{name}.json"
        ogpf.save_instance(inst, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVE_SHA256[name]


_DROP = object()

# (collection or None for the top level, entry index, changes with _DROP
# deleting a key, error type, exact message); the base file is small2area,
# whose generators are g1 (non_gas_fueled) and g2 (gas_fueled) and whose
# pipe n3-n4 is its one tie
MALFORMED = {
    "bus-missing": ("buses", 0, {"theta_max": _DROP}, ParseError,
                    "bus b1: missing fields ['theta_max']"),
    "bus-unknown": ("buses", 0, {"voltage": 1.0}, ParseError,
                    "bus b1: unknown fields ['voltage']"),
    "bus-string": ("buses", 0, {"demand_e": "50"}, ParseError,
                   "bus b1: field 'demand_e' must be a number, got '50'"),
    "bus-bool": ("buses", 0, {"theta_min": True}, ParseError,
                 "bus b1: field 'theta_min' must be a number, got True"),
    "bus-infinite": ("buses", 0, {"demand_e": math.inf}, ParseError,
                     "bus b1: field 'demand_e' must be finite"),
    "bus-area-float": ("buses", 0, {"area": 1.7}, ParseError,
                       "bus b1: field 'area' must be an integer, got 1.7"),
    "bus-area-bool": ("buses", 0, {"area": True}, ParseError,
                      "bus b1: field 'area' must be an integer, got True"),
    "bus-area-string": ("buses", 0, {"area": "1"}, ParseError,
                        "bus b1: field 'area' must be an integer, got '1'"),
    "bus-area-text": ("buses", 0, {"area": "x"}, ParseError,
                      "bus b1: field 'area' must be an integer, got 'x'"),
    "bus-area-null": ("buses", 0, {"area": None}, ParseError,
                      "bus b1: field 'area' must be an integer, got None"),
    "bus-id-number": ("buses", 0, {"id": 5}, ParseError,
                      "bus 5: field 'id' must be a string, got 5"),
    "line-missing": ("lines", 0, {"reactance": _DROP}, ParseError,
                     "line b1-b2: missing fields ['reactance']"),
    "line-missing-end": ("lines", 0, {"to": _DROP}, ParseError,
                         "line b1-None: missing fields ['to']"),
    "line-unknown": ("lines", 0, {"from_bus": "b1"}, ParseError,
                     "line b1-b2: unknown fields ['from_bus']"),
    "line-string": ("lines", 0, {"reactance": "0.005"}, ParseError,
                    "line b1-b2: field 'reactance' must be a number, "
                    "got '0.005'"),
    "line-nan": ("lines", 1, {"reactance": math.nan}, ParseError,
                 "line b2-b3: field 'reactance' must be finite"),
    "line-end-number": ("lines", 0, {"from": 1}, ParseError,
                        "line 1-b2: field 'from' must be a string, got 1"),
    "gen-missing": ("generators", 0, {"kind": _DROP}, ParseError,
                    "generator g1: missing fields ['kind']"),
    "gen-unknown": ("generators", 0, {"cost_c3": 0.0}, ParseError,
                    "generator g1: unknown fields ['cost_c3']"),
    "gen-bool": ("generators", 1, {"eta1": False}, ParseError,
                 "generator g2: field 'eta1' must be a number, got False"),
    "gen-string": ("generators", 0, {"p_max": "100"}, ParseError,
                   "generator g1: field 'p_max' must be a number, got '100'"),
    "nongas-with-eta": ("generators", 0, {"eta2": 0.002}, ValidationError,
                        "generator g1: non_gas_fueled units carry cost "
                        "coefficients only"),
    "nongas-without-cost": ("generators", 0, {"cost_c2": _DROP},
                            ValidationError,
                            "generator g1: non_gas_fueled units carry cost "
                            "coefficients only"),
    "nongas-with-gas-node": ("generators", 0, {"gas_node": "n1"},
                             ValidationError,
                             "generator g1: non_gas_fueled units have no "
                             "gas_node"),
    "gas-with-cost": ("generators", 1, {"cost_c1": 0.02}, ValidationError,
                      "generator g2: gas_fueled units carry eta coefficients "
                      "only"),
    "gas-without-eta": ("generators", 1, {"eta0": _DROP}, ValidationError,
                        "generator g2: gas_fueled units carry eta "
                        "coefficients only"),
    "gas-node-null": ("generators", 1, {"gas_node": None}, ParseError,
                      "generator g2: field 'gas_node' must be a string, "
                      "got None"),
    "gas-without-gas-node": ("generators", 1, {"gas_node": _DROP},
                             ValidationError,
                             "generator g2: gas_fueled units need a gas_node"),
    "node-missing": ("gas_nodes", 2, {"psi_min": _DROP}, ParseError,
                     "gas node n3: missing fields ['psi_min']"),
    "node-string": ("gas_nodes", 2, {"psi_max": "900"}, ParseError,
                    "gas node n3: field 'psi_max' must be a number, got '900'"),
    "node-infinite": ("gas_nodes", 2, {"demand_g": -math.inf}, ParseError,
                      "gas node n3: field 'demand_g' must be finite"),
    "node-area-float": ("gas_nodes", 2, {"area": 1.7}, ParseError,
                        "gas node n3: field 'area' must be an integer, "
                        "got 1.7"),
    "pipe-missing": ("pipelines", 0, {"flow_cap": _DROP}, ParseError,
                     "pipe n1-n2: missing fields ['flow_cap']"),
    "pipe-unknown": ("pipelines", 0, {"length": 1.0}, ParseError,
                     "pipe n1-n2: unknown fields ['length']"),
    "pipe-string": ("pipelines", 0, {"weymouth_c": "8"}, ParseError,
                    "pipe n1-n2: field 'weymouth_c' must be a number, got '8'"),
    "pipe-nan": ("pipelines", 3, {"flow_cap": math.nan}, ParseError,
                 "pipe n4-n5: field 'flow_cap' must be finite"),
    "tie-with-weymouth": ("pipelines", 2, {"weymouth_c": 8.0}, ValidationError,
                          "pipe n3-n4: tie pipe must not carry weymouth_c"),
    "internal-without-weymouth": ("pipelines", 0, {"weymouth_c": _DROP},
                                  ValidationError,
                                  "pipe n1-n2: internal pipe needs weymouth_c"),
    "source-missing": ("gas_sources", 1, {"cost_c0": _DROP}, ParseError,
                       "source s2: missing fields ['cost_c0']"),
    "source-unknown": ("gas_sources", 1, {"cost_c2": 0.0}, ParseError,
                       "source s2: unknown fields ['cost_c2']"),
    "source-bool": ("gas_sources", 1, {"g_max": True}, ParseError,
                    "source s2: field 'g_max' must be a number, got True"),
    "top-missing": (None, None, {"gas_sources": _DROP}, ParseError,
                    "instance: missing fields ['gas_sources']"),
    "top-unknown": (None, None, {"name": "x"}, ParseError,
                    "instance: unknown fields ['name']"),
    "num-areas-float": (None, None, {"num_areas": 2.0}, ParseError,
                        "num_areas must be an integer"),
    "num-areas-string": (None, None, {"num_areas": "2"}, ParseError,
                         "num_areas must be an integer"),
    "num-areas-bool": (None, None, {"num_areas": True}, ParseError,
                       "num_areas must be an integer"),
}


@pytest.mark.parametrize("key,at,change,error,message",
                         list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_entry_message(tmp_path, key, at, change, error, message):
    doc = json.load(open(ogpf.instance_path("small2area")))
    entry = doc if key is None else doc[key][at]
    for field, value in change.items():
        if value is _DROP:
            del entry[field]
        else:
            entry[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(error) as exc:
        ogpf.load_instance(path)
    assert exc.type is error
    assert str(exc.value) == message


@pytest.mark.parametrize("key,value,message", [
    ("lines", [["b1", "b2", 0.005]],
     "lines[0] must be an object, got ['b1', 'b2', 0.005]"),
    ("gas_sources", [{"id": "s1", "node": "n1", "g_min": 0.0, "g_max": 1.0,
                      "cost_c1": 0.0, "cost_c0": 0.0}, "s2"],
     "gas_sources[1] must be an object, got 's2'"),
    ("lines", {"b1-b2": {"from": "b1", "to": "b2", "reactance": 0.005}},
     "lines must be a list of objects"),
])
def test_non_object_entry_is_a_parse_error(tmp_path, key, value, message):
    doc = json.load(open(ogpf.instance_path("small2area")))
    doc[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as exc:
        ogpf.load_instance(path)
    assert str(exc.value) == message


def test_readme_example_follows_the_schema():
    """Every entry of the README's file-format example reads as its entity,
    so the documented keys cannot drift from the dataclass fields."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme[readme.index("## Instance files"):]
    doc = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    assert set(doc) == {"num_areas", *_COLLECTIONS}
    for key, (cls, label) in _COLLECTIONS.items():
        assert doc[key]
        for entry in doc[key]:
            assert isinstance(_read(cls, label, entry), cls)


def test_scale_demands(small2area):
    scaled = ogpf.scale_demands(small2area,
                                [2.0] * len(small2area.buses),
                                [0.5] * len(small2area.gas_nodes))
    assert scaled.buses[0].demand_e == 2.0 * small2area.buses[0].demand_e
    assert scaled.gas_nodes[1].demand_g == 0.5 * small2area.gas_nodes[1].demand_g
    # untouched fields survive
    assert scaled.pipelines == small2area.pipelines
