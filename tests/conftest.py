import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import ogpf
from ogpf.mipbuild import QuadBlock, VarIndex, build_model
from ogpf.pwa import PwaConfig, config_columns
from ogpf.recovery import PressureLp

BUNDLED = ["small2area", "single1area", "chain2area", "medium3area",
           "loop1area"]
SMALL = ["small2area", "single1area", "chain2area"]
MULTI_AREA = ["small2area", "chain2area", "medium3area"]

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def instances():
    return {name: ogpf.load_instance(ogpf.instance_path(name))
            for name in BUNDLED}


@pytest.fixture(scope="session")
def small2area(instances):
    return instances["small2area"]


@pytest.fixture(scope="session")
def small2area_model(small2area):
    model, index = build_model(small2area, PwaConfig(r=2))
    return model, index


def generator():
    """``perfbench/gen.py``, loaded read-only as a module."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def no_quad(n):
    """A block of zero quadratic rows over ``n`` columns."""
    return QuadBlock(n, [], [], [], [], [], [], [])


def pair_index(r):
    """Column index of one internal pipe i-j, both orientations, at ``r``
    regions, in the column order of ``build_model``."""
    index = VarIndex()
    for key in (("i", "j"), ("j", "i")):
        index.add("phi", key)
        index.add("ypsi", key)
        for m in range(1, r + 1):
            index.add("ym", key, m)
        index.add("dpsi", key)
        for kind in ("alpha", "beta", "dm"):
            for m in range(1, r + 1):
                index.add(kind, key, m)
    index.add("psi", "i")
    index.add("psi", "j")
    return index


def row_values(rows, x):
    """Left-hand side of every row of ``rows`` (``pwa.LinearRows``) at
    ``x``, each summed in emission order."""
    return np.bincount(rows.row, rows.coef * x[rows.col],
                       minlength=rows.rhs.size)


def direct_lp(rows, theta, lo, hi):
    """The pressure LP whose point is the pressures themselves, so that its
    rows and targets are ``rows`` and ``theta``."""
    n = len(lo)
    return PressureLp([f"n{t}" for t in range(n)], np.arange(n), np.zeros(n),
                      sp.csr_matrix(rows), theta, lo, hi)


def expand_point(x, index, config, big):
    """A configuration-model point ``x``, its columns named by ``index``, on
    the columns of the big-M model that ``big`` indexes: by key, plus the
    binaries and products ``pwa.config_columns`` sets for ``config``."""
    out = np.zeros(len(big))
    out[[big.col(*key) for key in index.keys("col")]] = x
    fixed, aliases = config_columns(config, big.curves, big.col)
    out[list(fixed)] = list(fixed.values())
    for j, (src, coef) in aliases.items():
        out[j] = coef * out[src]
    return out


def make_instance(*, num_areas=1, buses=None, lines=None, generators=None,
                  gas_nodes=None, pipelines=None, gas_sources=None):
    """Small-instance builder with a feasible single-area default."""
    buses = buses if buses is not None else [
        ogpf.Bus("b1", 1, 20.0, -0.6, 0.6),
        ogpf.Bus("b2", 1, 10.0, -0.6, 0.6),
    ]
    lines = lines if lines is not None else [
        ogpf.PowerLine("b1", "b2", 0.005),
    ]
    generators = generators if generators is not None else [
        ogpf.Generator("g1", "b1", "non_gas_fueled", 0.0, 100.0,
                       cost_c2=1e-5, cost_c1=0.02, cost_c0=0.0),
    ]
    gas_nodes = gas_nodes if gas_nodes is not None else [
        ogpf.GasNode("n1", 1, 10.0, 1.0, 900.0),
        ogpf.GasNode("n2", 1, 8.0, 1.0, 900.0),
    ]
    pipelines = pipelines if pipelines is not None else [
        ogpf.Pipeline("n1", "n2", 150.0, weymouth_c=8.0),
    ]
    gas_sources = gas_sources if gas_sources is not None else [
        ogpf.GasSource("s1", "n1", 0.0, 100.0, 0.005, 0.0),
    ]
    return ogpf.NetworkInstance(num_areas, tuple(buses), tuple(lines),
                                tuple(generators), tuple(gas_nodes),
                                tuple(pipelines), tuple(gas_sources))


def small_witness_point(model, index):
    """Hand-constructed feasible point for the small two-area instance:
    both areas self-balanced, zero tie flow, r=2 chords."""
    n = model.num_vars
    x = np.full(n, np.nan)

    def put(kind, owner, val, m=None):
        x[index.col(kind, owner, m)] = val

    p2 = 60.0
    dgu2 = 0.002 * p2 * p2 + 0.9 * p2 + 2.0
    put("p", "g1", 80.0)
    put("dgu", "g1", 0.0)
    put("p", "g2", p2)
    put("dgu", "g2", dgu2)
    put("theta", "b1", 0.15)
    put("theta", "b2", 0.0)
    put("theta", "b3", 0.0)
    put("theta", "b4", 0.2)
    s2 = 15.0 + dgu2
    put("gs", "s1", 45.0)
    put("gs", "s2", s2)

    a = 150.0 / 64.0  # positive-region chord slope at r=2, cap 150, c_f 8
    flows = {("n1", "n2"): 25.0, ("n2", "n3"): 10.0, ("n4", "n5"): s2 - 5.0}
    psi = {"n3": 100.0, "n5": 100.0}
    psi["n2"] = psi["n3"] + a * flows[("n2", "n3")]
    psi["n1"] = psi["n2"] + a * flows[("n1", "n2")]
    psi["n4"] = psi["n5"] + a * flows[("n4", "n5")]
    for node, val in psi.items():
        put("psi", node, val)
    put("phi", ("n3", "n4"), 0.0)
    put("phi", ("n4", "n3"), 0.0)

    for key, phi in flows.items():
        mirror = (key[1], key[0])
        put("phi", key, phi)
        put("phi", mirror, -phi)
        put("ypsi", key, psi[key[0]])
        put("ypsi", mirror, 0.0)
        put("ym", key, 0.0, 1)
        put("ym", key, phi, 2)
        put("ym", mirror, -phi, 1)
        put("ym", mirror, 0.0, 2)
        put("dpsi", key, 1.0)
        put("dpsi", mirror, 0.0)
        for m, (ak, bk, dk) in enumerate([(0.0, 1.0, 0.0), (1.0, 1.0, 1.0)],
                                         start=1):
            put("alpha", key, ak, m)
            put("beta", key, bk, m)
            put("dm", key, dk, m)
        for m, (ak, bk, dk) in enumerate([(1.0, 1.0, 1.0), (1.0, 0.0, 0.0)],
                                         start=1):
            put("alpha", mirror, ak, m)
            put("beta", mirror, bk, m)
            put("dm", mirror, dk, m)
    assert not np.isnan(x).any(), "witness point must cover every column"
    return x
