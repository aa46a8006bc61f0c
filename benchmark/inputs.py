"""Seeded inputs for the benchmark: graph files and the CLI request list of a workload.

Each workload is a fixed list of request *slots*.  A slot fixes the request
kind, the graph family and its size; the seed picks the topology, the edge
lengths and the parameter window inside the slot.  Catalog graphs keep
seed-independent parameters, so every seed runs the same reference core plus
seeded variations of the same shape and cost class.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

# the surd scheme of the test suite's random graph generator: distinct
# squarefree radicands with scales 1/2, 1, 3/2; some (scale, prime) pairs of
# it trip the rational-independence probe, which the search workload counts
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
SCALES = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
# shorter surds for the spectra workload keep the reference FEM meshes small
SPECTRA_SCALES = (Fraction(1, 4), Fraction(3, 8), Fraction(1, 2))


@dataclass
class Request:
    """One CLI call: argv without --out, plus what the verifier needs to know."""

    kind: str            # subcommand
    slot: str            # slot label, e.g. "surd-tree-4" or "catalog:two-cluster"
    graph: str           # graph file name inside the input directory
    argv: list[str]
    expect_rc: int = 0
    out_file: bool = False   # request writes its bulk output through --out
    params: dict = field(default_factory=dict)


@dataclass
class Inputs:
    graphs: dict[str, dict]      # file name -> JSON graph description
    requests: list[Request]      # one pass
    independence_false_alarms: int = 0   # seeded length sets the probe calls dependent
    length_sets: int = 0                 # seeded length sets probed


def _expr(scale: Fraction, p: int) -> str:
    return f"sqrt({p})" if scale == 1 else f"{scale}*sqrt({p})"


def _surd_lengths(rng: np.random.Generator, k: int, scales=SCALES) -> list[str]:
    primes = rng.choice(PRIMES, size=k, replace=False)
    picked = rng.choice(len(scales), size=k)
    return [_expr(scales[int(s)], int(p)) for p, s in zip(primes, picked)]


def _tree_pairs(rng, n: int) -> set[tuple[int, int]]:
    return {(int(rng.integers(0, i)), i) for i in range(1, n)}


def _add_chords(rng, n: int, pairs: set, n_edges: int) -> set:
    while len(pairs) < n_edges:
        i, j = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        pairs.add((i, j))
    return pairs


def _graph(n: int, pairs, lengths, outer_idx) -> dict:
    names = ["v%d" % (i + 1) for i in range(n)]
    edges = []
    for (i, j), L in zip(sorted(pairs), lengths):
        key = "length_expr" if isinstance(L, str) else "length"
        edges.append({"u": names[i], "v": names[j], key: L})
    return {"vertices": names, "edges": edges, "outer": [names[k] for k in sorted(outer_idx)]}


def _outer(rng, n: int, n_outer: int) -> list[int]:
    return [int(k) for k in rng.choice(n, size=n_outer, replace=False)]


def surd_graph(rng, family: str, n: int, n_edges: int | None = None,
               n_outer: int = 2, scales=SCALES) -> dict:
    """Connected simple graph on n vertices with surd lengths.

    family: "tree" (random recursive tree), "cycle" (one n-cycle),
    "all-outer" (tree plus chords, every vertex outer) or "random" (tree
    plus chords up to n_edges edges, n_outer random outer vertices).
    """
    if family == "cycle":
        pairs = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    else:
        pairs = _tree_pairs(rng, n)
        if family != "tree":
            pairs = _add_chords(rng, n, pairs, n_edges if n_edges is not None else n + n // 3)
    outer = list(range(n)) if family == "all-outer" else _outer(rng, n, n_outer)
    return _graph(n, pairs, _surd_lengths(rng, len(pairs), scales), outer)


def pendant_pair_graph(rng, n_base: int) -> dict:
    """Surd base graph plus two equal-length pendant edges at one outer vertex.

    The pendant tips are inner (Neumann) vertices; equal lengths give a double
    inner pole at ((2k+1) pi / 2L)^2 for every k.
    """
    base = surd_graph(rng, "random", n_base, n_base, n_outer=n_base - 1, scales=SPECTRA_SCALES)
    hub = base["outer"][int(rng.integers(0, len(base["outer"])))]
    length = float(rng.uniform(0.6, 1.4))
    for tip in ("t1", "t2"):
        base["vertices"].append(tip)
        base["edges"].append({"u": hub, "v": tip, "length": length})
    return base


def commensurable_graph(rng, n: int) -> dict:
    """Tree plus one chord with lengths in {2,...,6} / 4, some vertices inner."""
    pairs = _add_chords(rng, n, _tree_pairs(rng, n), n)
    lengths = [int(rng.integers(2, 7)) / 4.0 for _ in pairs]
    return _graph(n, pairs, lengths, _outer(rng, n, max(2, n - 2)))


def _lengths_of(raw: dict) -> list[float]:
    from dtnpos.graphs import parse_length_expr
    return [parse_length_expr(e["length_expr"]) if "length_expr" in e else float(e["length"])
            for e in raw["edges"]]


class _PassWriter:
    def __init__(self, seed: int, workload: str):
        self.rng = np.random.default_rng([seed, sum(map(ord, workload))])
        self.graphs: dict[str, dict] = {}
        self.requests: list[Request] = []

    def graph(self, slot: str, raw: dict) -> str:
        name = "g%02d-%s.json" % (len(self.graphs), slot.replace(":", "-"))
        self.graphs[name] = raw
        return name

    def add(self, kind, slot, graph, args, **kw) -> None:
        self.requests.append(Request(kind=kind, slot=slot, graph=graph,
                                     argv=[kind, "--graph", graph] + [str(a) for a in args], **kw))


def _catalog(name: str) -> dict:
    from dtnpos.catalog import catalog_raw
    return json.loads(json.dumps(catalog_raw(name)))


def _zero_grid(lo_guess: float, hi_guess: float, steps: int) -> tuple[float, float]:
    """Window close to (lo_guess, hi_guess) whose grid of `steps` points contains 0.

    The sample at zero exercises the series branch of the edge coefficients.
    """
    h = (hi_guess - lo_guess) / (steps - 1)
    below = max(1, round(-lo_guess / h))
    return -below * h, (steps - 1 - below) * h


def _edge_pole_window(raw: dict, poles: int) -> float:
    """Upper window end holding about `poles` closed-form edge poles."""
    total = sum(_lengths_of(raw))
    return (poles * math.pi / total) ** 2


def _sweep(b: _PassWriter) -> None:
    """Catalog graphs on fixed windows alternating with seeded surd graphs of fixed shape."""
    # steps give every request about the same cost, so p50 and the tail do not
    # sit on the boundary between a cheap and an expensive group of slots
    catalog_slots = [  # (name, lo, hi, steps)
        ("interval", -5.0, 60.0, 1501),
        ("path-3", -5.0, 60.0, 900),
        ("lasso-4", -5.0, 80.0, 950),
        ("star-5", -5.0, 60.0, 850),
        ("braid-5", -5.0, 60.0, 800),
        ("two-cluster", -5.0, 60.0, 420),
    ]
    surd_slots = [  # (family, vertices, edges, outer, steps)
        ("tree", 4, 3, 2, 700),
        ("cycle", 6, 6, 3, 650),
        ("all-outer", 8, 10, 8, 1100),
        ("random", 12, 14, 3, 300),   # many inner vertices
        ("random", 3, 3, 2, 800),
        ("random", 10, 12, 5, 400),
    ]
    for (name, lo, hi, steps), (family, n, n_edges, n_outer, s_steps) in zip(catalog_slots, surd_slots):
        slot = "catalog:" + name
        lo, hi = _zero_grid(lo, hi, steps)
        b.add("sweep", slot, b.graph(slot, _catalog(name)),
              ["--from", repr(lo), "--to", repr(hi), "--steps", steps, "--report"],
              out_file=True, params={"lo": lo, "hi": hi, "steps": steps})

        slot = "surd-%s-%d" % (family, n)
        raw = surd_graph(b.rng, family, n, n_edges, n_outer)
        hi = max(20.0, _edge_pole_window(raw, int(b.rng.integers(8, 16))))
        lo, hi = _zero_grid(-float(b.rng.uniform(2.0, 10.0)), hi, s_steps)
        b.add("sweep", slot, b.graph(slot, raw),
              ["--from", repr(lo), "--to", repr(hi), "--steps", s_steps, "--report"],
              out_file=True, params={"lo": lo, "hi": hi, "steps": s_steps})


POLE_SAMPLES = 2000  # the poles subcommand's default scan grid


def _spectra(b: _PassWriter) -> None:
    """Pole scans on wide windows, FEM spectra and commensurable families."""
    from dtnpos.graphs import validate
    from dtnpos.spectra import lambda_1

    for name, hi in (("two-cluster", 400.0), ("star-5", 120.0), ("lasso-4", 150.0)):
        slot = "catalog:" + name
        b.add("poles", slot, b.graph(slot, _catalog(name)),
              ["--from", 0.0, "--to", hi, "--samples", POLE_SAMPLES],
              params={"lo": 0.0, "hi": hi, "samples": POLE_SAMPLES})

    seeded = [("surd-inner-%d" % k, surd_graph(b.rng, "random", n, n + 1, 2, SPECTRA_SCALES))
              for k, n in enumerate((5, 6))]
    seeded += [("pendant-pair-%d" % k, pendant_pair_graph(b.rng, n)) for k, n in enumerate((3, 4))]
    for slot, raw in seeded:
        graph = b.graph(slot, raw)
        hi = _edge_pole_window(raw, 24)
        b.add("poles", slot, graph, ["--from", 0.0, "--to", repr(hi), "--samples", POLE_SAMPLES],
              params={"lo": 0.0, "hi": hi, "samples": POLE_SAMPLES})
        if slot.endswith("-1"):
            b.add("spectrum", slot, graph, ["--kind", "kirchhoff", "--count", 8],
                  params={"count": 8, "resolution": 32.0})

    for k, n in enumerate((4, 5)):
        slot = "commensurable-%d" % k
        raw = commensurable_graph(b.rng, n)
        mu = float(b.rng.uniform(0.2, 0.8)) * lambda_1(validate(raw))
        p = sorted(int(x) for x in b.rng.choice(np.arange(1, 8), size=3, replace=False))
        b.add("commensurable", slot, b.graph(slot, raw),
              ["--mu", repr(mu), "--p", ",".join(map(str, p))], params={"mu": mu, "p": p})


# The lattice route costs 0.1 to 4 s per request depending on how many CVP
# attempts a graph needs, far more than seeds can average out in one run; its
# graphs therefore come from this fixed seed, like the catalog graphs.
LATTICE_CORE_SEED = 2502


def _search(b: _PassWriter) -> list[dict]:
    """Search requests; returns the surd graphs passed with --assert-independent, to be probed."""
    from dtnpos.graphs import is_tree, reduced_graph, validate

    def finds(slot, graph, raw, above, extra, kinds):
        tree = is_tree(reduced_graph(validate(raw)))
        for kind in kinds:
            b.add(kind, slot, graph, ["--above", repr(above)] + extra,
                  expect_rc=2 if kind == "find-eventual" and tree else 0,
                  params={"above": above})

    all_finds = ("find-positive", "find-nonpositive", "find-eventual")
    for name in ("path-3", "lasso-4", "star-5", "braid-5"):
        slot = "catalog:" + name
        raw = _catalog(name)
        finds(slot, b.graph(slot, raw), raw, 30.0, [], all_finds)

    surd = []
    # scan route: find-eventual only up to four edges, where its hunt stays short
    for n, n_edges in ((4, 3), (4, 4), (5, 4), (6, 5), (7, 6), (7, 7)):
        raw = surd_graph(b.rng, "random", n, n_edges, n - 1)
        surd.append(raw)
        slot = "surd-%dv%de" % (n, n_edges)
        kinds = all_finds if n_edges <= 4 else all_finds[:2]
        finds(slot, b.graph(slot, raw), raw, float(b.rng.uniform(10.0, 200.0)),
              ["--assert-independent"], kinds)
    # levels 1 and 2 on seeded six-edge graphs: level 2 takes the lattice route
    for k in range(3):
        raw = surd_graph(b.rng, "random", 6, 6, 5)
        surd.append(raw)
        slot = "surd-6edge-level2-%d" % k
        b.add("kronecker", slot, b.graph(slot, raw),
              ["--gamma=" + ",".join(["1"] * 6), "--count", 2, "--assert-independent"],
              params={"count": 2})

    core = np.random.default_rng(LATTICE_CORE_SEED)
    lattice = [("catalog:braid-5", _catalog("braid-5"), 4), ("catalog:star-5", _catalog("star-5"), 4)]
    lattice += [("core-%dedge-%d" % (ne, k), surd_graph(core, "random", ne, ne, ne - 1), count)
                for k, (ne, count) in enumerate(((6, 3), (6, 3), (7, 2)))]
    for slot, raw, count in lattice:
        gammas = ",".join(["1"] * len(raw["edges"]))
        extra = [] if slot.startswith("catalog:") else ["--assert-independent"]
        b.add("kronecker", slot, b.graph(slot, raw),
              ["--gamma=" + gammas, "--count", count] + extra, params={"count": count})
        if extra:
            surd.append(raw)
    return surd


def build(workload: str, seed: int) -> Inputs:
    from dtnpos.search import rationally_independent

    b = _PassWriter(seed, workload)
    surd = []
    if workload == "sweep":
        _sweep(b)
    elif workload == "spectra":
        _spectra(b)
    elif workload == "search":
        surd = _search(b)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    alarms = sum(not rationally_independent(_lengths_of(raw)) for raw in surd)
    return Inputs(graphs=b.graphs, requests=b.requests,
                  independence_false_alarms=alarms, length_sets=len(surd))


def write(inputs: Inputs, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, raw in inputs.graphs.items():
        (directory / name).write_text(json.dumps(raw, indent=1), encoding="utf-8")
