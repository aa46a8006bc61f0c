"""Parameter sweeps: classify along a grid, write CSV/JSON, summarize bands."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .assembly import STACK_CHUNK, assemble_outer
from .graphs import MetricGraph
from .positivity import DEFAULT_CONFIG, ClassifierConfig, classify
# sweep no longer calls pole_scan; the name stays because the benchmark's
# tracer wraps dtnpos.sweep.pole_scan and requires it to resolve
from .spectra import near_pole, pole_scan  # noqa: F401

TAG_POLE = "pole"


@dataclass(frozen=True)
class SweepRecord:
    lam: float
    eigenvalues: tuple[float, ...]
    tag: str
    near_pole: bool


@dataclass(frozen=True)
class Band:
    lo: float
    hi: float
    tag: str
    count: int


def sweep(g: MetricGraph, lo: float, hi: float, steps: int,
          cfg: ClassifierConfig = DEFAULT_CONFIG) -> list[SweepRecord]:
    """Classify the outer matrix on a uniform grid of `steps` samples.

    The grid is the stack axis: each chunk of STACK_CHUNK samples is
    assembled, reduced, pattern-checked and classified by one call each, so
    memory stays bounded for any number of steps.  The sign pattern flips
    exactly at a pole, so classifications remain valid arbitrarily close to
    one; near_pole flags only the tight zone where the assembly loses
    precision: the samples within spectra.NEAR_POLE_REACH * max(1, |lam|)
    of an edge or inner pole, one beyond the ends of the window included.
    The flags come from the inertia of the inner block that the Schur
    reduction computes at every sample (spectra.near_pole), read once after
    the last chunk; no pole is located.  Samples that the assembly marks
    singular (an edge pole or a singular inner block) get the tag "pole" and
    NaN eigenvalues.
    """
    if steps < 2:
        raise ValueError("need at least two samples")
    if not -math.inf < lo < hi < math.inf:
        raise ValueError("the sweep range must be finite and nonempty")
    grid = np.linspace(lo, hi, steps)

    m = g.n_outer
    rows, singular, negative = [], [], []
    for at in range(0, steps, STACK_CHUNK):
        D = assemble_outer(g, grid[at:at + STACK_CHUNK])
        live = D.entries[~D.singular]
        eigs = iter(np.linalg.eigvalsh(live).tolist())
        verdicts = iter(classify(live, cfg))
        for pole in D.singular.tolist():
            rows.append(((math.nan,) * m, TAG_POLE) if pole
                        else (tuple(next(eigs)), next(verdicts).tag))
        singular.append(D.singular)
        negative.append(D.inner_negative)
    near = near_pole(g, grid, np.concatenate(singular),
                     None if negative[0] is None else np.concatenate(negative))
    return [SweepRecord(lam, values, tag, close)
            for lam, (values, tag), close in zip(grid.tolist(), rows, near.tolist())]


def report(records: Sequence[SweepRecord]) -> list[Band]:
    """Merge consecutive equal classifications into bands.

    near_pole samples are skipped: they neither open, extend, nor close a
    band, so a pole splits the surrounding samples into separate bands.
    """
    bands: list[Band] = []
    current: list[SweepRecord] = []

    def flush():
        if current:
            bands.append(Band(lo=current[0].lam, hi=current[-1].lam,
                              tag=current[0].tag, count=len(current)))
            current.clear()

    for rec in records:
        if rec.near_pole:
            flush()
            continue
        if current and rec.tag != current[0].tag:
            flush()
        current.append(rec)
    flush()
    return bands


def write_csv(records: Sequence[SweepRecord], out: TextIO) -> None:
    if not records:
        raise ValueError("nothing to write")
    m = len(records[0].eigenvalues)
    header = ["lambda"] + ["eig_%d" % (i + 1) for i in range(m)] + ["class", "near_pole"]
    # "%.17g" prints NaN as "nan", the eigenvalues of a pole row
    row = "%.17g," * (m + 1) + "%s,%s\n"
    out.write(",".join(header) + "\n")
    out.write("".join([row % (rec.lam, *rec.eigenvalues, rec.tag,
                              "true" if rec.near_pole else "false") for rec in records]))


def write_json(records: Sequence[SweepRecord], out: TextIO) -> None:
    payload = [
        {
            "lambda": rec.lam,
            "eigenvalues": [None if math.isnan(e) else e for e in rec.eigenvalues],
            "class": rec.tag,
            "near_pole": rec.near_pole,
        }
        for rec in records
    ]
    json.dump(payload, out, indent=2)
    out.write("\n")
