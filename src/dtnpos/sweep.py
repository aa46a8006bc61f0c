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
from .spectra import pole_scan

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
    precision.  Samples that the assembly marks singular (an edge pole or a
    singular inner block) get the tag "pole" and NaN eigenvalues.
    """
    if steps < 2:
        raise ValueError("need at least two samples")
    grid = np.linspace(lo, hi, steps)
    poles = np.array(pole_scan(g, lo, hi))
    reach = 1e-9 * np.maximum(1.0, np.abs(poles))

    m = g.n_outer
    records = []
    for at in range(0, steps, STACK_CHUNK):
        lams = grid[at:at + STACK_CHUNK]
        near = (np.abs(lams[:, None] - poles) <= reach).any(axis=1)
        D = assemble_outer(g, lams)
        live = D.entries[~D.singular]
        eigs = iter(np.linalg.eigvalsh(live).tolist())
        verdicts = iter(classify(live, cfg))
        for lam, close, singular in zip(lams.tolist(), near.tolist(), D.singular.tolist()):
            if singular:
                records.append(SweepRecord(lam, (math.nan,) * m, TAG_POLE, True))
            else:
                records.append(SweepRecord(lam, tuple(next(eigs)), next(verdicts).tag, close))
    return records


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


def _fmt(x: float) -> str:
    if math.isnan(x):
        return "nan"
    return "%.17g" % x


def write_csv(records: Sequence[SweepRecord], out: TextIO) -> None:
    if not records:
        raise ValueError("nothing to write")
    m = len(records[0].eigenvalues)
    header = ["lambda"] + ["eig_%d" % (i + 1) for i in range(m)] + ["class", "near_pole"]
    out.write(",".join(header) + "\n")
    for rec in records:
        row = [_fmt(rec.lam)] + [_fmt(e) for e in rec.eigenvalues]
        row += [rec.tag, "true" if rec.near_pole else "false"]
        out.write(",".join(row) + "\n")


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
