"""Parameter sweeps: classify along a grid, write CSV/JSON, summarize bands."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .assembly import STACK_CHUNK, assemble_outer
from .graphs import MetricGraph
from .positivity import classify
# sweep no longer calls pole_scan; the name stays because the benchmark's
# tracer wraps dtnpos.sweep.pole_scan and requires it to resolve
from .spectra import near_pole, pole_scan  # noqa: F401

TAG_POLE = "pole"
# a row's eigenvalues are accurate to about SIGN_TOL * max|eig|; 12 digits
# round each by at most 5e-12 * |e|, inside half that band
EIG_FORMAT = "%.12g"


@dataclass(frozen=True, eq=False)
class SweepTable:
    """One sweep as columns, one row per grid sample."""
    lam: np.ndarray          # (N,) the grid
    eigenvalues: np.ndarray  # (N, m) ascending, NaN on pole rows
    tag: np.ndarray          # (N,) str objects, "pole" on singular samples
    near_pole: np.ndarray    # (N,) bool


@dataclass(frozen=True)
class Band:
    lo: float
    hi: float
    tag: str
    count: int


def sweep(g: MetricGraph, lo: float, hi: float, steps: int) -> SweepTable:
    """Classify the outer matrix on a uniform grid of `steps` samples.

    The grid is the stack axis: each chunk of STACK_CHUNK samples is
    assembled, reduced and classified by one call each, so memory stays
    bounded for any number of steps.  The eigenvalue columns are the ones
    classify computes for its verdicts: one eigendecomposition per sample.
    The sign pattern flips exactly at a pole, so classifications remain valid
    arbitrarily close to one; near_pole flags only the tight zone where the
    assembly loses precision: the samples within
    spectra.NEAR_POLE_REACH * max(1, |lam|) of an edge or inner pole, one
    beyond the ends of the window included.
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

    eigs = np.full((steps, g.n_outer), math.nan)
    tags = np.full(steps, TAG_POLE, dtype=object)
    singular, negative = [], []
    for at in range(0, steps, STACK_CHUNK):
        D = assemble_outer(g, grid[at:at + STACK_CHUNK])
        ok = ~D.singular
        live = at + np.flatnonzero(ok)
        tags[live], eigs[live] = classify(D.entries[ok])
        singular.append(D.singular)
        negative.append(D.inner_negative)
    near = near_pole(g, grid, np.concatenate(singular),
                     None if negative[0] is None else np.concatenate(negative))
    return SweepTable(grid, eigs, tags, near)


def report(table: SweepTable) -> list[Band]:
    """Merge runs of consecutive equal classifications into bands.

    near_pole samples are skipped: they neither open, extend, nor close a
    band, so a pole splits the surrounding samples into separate bands.
    """
    keep = ~table.near_pole
    # a band starts (ends) at a kept sample whose predecessor (successor) is
    # missing, skipped or tagged otherwise
    cut = (table.tag[1:] != table.tag[:-1]) | ~keep[1:] | ~keep[:-1]
    starts = np.flatnonzero(keep & np.r_[True, cut]).tolist()
    ends = np.flatnonzero(keep & np.r_[cut, True]).tolist()
    lam = table.lam.tolist()
    return [Band(lo=lam[a], hi=lam[b], tag=table.tag[a], count=b - a + 1)
            for a, b in zip(starts, ends)]


def write_csv(table: SweepTable, out: TextIO) -> None:
    n, m = table.eigenvalues.shape
    if not n:
        raise ValueError("nothing to write")
    header = ["lambda"] + ["eig_%d" % (i + 1) for i in range(m)] + ["class", "near_pole"]
    # lambda at 17 digits round-trips, so the grid reads back bit for bit;
    # "%g" prints NaN as "nan", the eigenvalues of a pole row
    row = "%.17g," + (EIG_FORMAT + ",") * m + "%s,%s\n"
    near = ["true" if x else "false" for x in table.near_pole.tolist()]
    out.write(",".join(header) + "\n")
    out.write("".join(map(row.__mod__, zip(table.lam.tolist(), *table.eigenvalues.T.tolist(),
                                           table.tag.tolist(), near))))


def write_json(table: SweepTable, out: TextIO) -> None:
    # the eigenvalues are the CSV's, rounded to the same digits
    payload = [
        {
            "lambda": lam,
            "eigenvalues": [None if math.isnan(e) else float(EIG_FORMAT % e) for e in eigs],
            "class": tag,
            "near_pole": near,
        }
        for lam, eigs, tag, near in zip(table.lam.tolist(), table.eigenvalues.tolist(),
                                        table.tag.tolist(), table.near_pole.tolist())
    ]
    json.dump(payload, out, indent=2)
    out.write("\n")
