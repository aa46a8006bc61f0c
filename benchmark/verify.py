"""Checks of every request's output, run after the timed region.

A failure is "known" when it matches a defect the roadmap already lists:
pole_scan tracks the sign of det C on a grid, so an even number of inner
poles inside one grid cell (a double pole, or two close poles) leaves the
sign unchanged and is missed.
Known failures still count as failed requests; any other failure means the
program's output is wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from dtnpos import positivity
from dtnpos.assembly import assemble_outer
from dtnpos.graphs import load_graph
from dtnpos.positivity import classify
from dtnpos.search import TargetSpec, parse_gamma
from dtnpos.spectra import DEFAULT_RESOLUTION, _fem_matrices, dirichlet_spectrum_full

KNOWN_DEFECT = ("pole_scan misses an even number of inner poles within one grid cell, "
                "such as a double pole (ROADMAP open item 3)")
# classifier tag -> oracle verdict, as in the acceptance test of the two routes
EXPECTED_ORACLE = {"strong": "strict_all", "eventual": "strict_eventually",
                   "none": "never", "positive": "never"}
TAGS = {"strong", "positive", "eventual", "none", "marginal", "pole"}
WANTED = {"find-positive": "strong", "find-nonpositive": "none", "find-eventual": "eventual"}
ORACLE_ROWS = 6          # sweep rows per request checked against the oracle
REF_RESOLUTION = 96      # reference FEM mesh (elements per unit length), halved for the estimate


@dataclass
class Outcome:
    errors: list[str] = field(default_factory=list)
    known: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.errors or self.known)


class Verifier:
    def __init__(self, input_dir, seed: int):
        self.dir = input_dir
        self.seed = seed
        self._graphs: dict = {}
        self._fem_cache: dict = {}
        self._done: dict = {}
        self.oracle_checked = 0
        self.oracle_skipped = 0
        self.oracle_resolution_limited = 0

    def graph(self, name: str):
        if name not in self._graphs:
            self._graphs[name] = load_graph(str(self.dir / name))
        return self._graphs[name]

    def check(self, req, rc, stdout: str, out_text: str | None) -> Outcome:
        """Verify one request; identical output of a repeated request reuses the verdict."""
        key = (req.slot, req.kind, tuple(req.argv), rc, stdout, out_text)
        if key not in self._done:
            self._done[key] = self._check(req, rc, stdout, out_text)
        return self._done[key]

    def _check(self, req, rc, stdout, out_text) -> Outcome:
        res = Outcome()
        if rc != req.expect_rc:
            res.errors.append(f"exit code {rc!r}, expected {req.expect_rc}")
            return res
        if rc != 0:
            return res
        check = self._find if req.kind in WANTED else getattr(self, "_" + req.kind)
        try:
            check(req, stdout, out_text, res)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            res.errors.append(f"unreadable output: {exc!r}")
        return res

    # ---------------------------------------------------------------- sweep
    def _oracle(self, D, verdict, res: Outcome, where: str) -> None:
        """Classifier verdict against expm_oracle, skipping the gray zone the acceptance test skips."""
        oracle = positivity.expm_oracle(D)
        w = np.linalg.eigvalsh(-D.entries)
        scale = max(1.0, abs(w[-1]), abs(w[0]))
        gap = w[-1] - w[-2] if len(w) > 1 else math.inf
        min_proj = abs(verdict.evidence.get("min_projection", 1.0))
        tag = verdict.tag
        if tag == "marginal" or oracle.ambiguous or gap < 5e-3 * scale or min_proj < 1e-6:
            self.oracle_skipped += 1
            return
        self.oracle_checked += 1
        if (tag == "strong" and oracle.klass != "strict_all" and _nonnegative(D, oracle.times)
                and _connected(D)):
            # entries between outer vertices k steps apart grow like t^k at
            # small t and stay tiny when the coupling is weak (beta ~ e^{-sL}
            # below zero), under the oracle's 1e-13 strictness floor.  For a
            # symmetric Metzler generator, e^{tA} > 0 for all t > 0 exactly
            # when the off-diagonal support is connected, so such a row passes
            # only if no sampled entry is negative and the support, read
            # without the classifier's zero band, is connected; a reducible
            # matrix (true tag positive) still fails
            self.oracle_resolution_limited += 1
            return
        if EXPECTED_ORACLE[tag] != oracle.klass:
            res.errors.append(f"{where}: classifier says {tag}, oracle says {oracle.klass}")

    def _sweep(self, req, stdout, out_text, res: Outcome) -> None:
        g = self.graph(req.graph)
        p = req.params
        rows = list(csv.reader(io.StringIO(out_text)))
        m = g.n_outer
        header = ["lambda"] + ["eig_%d" % (i + 1) for i in range(m)] + ["class", "near_pole"]
        if rows[0] != header:
            res.errors.append(f"csv header {rows[0]}")
            return
        rows = rows[1:]
        if len(rows) != p["steps"]:
            res.errors.append(f"{len(rows)} csv rows, expected {p['steps']}")
            return
        lam = np.array([float(r[0]) for r in rows])
        eigs = np.array([[float(x) for x in r[1:1 + m]] for r in rows])
        tags = [r[1 + m] for r in rows]
        near = [r[2 + m] == "true" for r in rows]
        if not np.array_equal(lam, np.linspace(p["lo"], p["hi"], p["steps"])):
            res.errors.append("lambda column is not the requested grid")
        if set(tags) - TAGS:
            res.errors.append(f"unknown tags {set(tags) - TAGS}")
        pole = np.array([t == "pole" for t in tags])
        if not np.isnan(eigs[pole]).all() or not np.isfinite(eigs[~pole]).all():
            res.errors.append("eigenvalue columns do not match the pole rows")
        res.stats.update(samples=len(rows), pole_samples=int(pole.sum()),
                         marginal_samples=tags.count("marginal"))

        bands = json.loads(stdout)["bands"]
        if bands != _bands(lam, tags, near):
            res.errors.append("printed bands differ from the bands of the csv rows")

        rng = np.random.default_rng([self.seed, len(rows), m])
        candidates = np.flatnonzero(~pole & ~np.array(near))
        for k in rng.choice(candidates, size=min(ORACLE_ROWS, len(candidates)), replace=False):
            D = assemble_outer(g, float(lam[k]))
            ref = np.linalg.eigvalsh(D.entries)
            if not np.allclose(eigs[k], ref, rtol=1e-9, atol=1e-9 * max(1.0, np.abs(ref).max())):
                res.errors.append(f"row {k}: eigenvalues differ from a fresh assembly")
            verdict = classify(D)
            if verdict.tag != tags[k]:
                res.errors.append(f"row {k}: tag {tags[k]} differs from a fresh classification")
            self._oracle(D, verdict, res, f"row {k} (lambda={lam[k]:.6g})")

        if req.slot == "catalog:interval":
            self._interval_edges(bands, p, res)

    def _interval_edges(self, bands, p, res: Outcome) -> None:
        """Band edges of the unit interval fall at (pi k)^2, within one grid step."""
        step = (p["hi"] - p["lo"]) / (p["steps"] - 1)
        poles = [(math.pi * k) ** 2 for k in range(1, 100) if p["lo"] < (math.pi * k) ** 2 < p["hi"]]
        edges = [(a["hi"], b["lo"]) for a, b in zip(bands[:-1], bands[1:])]
        if len(edges) != len(poles):
            res.errors.append(f"interval: {len(edges)} band boundaries for {len(poles)} poles")
            return
        for (left, right), pole in zip(edges, poles):
            if not (pole - step <= left <= pole <= right <= pole + step):
                res.errors.append(f"interval: band edge ({left}, {right}) misses pole {pole}")

    # -------------------------------------------------------------- spectra
    def _fem(self, name: str, lam_max: float):
        """Reference Kirchhoff eigenvalues up to lam_max and their error estimates."""
        key = (name, lam_max)
        if key not in self._fem_cache:
            g = self.graph(name)
            fine = _fem_values(g, REF_RESOLUTION, lam_max)
            coarse = _fem_values(g, REF_RESOLUTION / 2, None)[:len(fine)]
            est = np.abs(fine - coarse) / 3.0
            self._fem_cache[key] = (fine, 2.0 * est + 1e-9 * np.maximum(1.0, fine))
        return self._fem_cache[key]

    def _poles(self, req, stdout, out_text, res: Outcome) -> None:
        g = self.graph(req.graph)
        lo, hi = req.params["lo"], req.params["hi"]
        poles = np.array(json.loads(stdout)["poles"], dtype=float)
        res.stats["poles_reported"] = len(poles)
        if len(poles) and (np.any(np.diff(poles) < 0) or poles[0] <= lo or poles[-1] >= hi):
            res.errors.append("poles unsorted or outside the window")
        edge = np.array([v for v in dirichlet_spectrum_full(g, hi).values if lo < v < hi])
        fem, tol = self._fem(req.graph, 1.2 * hi)

        missed = [v for v, t in zip(fem, tol)
                  if lo + t < v < hi - t and not (len(poles) and np.abs(poles - v).min() <= t)]
        # missed eigenvalues closer than two scan cells form one group; an even
        # group leaves the sign of det C unchanged across the cell holding it
        cell = 2.0 * (hi - lo) / req.params["samples"]
        groups = [[v] for v in missed[:1]]
        for a, b in zip(missed[:-1], missed[1:]):
            if b - a <= cell:
                groups[-1].append(b)
            else:
                groups.append([b])
        for grp in groups:
            msg = "FEM eigenvalues " + ", ".join("%.6g" % v for v in grp) + " not reported"
            (res.known if len(grp) % 2 == 0 else res.errors).append(msg)
        for p in poles:
            on_edge = len(edge) and np.abs(edge - p).min() <= 1e-9 * max(1.0, p)
            if not on_edge and not np.any(np.abs(fem - p) <= tol):
                res.errors.append(f"reported pole {p:.6g} is neither an edge pole nor a FEM eigenvalue")

    def _spectrum(self, req, stdout, out_text, res: Outcome) -> None:
        out = json.loads(stdout)
        values = np.array(out["values"], dtype=float)
        if out["kind"] != "kirchhoff" or len(values) != req.params["count"] or np.any(np.diff(values) < 0):
            res.errors.append("spectrum: wrong kind, count or order")
            return
        _check_fem(self.graph(req.graph), values, req.params["resolution"], res)

    def _commensurable(self, req, stdout, out_text, res: Outcome) -> None:
        g = self.graph(req.graph)
        out = json.loads(stdout)
        mu = req.params["mu"]
        lengths = [Fraction(L).limit_denominator(1000) for L in g.lengths]
        den = math.lcm(*(q.denominator for q in lengths))
        base = math.gcd(*(int(q * den) for q in lengths)) / den
        if not math.isclose(out["base_length"], base, rel_tol=1e-12):
            res.errors.append(f"base length {out['base_length']} != {base}")
        if not 0 < mu < out["lambda_1"]:
            res.errors.append(f"lambda_1 {out['lambda_1']} does not bound mu {mu}")
        _check_fem(g, np.array([out["lambda_1"]]), DEFAULT_RESOLUTION, res)
        tag = classify(assemble_outer(g, mu)).tag
        if [m["p"] for m in out["members"]] != req.params["p"]:
            res.errors.append("member shift indices differ from the request")
        for m in out["members"]:
            lam = (math.sqrt(mu) + 2.0 * math.pi * m["p"] / base) ** 2
            if not math.isclose(m["lambda"], lam, rel_tol=1e-12):
                res.errors.append(f"p={m['p']}: lambda {m['lambda']} != {lam}")
            if not m["identity_residual"] < 1e-6:
                res.errors.append(f"p={m['p']}: identity residual {m['identity_residual']}")
            if tag != "marginal" and m["verdict"] != tag:
                res.errors.append(f"p={m['p']}: verdict {m['verdict']} differs from {tag} at mu")

    # --------------------------------------------------------------- search
    def _windows(self, g, lam: float, level: int, gammas, res: Outcome, reported: float) -> None:
        """The found lambda lies in every level-l window: residual < 1/l^2 and cos > 0."""
        targets = TargetSpec(tuple(gammas)).level_targets(level)
        x = math.sqrt(lam) * np.array(g.lengths)
        resid = float(np.max(np.abs(np.sin(x) - targets)))
        if not resid < 1.0 / level ** 2 or not np.all(np.cos(x) > 0):
            res.errors.append(f"lambda {lam} at level {level}: residual {resid:.3g} or cos sign fails")
        if not math.isclose(resid, reported, rel_tol=1e-6, abs_tol=1e-12):
            res.errors.append(f"lambda {lam}: reported residual {reported} != {resid}")

    def _find(self, req, stdout, out_text, res: Outcome) -> None:
        g = self.graph(req.graph)
        out = json.loads(stdout)
        wanted = WANTED[req.kind]
        lam = out["lambda"]
        res.stats["candidates_charged"] = out["budget_used"]
        if not lam > req.params["above"]:
            res.errors.append(f"lambda {lam} not above {req.params['above']}")
        if out["verdict"] != wanted:
            res.errors.append(f"verdict {out['verdict']}, wanted {wanted}")
        D = assemble_outer(g, lam)
        verdict = classify(D)
        if verdict.tag != wanted:
            res.errors.append(f"re-classification gives {verdict.tag}, wanted {wanted}")
        self._oracle(D, verdict, res, f"lambda={lam:.6g}")
        gammas = [parse_gamma(x) for x in out["gammas"]]
        self._windows(g, lam, out["level"], gammas, res, out["residuals"][-1])

    def _kronecker(self, req, stdout, out_text, res: Outcome) -> None:
        g = self.graph(req.graph)
        out = json.loads(stdout)
        gamma_arg = next(a for a in req.argv if a.startswith("--gamma="))
        gammas = [parse_gamma(t) for t in gamma_arg.split("=", 1)[1].split(",")]
        lams, levels = out["lambdas"], out["levels"]
        res.stats["candidates_charged"] = out["budget_used"]
        if len(lams) != req.params["count"] or levels != list(range(levels[0], levels[0] + len(levels))):
            res.errors.append(f"levels {levels} for count {req.params['count']}")
        if any(b <= a for a, b in zip(lams[:-1], lams[1:])):
            res.errors.append(f"lambdas not increasing: {lams}")
        for lam, level, r in zip(lams, levels, out["residuals"]):
            self._windows(g, lam, level, gammas, res, r)
        if not all(math.isfinite(e) for e in out["limit_errors"]):
            res.errors.append("non-finite limit errors")


def _bands(lam, tags, near) -> list[dict]:
    """The band report recomputed from the csv rows (same merge rule as the program)."""
    bands, cur = [], []

    def flush():
        if cur:
            bands.append({"lo": float(lam[cur[0]]), "hi": float(lam[cur[-1]]),
                          "tag": tags[cur[0]], "count": len(cur)})
            cur.clear()

    for k in range(len(lam)):
        if near[k]:
            flush()
            continue
        if cur and tags[k] != tags[cur[0]]:
            flush()
        cur.append(k)
    flush()
    return bands


def _nonnegative(D, times) -> bool:
    """No entry of the shifted e^{-tD} is negative beyond roundoff at any oracle time."""
    A = -0.5 * (D.entries + D.entries.T)
    A = A - np.linalg.eigvalsh(A)[-1] * np.eye(len(A))
    for t in times:
        E = scipy.linalg.expm(t * A)
        if E.min() < -1e-13 * E.max():
            return False
    return True


def _connected(D) -> bool:
    """The graph of the off-diagonal entries of D above roundoff is connected."""
    A = D.entries
    n = len(A)
    floor = 16 * np.finfo(float).eps * np.abs(A).max()
    support = (np.abs(A) > floor) & ~np.eye(n, dtype=bool)
    ncomp, _ = scipy.sparse.csgraph.connected_components(scipy.sparse.csr_matrix(support),
                                                         directed=False)
    return ncomp == 1


def _check_fem(g, values: np.ndarray, resolution: float, res: Outcome) -> None:
    """The lowest Kirchhoff eigenvalues at `resolution` agree with a mesh twice as fine,
    within twice the error estimated from a mesh half as fine."""
    n = len(values)
    coarse = _fem_values(g, resolution / 2, None)[:n]
    fine = _fem_values(g, 2 * resolution, None)[:n]
    tol = 2.0 * np.abs(values - coarse) / 3.0 + 1e-9 * values
    bad = np.flatnonzero(np.abs(values - fine) > tol)
    if len(bad):
        res.errors.append(f"FEM eigenvalues {values[bad]} off the refined mesh {fine[bad]}")


def _fem_values(g, resolution: float, lam_max: float | None) -> np.ndarray:
    K, M = _fem_matrices(g, resolution)
    if lam_max is None:
        return scipy.linalg.eigh(K, M, eigvals_only=True)
    return scipy.linalg.eigh(K, M, eigvals_only=True, subset_by_value=(-np.inf, lam_max))
