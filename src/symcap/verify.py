"""Batch verification harness.

Runs the capacity estimators over a suite of bodies and checks the headline
inequalities: the capacity ratio c_EHZ / c_J must be at least 2 + 1/n for
centrally symmetric bodies and at least 1 + 1/(2n) in general, and symmetric
bodies additionally get the boundary-curve length check against 4 + 4/d,
and ellipsoids a two-sided check of the Clarke value against the closed form.
Everything the run produces is deterministic in the seed: randomness is
drawn from per-body streams derived from (seed, body index), report rows
follow input order, and wall-clock times stay out of the reports unless
explicitly requested.  The file formats live here too: one JSON reader for
body, loop and suite files, the suite and its profiles, the report columns.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from ._util import fmt
from .capacity import OptimizerConfig, c_j, clarke_minimize, ellipsoid_ehz_exact
from .errors import CalibrationError, InvalidParameter, SpecParseError
from .geometry import Ellipsoid, body_from_dict
from .girth import check_sample_count, check_schaffer_bound, symmetric_girth

@dataclass
class VerificationRecord:
    """One body's results and inequality margins."""

    body_id: str
    dim: int = 0
    n: int = 0
    symmetric: Optional[bool] = None
    c_j: Optional[float] = None
    c_j_method: Optional[str] = None
    clarke: Optional[float] = None
    clarke_method: Optional[str] = None
    exact: Optional[float] = None
    ratio: Optional[float] = None
    bound_general: Optional[float] = None
    margin_general: Optional[float] = None
    bound_symmetric: Optional[float] = None
    margin_symmetric: Optional[float] = None
    girth_length: Optional[float] = None
    schaffer_bound: Optional[float] = None
    schaffer_margin: Optional[float] = None
    seed: int = 0
    status: str = "ok"
    wall_time_s: Optional[float] = None

    def margins(self):
        return [
            m
            for m in (
                self.margin_general,
                self.margin_symmetric,
                self.schaffer_margin,
            )
            if m is not None
        ]

    def passed(self, tol: float) -> bool:
        if self.status != "ok":
            return False
        return all(m >= -tol for m in self.margins())


CSV_COLUMNS = [f.name for f in fields(VerificationRecord)]
PACKAGED_SUITE = resources.files("symcap") / "data" / "default_suite.json"


def _derived_seed(base_seed: int, index: int, salt: int = 0) -> int:
    return int(np.random.SeedSequence([base_seed, index, salt]).generate_state(1)[0])


def read_json(path):
    """Parse a JSON file; unreadable files and bad JSON are SpecParseErrors."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecParseError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def load_suite(suite) -> dict:
    """Check a suite description: a dict, or the path of a JSON file."""
    if not isinstance(suite, dict):
        suite = read_json(suite)
    if not isinstance(suite, dict) or "bodies" not in suite:
        raise SpecParseError('suite must be an object with a "bodies" list')
    bodies = suite["bodies"]
    if not isinstance(bodies, list) or not all(isinstance(e, dict) for e in bodies):
        raise SpecParseError('"bodies" must be a list of objects')
    ids = "".join(e["id"] for e in bodies if isinstance(e.get("id"), str))
    if any("\ud800" <= c <= "\udfff" for c in ids):  # no UTF-8 report can hold it
        raise SpecParseError('a body "id" holds a lone surrogate')
    return suite


def verify_body(entry: dict, index: int, seed: int, profile_params: dict):
    """Produce the verification record for one suite entry."""
    body_id = str(entry.get("id", f"body{index}"))
    record = VerificationRecord(body_id=body_id, seed=_derived_seed(seed, index))
    start = time.perf_counter()
    try:
        body = body_from_dict(entry)
        if body.dim % 2 != 0:
            raise SpecParseError(
                f"verification needs an even dimension, got {body.dim}"
            )
        record.dim = body.dim
        record.n = body.dim // 2
        record.symmetric = bool(body.is_symmetric)

        cj_res = c_j(body, seed=_derived_seed(seed, index, 1))
        record.c_j = cj_res.value
        record.c_j_method = cj_res.method

        config = OptimizerConfig(
            seed=record.seed,
            restarts=profile_params["restarts"],
            points=profile_params["points"],
        )
        clarke_res = clarke_minimize(body, config)
        record.clarke = clarke_res.value
        record.clarke_method = clarke_res.method

        if isinstance(body, Ellipsoid):
            record.exact = ellipsoid_ehz_exact(body).value
            # a discrete value is an upper bound, and the affine-regular N-gon
            # in the fastest plane, admissible at every m, takes N tan(pi/N)/pi
            n_pts = config.points
            ceiling = record.exact * n_pts * math.tan(math.pi / n_pts) / math.pi
            if not record.exact * (1 - 1e-9) <= record.clarke <= ceiling * (1 + 1e-4):
                raise CalibrationError(
                    f"clarke {record.clarke!r} outside [{record.exact!r}, {ceiling!r}]"
                )

        record.ratio = record.clarke / record.c_j
        record.bound_general = 1.0 + 1.0 / (2.0 * record.n)
        record.margin_general = record.ratio - record.bound_general
        if record.symmetric:
            record.bound_symmetric = 2.0 + 1.0 / record.n
            record.margin_symmetric = record.ratio - record.bound_symmetric

            girth_len, girth_loop = symmetric_girth(
                body,
                n_samples=profile_params["girth_samples"],
                rng=_derived_seed(seed, index, 2),
            )
            record.girth_length = girth_len
            report = check_schaffer_bound(body, girth_loop)
            record.schaffer_bound = report["bound"]
            record.schaffer_margin = report["margin"]
    except Exception as exc:  # record per-body failures, keep the run going
        record.status = f"error: {type(exc).__name__}: {exc}"
    record.wall_time_s = time.perf_counter() - start
    return record


def write_reports(records, out_dir, seed, profile, tol, timings=False):
    """Write report.csv and report.json; returns their paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "report.csv"
    json_path = out_dir / "report.json"

    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(
                "" if col == "wall_time_s" and not timings else fmt(getattr(rec, col))
                for col in CSV_COLUMNS
            )

    payload = {
        "seed": seed,
        "profile": profile,
        "tolerance": tol,
        "all_pass": all(r.passed(tol) for r in records),
        "records": [],
    }
    for rec in records:
        data = asdict(rec)
        if not timings:
            data.pop("wall_time_s")
        payload["records"].append(data)
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return csv_path, json_path


def run_verify(
    suite,
    out_dir,
    seed: int = 0,
    profile: str = "fast",
    tol: float = 1e-2,
    timings: bool = False,
):
    """Run the suite and persist reports; returns (exit_code, records).

    ``suite`` is a suite dict or a path to one.  Its profiles extend and
    override those of the packaged suite.  Exit code 0 means every body was
    processed and every inequality margin is at least -tol; any error or
    violated margin gives 1.
    """
    if not math.isfinite(tol):  # it would pass or fail every margin alike
        raise InvalidParameter(f"tolerance must be finite, got {tol!r}")
    suite = load_suite(suite)
    own = suite.get("profiles", {})
    if not isinstance(own, dict):
        raise SpecParseError('"profiles" must be an object')
    profiles = {**load_suite(PACKAGED_SUITE)["profiles"], **own}
    if profile not in profiles:
        raise SpecParseError(
            f"unknown profile {profile!r}; available: {sorted(profiles)}"
        )
    params = profiles[profile]
    keys = ("points", "restarts", "girth_samples")
    missing = [k for k in keys if not isinstance(params, dict) or k not in params]
    if missing:
        raise SpecParseError(f"profile {profile!r} lacks {', '.join(missing)}")
    for key in keys:
        if type(params[key]) is not int:  # bool is an int subclass: rejected too
            raise SpecParseError(
                f"profile {profile!r}: {key} must be an integer, got {params[key]!r}"
            )
    try:  # the rules the solve and the girth search apply, checked up front
        OptimizerConfig(restarts=params["restarts"], points=params["points"])
        check_sample_count(params["girth_samples"])
    except InvalidParameter as exc:
        raise InvalidParameter(f"profile {profile!r}: {exc}") from None
    records = [
        verify_body(entry, i, seed, params) for i, entry in enumerate(suite["bodies"])
    ]
    write_reports(records, out_dir, seed, profile, tol, timings=timings)
    exit_code = 0 if all(r.passed(tol) for r in records) else 1
    return exit_code, records
