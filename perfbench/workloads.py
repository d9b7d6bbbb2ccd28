"""The three benchmark workloads.

A workload is a config made from the seed, the set-up stage of
`setup_table` and one round of operations.  Every round repeats the same
operations on the same inputs, so rounds differ only in how long the host
took.  Each operation says how
many orbit-collisions its statistics cover (from the inputs, never from
the lane-steps the kernel ran), checks its own output and gives a
fingerprint that must not change from round to round.

The program is reached through module attributes (`ob.cli.main`,
`ob.openstats.short_return_fraction`, ...) so that a traced run sees the
calls through its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks


@dataclass(frozen=True)
class Op:
    label: str
    covered: int                 # orbit-collisions the statistics cover
    run: Callable                # (ob, state, out_dir) -> result
    check: Callable              # (ob, state, out_dir, result) -> problems
    fingerprint: Callable        # (out_dir, result) -> str


def cli_call(ob, argv):
    """Run one `billiards` command in-process; its stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = ob.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"billiards {argv[0]} exited with {code}")
    return code


def files_digest(out_dir, patterns):
    h = hashlib.sha256()
    for pattern in patterns:
        for path in sorted(Path(out_dir).glob(pattern)):
            h.update(path.relative_to(out_dir).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def setup_table(ob, cfg_path):
    """Config read, table build, validation and hole placement: the set-up
    every workload times before its first march."""
    cfg = ob.cli.load_config(cfg_path)
    table = ob.cli.build_from_config(cfg)
    violations = ob.geometry.validate_table(table)
    if violations:
        raise RuntimeError(f"table failed validation: {violations}")
    spec = cfg.get("hole", {"radii": []})
    placed = [ob.geometry.make_hole(table, spec["center_s"], r)
              for r in spec["radii"]]
    return {"cfg": cfg, "cfg_path": cfg_path, "seed": cfg["run"]["seed"],
            "table": table, "holes": placed}


class StadiumSweep:
    name = "stadium_sweep"
    flat_length = 2.0
    radii = (0.05, 0.02, 0.01)
    n_orbits = 1000
    t_max = 3.0
    intervals = ((0.0, 1.0), (1.0, 2.0), (2.0, 3.0))

    def config(self, seed):
        return {
            "version": 1,
            "table": {"class": "stadium", "flat_length": self.flat_length},
            "hole": {"center_s": 1.0, "radii": list(self.radii)},
            "run": {"n_orbits": self.n_orbits, "t_max": self.t_max,
                    "seed": seed,
                    "intervals": [list(iv) for iv in self.intervals]},
        }

    def horizon(self, r):
        mu = 2.0 * r / checks.stadium_perimeter(self.flat_length)
        return math.ceil(self.t_max / mu)

    def distinct(self):
        """Distinct orbit-collisions a round's statistics rest on; the march
        efficiency is this over the lane-steps the kernel computed."""
        # every radius marches the same SRB-seeded orbits from step 1
        return self.n_orbits * max(self.horizon(r) for r in self.radii)

    @property
    def ops(self):
        return (Op("run", self.n_orbits * sum(map(self.horizon, self.radii)),
                   self._run, self._check, self._fingerprint),)

    def _run(self, ob, state, out):
        return cli_call(ob, ["run", state["cfg_path"], "--out", out])

    def _fingerprint(self, out, result):
        return files_digest(out, ["r_*/*.csv"])

    def _check(self, ob, state, out, result):
        out = Path(out)
        summary = checks.read_json(out / "summary.json")
        perimeter = checks.stadium_perimeter(self.flat_length)
        problems = []
        for r in self.radii:
            rdir = out / f"r_{r:g}"
            entry = summary["per_radius"][f"r_{r:g}"]
            hits = checks.read_hits(rdir / "hits.csv")
            problems += checks.check_hits(hits, r, perimeter, self.t_max,
                                          self.n_orbits)
            recounted = checks.recount(hits, self.intervals, self.n_orbits)
            rows = checks.read_table(rdir / "counts.csv", int)
            max_excluded = round(entry["censored_fraction"] * self.n_orbits)
            found = checks.check_counts(rows, recounted, max_excluded)
            problems += [f"r={r}: {p}" for p in found]
            if not found:
                table = rows[:, 2].reshape(-1, len(self.intervals))
                problems += [f"r={r}: {p}" for p in checks.check_count_means(
                    table, self.intervals, 2.0 * r / perimeter)]
            surv = checks.read_table(rdir / "survival.csv", float)
            problems += [f"r={r}: {p}" for p in checks.check_survival(
                surv, hits, self.n_orbits,
                entry["excluded_before_first_hit"])]
        return problems


class SinaiNarrow:
    name = "sinai_narrow"
    disk_radius = 0.2
    r = 0.005
    t_max = 8.0
    epsilon = 0.1
    n_hits = 1500

    @property
    def n_orbits(self):
        # the orbit budget short_return_fraction derives from n_hits; the
        # quasi-section call gets the same, so both march the same orbits
        return math.ceil(1.3 * self.n_hits / self.t_max)

    def config(self, seed):
        return {
            "version": 1,
            "table": {"class": "sinai_torus", "centers": [[0.5, 0.5]],
                      "radii": [self.disk_radius]},
            "hole": {"center_s": 0.3, "radii": [self.r]},
            "run": {"seed": seed},
        }

    def horizon(self):
        mu = checks.sinai_hole_measure(self.r, self.disk_radius)
        return math.ceil(self.t_max / mu)

    def distinct(self):
        return self.n_orbits * self.horizon()

    @property
    def ops(self):
        covered = self.n_orbits * self.horizon()
        return (Op("short_returns", covered, self._short_returns,
                   self._check_short_returns, self._fingerprint),
                Op("quasi_section", covered, self._quasi_section,
                   self._check_quasi_section, self._fingerprint))

    def _short_returns(self, ob, state, out):
        return ob.openstats.short_return_fraction(
            state["table"], state["holes"][0], epsilon=self.epsilon,
            n_hits=self.n_hits, seed=state["seed"], t_max=self.t_max)

    def _quasi_section(self, ob, state, out):
        return ob.openstats.quasi_section_defect(
            state["table"], state["holes"][0], self.n_orbits, state["seed"],
            t_max=self.t_max)

    def _fingerprint(self, out, result):
        return repr(result)

    def _check_short_returns(self, ob, state, out, report):
        # the hit indices come from a march of the same orbits outside the
        # timed rounds; the gaps are recounted here
        data = ob.openstats.collect_hitting(
            state["table"], state["holes"][0], self.n_orbits, self.t_max,
            state["seed"])
        mu = checks.sinai_hole_measure(self.r, self.disk_radius)
        return checks.check_short_returns(report, data.hit_orbit,
                                          data.hit_index, mu, self.epsilon)

    def _check_quasi_section(self, ob, state, out, report):
        return checks.check_quasi_section(report)


class SquashChecks:
    name = "squash_checks"
    samples = 1_000_000
    cone_points = 200_000

    def config(self, seed):
        return {
            "version": 1,
            "table": {"class": "squash", "r1": 0.6, "r2": 1.0,
                      "center_distance": 2.0},
            "run": {"seed": seed},
        }

    def distinct(self):
        # all three commands draw the same SRB prefix (same seed, stream 0),
        # so their first collisions coincide; Kac gives one return collision
        # per sampled point; the cone scan adds one reverse step per point
        return (max(self.samples, self.cone_points) + self.samples
                + self.cone_points)

    @property
    def ops(self):
        # return_tail and kac_defect each cover a burn-in collision and,
        # by Kac's lemma, one return collision per sampled point
        return (Op("inducing", 4 * self.samples, self._inducing,
                   self._check_inducing, self._digest("return_tail.csv",
                                                      "inducing.json")),
                Op("invariants", self.samples, self._invariants,
                   self._check_invariants, self._digest("invariants.json")),
                Op("cones", 2 * self.cone_points, self._cones,
                   self._check_cones, self._digest("cones.json")))

    @staticmethod
    def _digest(*names):
        return lambda out, result: files_digest(out, names)

    def _inducing(self, ob, state, out):
        return cli_call(ob, ["inducing", state["cfg_path"], "--out", out,
                             "--samples", self.samples])

    def _invariants(self, ob, state, out):
        return cli_call(ob, ["check", "invariants", state["cfg_path"],
                             "--out", out, "--samples", self.samples])

    def _cones(self, ob, state, out):
        return cli_call(ob, ["check", "cones", state["cfg_path"], "--out",
                             out, "--points", self.cone_points])

    def _check_inducing(self, ob, state, out, result):
        tail = checks.read_table(Path(out) / "return_tail.csv", float)
        inducing = checks.read_json(Path(out) / "inducing.json")
        return (checks.check_kac(inducing, tail, self.samples)
                + checks.check_return_tail(tail))

    def _check_invariants(self, ob, state, out, result):
        return checks.check_invariance(
            checks.read_json(Path(out) / "invariants.json"))

    def _check_cones(self, ob, state, out, result):
        return checks.check_cones(checks.read_json(Path(out) / "cones.json"))


WORKLOADS = {w.name: w for w in (StadiumSweep(), SinaiNarrow(), SquashChecks())}
