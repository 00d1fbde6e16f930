"""The benchmark's workloads: inputs from a seed, one op, and its checks.

Each workload builds its op list, ``ops``, at set-up; every pass runs all of
them, in a fresh worker.  ``run`` is the timed op; it looks
the program's functions up by module attribute at call time, so the tracer's
wrappers are the ones called.  ``check`` is untimed: it returns the op's
canonical result, which feeds the results digest, and the list of correctness
failures.

Why these workloads (measured on the seed commit):

* flag-correspond is real CLI traffic.  Almost all of it is fingerprinting
  the 6-8 candidates each job rejects (bracket scans and a dense d2 rref);
  the dual's fingerprint is served from cache after the first candidate.
* three-summand runs the same pipeline, but its duals are abelian, so
  compare_fingerprints rejects candidates before any fingerprint; the 2^l
  theta walk of the target search dominates instead.
* property-batch does no target search at all.  It is fingerprint/rref-bound:
  iso_small compares the fingerprints of the two presentations before its
  permutation x sign search, and those fingerprints and their dense rref are
  about 85% of its time; the search itself is about 9%.  Its presentations
  are all distinct, so the caches rarely hit.
"""

import io
import itertools
import json
import os
import random
import sys
from contextlib import redirect_stdout
from math import comb


def _mod(name):
    return sys.modules[name]


def _targets_json(targets):
    return [
        {"rank": t.spec.rank, "theta": list(t.spec.theta),
         "witness": t.witness.to_json() if t.witness else None}
        for t in targets
    ]


def _check_targets(targets, dual_algebra):
    """Every target witness must carry the candidate onto the dual."""
    nil = _mod("flagflux.nilradical")
    failures = []
    for t in targets:
        cand, _legend = nil.nilradical_presentation(t.spec)
        if t.witness is None or t.witness.apply(cand) != dual_algebra:
            failures.append("target A%d%s witness does not verify" % (t.spec.rank, t.spec.theta))
    return failures


def _correspond_result(result):
    ext = _mod("flagflux.exterior")
    return {
        "dual": ext.print_malcev(result.dualization.dual.algebra),
        "h_dual": ext.print_form(result.dualization.dual.flux),
        "certificate": result.certificate.ok,
        "targets": _targets_json(result.targets),
        "search_reason": result.search_reason,
    }


def _correspond_failures(result):
    failures = []
    if not result.admissibility.ok:
        failures.append("triple not admissible")
    if not result.certificate.ok:
        failures.append("certificate not ok")
    return failures + _check_targets(result.targets, result.dualization.dual.algebra)


class FlagCorrespond:
    """correspond() on every flag of A2..A5 with theta != Sigma, plus the golden jobs.

    Each op runs in a worker forked from the set-up process, so every op starts
    with empty caches, as a `flagflux correspond` call does.
    """

    name = "flag-correspond"
    fork_per_op = True

    def __init__(self, seed, root, scratch):
        rootsys = _mod("flagflux.rootsys")
        ops = []
        for rank in range(2, 6):
            for mask in range((1 << rank) - 1):
                theta = tuple(i + 1 for i in range(rank) if mask >> i & 1)
                spec = rootsys.FlagSpec("A", rank, theta)
                summands = rootsys.isotropy_summands(rootsys.build_root_system("A", rank), theta)
                dim = sum(s.dim for s in summands)
                # the last summand is central, so the triple is admissible
                ideal = tuple(range(dim - summands[-1].dim + 1, dim + 1))
                ops.append(("A%d-theta%s" % (rank, "".join(map(str, theta)) or "0"),
                            ("correspond", spec, ideal)))
        jobs = os.path.join(root, "src", "flagflux", "jobs")
        config_dir = os.path.join(scratch, "golden-config")
        os.makedirs(config_dir, exist_ok=True)
        for name in sorted(f for f in os.listdir(jobs) if f.endswith(".json")):
            with open(os.path.join(jobs, name)) as fh:
                job = json.load(fh)
            config = os.path.join(config_dir, name)
            with open(config, "w") as fh:
                json.dump(job.get("config", {}), fh)
            with open(os.path.join(jobs, "expected", name)) as fh:
                expected = fh.read()
            ops.append(("golden-" + name[:-5], ("golden", job["command"], config, expected)))
        random.Random(seed).shuffle(ops)
        self.ops = ops

    def run(self, op):
        if op[0] == "golden":
            _kind, command, config, _expected = op
            out = io.StringIO()
            with redirect_stdout(out):
                _mod("flagflux.cli").main(
                    args=[command, "--config", config], standalone_mode=False,
                    prog_name="flagflux")
            return out.getvalue()
        _kind, spec, ideal = op
        corr = _mod("flagflux.correspond")
        flux = _mod("flagflux.exterior").Form.zero(3)
        return corr.correspond(corr.FlowingFlag(spec, flux), ideal)

    def check(self, op, out):
        if op[0] == "golden":
            same = out == op[3]
            return {"report_bytes": len(out), "match": same}, [] if same else [
                "report differs from jobs/expected"]
        return _correspond_result(out), _correspond_failures(out)


class ThreeSummand:
    """three_summand_correspond(l, m, n) for l+m+n <= 8 and lm+mn+nl <= 17.

    Larger totals are left out: one op at total 21 outlasts a whole pass at
    the seed commit.  Each op runs in a freshly forked worker.
    """

    name = "three-summand"
    fork_per_op = True

    def __init__(self, seed, root, scratch):
        ops = [
            ("split-%d-%d-%d" % s, s)
            for s in itertools.product(range(1, 7), repeat=3)
            if sum(s) <= 8 and s[0] * s[1] + s[1] * s[2] + s[2] * s[0] <= 17
        ]
        random.Random(seed).shuffle(ops)
        self.ops = ops

    def run(self, split):
        return _mod("flagflux.correspond").three_summand_correspond(*split)

    def check(self, split, report):
        total = sum(report.dims)
        result = {
            "dims": list(report.dims),
            "ok": report.ok,
            "notes": report.notes,
            "cp_target": report.cp_target is not None,
        }
        result.update(_correspond_result(report.result))
        failures = _correspond_failures(report.result)
        if not report.ok:
            failures.append("report not ok: %s" % "; ".join(report.notes))
        if report.cp_target is None:
            failures.append("CP^%d not among targets" % total)
        return result, failures


def _relabelling(rng, p):
    """Seeded signed relabelling that keeps the Malcev filtration.

    Slots are split into runs of consecutive slots of equal weight in which
    no differential names another slot of the run; the permutation moves
    slots only inside a run, so every de^k still names lower slots only.
    """
    weight = {}
    runs = []
    for k, f in enumerate(p.differentials, start=1):
        legs = {i for key in f.terms for i in key}
        weight[k] = 1 + max((min(weight[i], weight[j]) for i, j in f.terms), default=0)
        if runs and weight[runs[-1][0]] == weight[k] and not legs & set(runs[-1]):
            runs[-1].append(k)
        else:
            runs.append([k])
    perm = []
    for run in runs:
        rng.shuffle(run)
        perm.extend(run)
    signs = tuple(rng.choice((1, -1)) for _ in perm)
    return _mod("flagflux.tduality").BasisChange(tuple(perm), signs)


class PropertyBatch:
    """Property-suite traffic: OPS ops in one worker, fresh for each pass.

    Op i draws triple i from its own generator, dualizes it twice with
    certificates, and searches for the isomorphism to a copy relabelled by a
    generator seeded from --seed, which also shuffles the op order.  Every
    pass runs the same ops, so each op's latency is a median over passes, and
    its result must repeat.

    The triples are one fixed corpus, the same for every --seed.  The dimension
    n of a triple sets most of its cost (n = 8 takes about 200 times as long as
    n = 3), and the 67 triples of dimension 8 are about 60% of a pass; drawn
    afresh for each seed, their share varied by +-8% over five seeds, which
    would read as a change of speed.  The corpus is stratified: triple i uses
    the first generator seed whose dimension draw, the generator's first draw
    randint(3, max_dim), gives n = 3 + i mod 6, so each dimension appears
    equally often, as it does on average without stratification.
    """

    name = "property-batch"
    fork_per_op = False
    OPS = 400
    MAX_DIM = 8

    def __init__(self, seed, root, scratch):
        ops = [("triple-%03d" % i, (self._triple_seed(i), "%d:%d" % (seed, i)))
               for i in range(self.OPS)]
        random.Random(seed).shuffle(ops)
        self.ops = ops

    def _triple_seed(self, i):
        want = 3 + i % (self.MAX_DIM - 2)
        for j in itertools.count():
            triple_seed = "%d:%d" % (i, j)
            if random.Random(triple_seed).randint(3, self.MAX_DIM) == want:
                return triple_seed

    def run(self, seeds):
        td = _mod("flagflux.tduality")
        triple_seed, relabel_seed = seeds
        triple = td.random_admissible_triple(random.Random(triple_seed), max_dim=self.MAX_DIM)
        admissible = td.check_admissible(triple)
        dual = td.dualize(triple)
        certificate = td.duality_certificate(triple, dual)
        double = td.dualize(dual.dual)
        double_certificate = td.duality_certificate(dual.dual, double)
        relabel = _relabelling(random.Random(relabel_seed), triple.algebra)
        q = relabel.apply(triple.algebra)
        iso = td.iso_small(triple.algebra, q)
        return triple, admissible, dual, certificate, double, double_certificate, q, iso

    def check(self, seeds, out):
        triple, admissible, dual, certificate, double, double_certificate, q, iso = out
        ext = _mod("flagflux.exterior")
        failures = []
        if not admissible.ok:
            failures.append("drawn triple not admissible")
        if not certificate.ok or not double_certificate.ok:
            failures.append("certificate not ok")
        if double.dual != triple:
            failures.append("double dual differs from the triple")
        if iso.witness is not None:
            if iso.witness.apply(triple.algebra) != q:
                failures.append("iso_small witness does not verify")
        elif iso.proved_distinct:
            failures.append("relabelled copy proved distinct")
        result = {
            "algebra": ext.print_malcev(triple.algebra),
            "ideal": list(triple.ideal),
            "flux": ext.print_form(triple.flux),
            "dual": ext.print_malcev(dual.dual.algebra),
            "h_dual": ext.print_form(dual.dual.flux),
            "relabelled": ext.print_malcev(q),
            "iso": iso.reason,
            "witness": iso.witness.to_json() if iso.witness else None,
        }
        return result, failures


WORKLOADS = {w.name: w for w in (FlagCorrespond, ThreeSummand, PropertyBatch)}


def mahonian(m, k):
    """Number of permutations of m letters with k inversions."""
    row = [1]
    for size in range(1, m + 1):
        new = [0] * (len(row) + size - 1)
        for i, c in enumerate(row):
            for j in range(size):
                new[i + j] += c
        row = new
    return row[k] if k < len(row) else 0


def kostant_failures(rank):
    """Kostant's theorem on the maximal flag of A_rank, for H^1 and H^2.

    dim H^k = C(n, k) - r_k - r_{k-1}, with r_k the rank of d on k-forms,
    equals the number of permutations of S_{rank+1} with k inversions.
    """
    nil = _mod("flagflux.nilradical")
    td = _mod("flagflux.tduality")
    p, _legend = nil.nilradical_presentation(_mod("flagflux.rootsys").FlagSpec("A", rank))
    fp = td.fingerprint(p)
    n, r1, r2 = p.dim, fp[5], fp[6]
    failures = []
    for k, h in ((1, n - r1), (2, comb(n, 2) - r2 - r1)):
        if h != mahonian(rank + 1, k):
            failures.append("kostant A%d: dim H^%d = %d, expected %d"
                            % (rank, k, h, mahonian(rank + 1, k)))
    return failures
