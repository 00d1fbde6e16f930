"""Layer spans recorded from outside the program.

The tracer replaces every module attribute of ``flagflux`` that is bound to a
traced function with a wrapper that records a span: its call count and its
self time, which is the span's duration minus the time its child spans cover.
Counters are read from the arguments and return values of the same calls.
Everything runs on one thread and nothing is queued, so no span ever waits.

Spans are kept in memory per op (``take``) and written out by the caller when
the run ends.  A traced function that a later version of the program moves or
deletes is reported as absent instead of failing the run.
"""

import importlib
import sys
import time

# (layer, module, function): the public functions of each layer of src/flagflux.
# The kernel layer is the term-map functions bound in flagflux._kernel, i.e.
# whichever backend flagflux.BACKEND names.
TRACED = (
    ("cli", "flagflux.cli", "main"),
    ("correspond", "flagflux.correspond", "find_targets"),
    ("correspond", "flagflux.correspond", "three_summand_correspond"),
    ("tduality", "flagflux.tduality", "check_admissible"),
    ("tduality", "flagflux.tduality", "dualize"),
    ("tduality", "flagflux.tduality", "duality_certificate"),
    ("tduality", "flagflux.tduality", "fingerprint"),
    ("tduality", "flagflux.tduality", "compare_fingerprints"),
    ("tduality", "flagflux.tduality", "iso_small"),
    ("tduality", "flagflux.tduality", "random_admissible_triple"),
    ("linalg", "flagflux._linalg", "rref"),
    ("linalg", "flagflux._linalg", "rank"),
    ("linalg", "flagflux._linalg", "nullspace"),
    ("exterior", "flagflux.exterior", "ce_diff"),
    ("exterior", "flagflux.exterior", "wedge"),
    ("exterior", "flagflux.exterior", "interior"),
    ("kernel", "flagflux._kernel", "ce_terms"),
    ("kernel", "flagflux._kernel", "wedge_terms"),
    ("kernel", "flagflux._kernel", "add_terms"),
    ("kernel", "flagflux._kernel", "scale_terms"),
    ("kernel", "flagflux._kernel", "interior_terms"),
    ("nilradical", "flagflux.nilradical", "nilradical_presentation"),
    ("rootsys", "flagflux.rootsys", "build_root_system"),
    ("rootsys", "flagflux.rootsys", "isotropy_summands"),
    ("gcs", "flagflux.gcs", "phi_conjugate"),
    ("gcs", "flagflux.gcs", "integrability_necessary"),
)
SPANS = tuple("%s.%s" % (layer, fn) for layer, _module, fn in TRACED)
LAYERS = tuple(dict.fromkeys(layer for layer, _module, _fn in TRACED))

# Fields of the fingerprint, in the order compare_fingerprints tests them.
FINGERPRINT_FIELDS = (
    "dim", "abelian", "lcs_dims", "derived_dims", "center_dim", "d1_rank", "d2_rank",
)
COUNTERS = (
    "linalg.rref.cells",
    "kernel.terms_in",
    "correspond.candidates",
    "correspond.targets",
    "tduality.fingerprint.cache_hits",
    "tduality.iso_small.witnesses",
    "tduality.iso_small.inconclusive",
    "tduality.iso_small.proved_distinct",
) + tuple("tduality.compare_fingerprints.rejected.%s" % f for f in FINGERPRINT_FIELDS)

OP = "op"  # root span around one op; its self time is time outside every layer


def _rref_cells(counters, args, result, frame, parent):
    counters["linalg.rref.cells"] += len(args[0]) * args[1]


def _terms_in(counters, args, result, frame, parent):
    counters["kernel.terms_in"] += sum(len(a) for a in args if isinstance(a, dict))


def _compared(counters, args, result, frame, parent):
    if parent == "correspond.find_targets":
        counters["correspond.candidates"] += 1
    equal, field = result
    if not equal:
        key = "tduality.compare_fingerprints.rejected.%s" % field
        counters[key] = counters.get(key, 0) + 1  # a field added later still counts


def _targets(counters, args, result, frame, parent):
    counters["correspond.targets"] += len(result[0])


def _fingerprinted(counters, args, result, frame, parent):
    if frame[2] == 0:  # no child span: served from the fingerprint cache
        counters["tduality.fingerprint.cache_hits"] += 1


def _iso(counters, args, result, frame, parent):
    if result.witness is not None:
        counters["tduality.iso_small.witnesses"] += 1
    elif result.proved_distinct:
        counters["tduality.iso_small.proved_distinct"] += 1
    else:
        counters["tduality.iso_small.inconclusive"] += 1


HOOKS = {
    "linalg.rref": _rref_cells,
    "tduality.compare_fingerprints": _compared,
    "correspond.find_targets": _targets,
    "tduality.fingerprint": _fingerprinted,
    "tduality.iso_small": _iso,
}
HOOKS.update({span: _terms_in for span in SPANS if span.startswith("kernel.")})


class Tracer:
    """Span stack and per-op totals; ``install`` puts the wrappers in place."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock  # ns
        self._stack = []  # frames: [span name, child ns, child spans]
        self.enabled = False
        self.absent = []
        self._reset()

    def _reset(self):
        self.calls = dict.fromkeys(SPANS + (OP,), 0)
        self.self_ns = dict.fromkeys(SPANS + (OP,), 0)
        self.counters = dict.fromkeys(COUNTERS, 0)

    def install(self):
        """Wrap each traced function at every flagflux attribute bound to it."""
        for (_layer, module_name, fn_name), span in zip(TRACED, SPANS):
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(span)
                continue
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, original)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "flagflux" or name.startswith("flagflux.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, span, fn):
        stack = self._stack
        hook = HOOKS.get(span)
        clock = self._clock

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [span, 0, 0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self.calls[span] += 1
                self.self_ns[span] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                    stack[-1][2] += 1
            if hook is not None:
                hook(self.counters, args, result, frame, parent)
            return result

        return traced

    def run_op(self, fn, *args):
        """Run one op under the root span; returns (result, duration in ns)."""
        frame = [OP, 0, 0]
        self._stack.append(frame)
        self.enabled = True
        start = self._clock()
        try:
            result = fn(*args)
        finally:
            duration = self._clock() - start
            self.enabled = False
            self._stack.pop()
            self.calls[OP] += 1
            self.self_ns[OP] += duration - frame[1]
        return result, duration

    def take(self):
        """This op's spans and counters; resets them for the next op."""
        out = {"calls": self.calls, "self_ns": self.self_ns, "counters": self.counters}
        self._reset()
        return out
