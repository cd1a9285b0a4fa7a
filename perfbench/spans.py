"""Layer tracing from outside the program.

While installed, a Tracer replaces public functions of the polycheck layers
with wrappers that record one span per call: name, start, end, parent span
and the benchmark call id.  Each name is replaced in the namespace that
calls it (``modverify.random_irreducible``, not ``rings.random_irreducible``),
because a ``from .x import f`` binding is what the caller looks up.  The
span keeps the name of the defining layer, so ``rings.random_prime`` covers
both its callers.  Spans stay in memory and are written out at the end of
the run; the original objects are put back when the tracer is removed.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (namespace module, attribute) -> span name, for every wrapped function
SPANNED = (
    ("cli", "main", "cli.main"),
    ("cli", "read_poly_file", "poly.read_poly_file"),
    ("modverify", "verify_mod", "modverify.verify_mod"),
    ("modverify", "verify_mod_over_Z", "modverify.verify_mod_over_Z"),
    ("modverify", "verify_mod_ff", "modverify.verify_mod_ff"),
    ("modverify", "verify_mod_companion", "modverify.verify_mod_companion"),
    ("modverify", "verify_mod_companion_sparse", "modverify.verify_mod_companion_sparse"),
    ("modverify", "evaluate", "poly.evaluate"),
    ("modverify", "random_irreducible", "rings.random_irreducible"),
    ("modverify", "random_prime", "rings.random_prime"),
    ("prodverify", "verify_product_kaminski", "prodverify.verify_product_kaminski"),
    ("prodverify", "verify_product_kaminski_nomul", "prodverify.verify_product_kaminski_nomul"),
    ("prodverify", "verify_product_kronecker", "prodverify.verify_product_kronecker"),
    ("prodverify", "verify_int_product", "prodverify.verify_int_product"),
    ("prodverify", "kronecker_point", "prodverify.kronecker_point"),
    ("prodverify", "verify_sparse_product", "prodverify.verify_sparse_product"),
    ("prodverify", "kaminski_round", "prodverify.kaminski_round"),
    ("prodverify", "mul_oracle", "poly.mul_oracle"),
    ("prodverify", "reduce_mod_binomial", "poly.reduce_mod_binomial"),
    ("prodverify", "random_prime", "rings.random_prime"),
    ("modeval", "evaluate", "poly.evaluate"),
    ("modeval", "leading_coefficients", "modeval.leading_coefficients"),
    ("modeval", "sparse_leading_coefficients", "modeval.sparse_leading_coefficients"),
    ("modeval", "eval_mod_p_dense", "modeval.eval_mod_p_dense"),
    ("modeval", "eval_mod_p_sparse", "modeval.eval_mod_p_sparse"),
    ("modeval", "eval_mod_binomial_dense", "modeval.eval_mod_binomial_dense"),
    ("modeval", "eval_mod_binomial_sparse", "modeval.eval_mod_binomial_sparse"),
    ("modeval", "project_poly_companion", "modeval.project_poly_companion"),
    ("modeval", "project_modprod_companion", "modeval.project_modprod_companion"),
    ("modeval", "poly_at_companion", "modeval.poly_at_companion"),
    ("modeval", "eval_modprod_companion_sparse", "modeval.eval_modprod_companion_sparse"),
)

# hot and cheap: counted without a span, so its time stays with the caller
COUNTED = (
    ("modverify", "random_monic", "rings.random_monic"),
    ("rings", "random_monic", "rings.random_monic"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPANNED))
COUNTED_NAMES = tuple(dict.fromkeys(name for _, _, name in COUNTED))
# counts kept beside the spans
EXTRA_COUNTS = ("rings.poly_mul_ops", "modverify.rounds", "poly.mul_oracle.fallback_calls")

_VERIFIERS = frozenset(
    name for name in SPAN_NAMES if name.split(".")[1].startswith("verify_")
)


class Tracer:
    """In-memory span recorder.  A span is [name, start_ns, end_ns,
    parent index or -1, call id]."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.call_id = -1
        self._stack = []

    def _span(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        is_modverify = name.startswith("modverify.")
        is_mul_oracle = name == "poly.mul_oracle"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if is_mul_oracle and parent >= 0 and spans[parent][0] in _VERIFIERS:
                # an exact product of the whole instance, not a folded one
                self.counts["poly.mul_oracle.fallback_calls"] += 1
            rec = [name, 0, 0, parent, self.call_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if is_modverify and not self._inside_modverify(parent):
                self.counts["modverify.rounds"] += result.rounds
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _inside_modverify(self, idx):
        while idx >= 0:
            if self.spans[idx][0].startswith("modverify."):
                return True
            idx = self.spans[idx][3]
        return False

    def _counter(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, pc):
        """Wrap every traced name of the polycheck package pc; restore the
        original objects on exit, also after an exception."""
        saved = []
        try:
            for targets, make in ((SPANNED, self._span), (COUNTED, self._counter)):
                for module, attr, name in targets:
                    namespace = getattr(pc, module)
                    original = getattr(namespace, attr)
                    saved.append((namespace, attr, original))
                    setattr(namespace, attr, make(name, original))
            yield self
        finally:
            for namespace, attr, original in reversed(saved):
                setattr(namespace, attr, original)

    def self_times(self):
        """Total self time in seconds per span name: each span's duration
        minus the durations of its direct children."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(int)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[idx]
        return {name: ns / 1e9 for name, ns in out.items()}

    def span_counts(self):
        out = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "call"],
                       "spans": self.spans}, fh, separators=(",", ":"))
