"""Run-time spans around the public functions of each gauduchon module.

The tracer wraps functions from the benchmark's side; nothing in the package
changes.  A wrapped name is rebound in every ``gauduchon.*`` namespace that
holds the function (``hermitian`` does ``from .forms import wedge``, so
patching ``forms.wedge`` alone would let internal calls escape their span),
and methods are rebound on their class.  Spans are aggregated in memory per
(name, parent) and turned into per-layer metrics once, at the end.

The layer of a span is the module that defines the function, so the layer
names are the module names.  ``scalars`` is left unwrapped: its operators
run tens of millions of times per verify run, and the wrapper would cost
more than the work.  Its cost lands in the self time of the caller's layer
and is timed on its own by the scaling cases.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = (
    "forms", "structures", "linalg", "hermitian", "search",
    "catalog", "sasakian", "dsl", "cli", "verify",
)

# Per-term helpers: called once per monomial, far cheaper than a wrapper.
HOT = {
    "forms": {"merge_ranks", "sort_ranks", "conjugate_rank", "rank_token",
              "holo_rank", "conj_rank"},
    "hermitian": {"sigma_monomial"},
}

# Public methods that carry a layer's work; module-level public functions
# are found by inspection.
METHODS = {
    "forms": {"Form": ("conjugate", "bidegree_parts", "component", "map_coefficients")},
    "structures": {"StructureEquations": ("__init__", "d", "partial", "dbar", "ddbar",
                                          "is_unimodular", "map_coefficients")},
    "hermitian": {
        "Metric": ("is_positive", "fundamental_form", "det_minus_i_x"),
        "Lefschetz": ("__init__", "L", "adjoint", "Lstar", "commutation_residual"),
        "ClassReport": ("to_json",),
    },
    "search": {"SearchOutcome": ("to_json",)},
}

# Span names are "<module>.<function>", with "<module>.<Class>.<method>" for
# methods and "<module>.<Class>" for a constructor.
WEDGE = "forms.wedge"
SUBSTITUTE = "forms.substitute"
D = "structures.StructureEquations.d"
DDBAR = "structures.StructureEquations.ddbar"
ADJOINT = "hermitian.Lefschetz.adjoint"
SAMPLE = "search.sample_positive_metric"
CLOSE = "search.close_scalar_zero"
FIND = "search.find_metric"


def _bits(c) -> int:
    """Largest numerator or denominator bit length of a coefficient."""
    try:
        parts = (c.re, c.im)
    except AttributeError:  # builtin complex in the search's float mirror
        return 0
    return max(max(p.numerator.bit_length(), p.denominator.bit_length()) for p in parts)


class Tracer:
    """Aggregated spans plus the counts the wrappers see in results."""

    def __init__(self):
        self.spans = {}  # (name, parent) -> [calls, total_s, child_s]
        self.stack = []  # [name, child_s] per open span
        self.active = defaultdict(int)  # name -> open spans of that name
        self.counts = defaultdict(int)
        self.coeff_bits_max = 0
        self._patches = []  # (owner, attribute, original value)
        self._claims = None  # (verify.CLAIMS, its original entries)

    # -- recording ------------------------------------------------------------

    def _wrap(self, name, fn):
        stack, spans, active, clock = self.stack, self.spans, self.active, time.perf_counter
        observe = self._observer(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                active[name] -= 1
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = spans.get((name, parent))
                if rec is None:
                    spans[(name, parent)] = [1, elapsed, frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += elapsed
                    rec[2] += frame[1]
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _observer(self, name):
        counts = self.counts
        if name in (WEDGE, SUBSTITUTE):
            def forms_out(form):
                counts[name + ".terms_out"] += len(form.terms)
                bits = max((_bits(c) for c in form.terms.values()), default=0)
                if bits > self.coeff_bits_max:
                    self.coeff_bits_max = bits
            return forms_out
        if name == D:
            def d_call(_form):
                if self.active[DDBAR]:
                    counts["d_in_ddbar"] += 1
            return d_call
        if name == CLOSE:
            def close_out(metric):
                counts["close_successes"] += metric is not None
            return close_out
        if name == FIND:
            def find_out(outcome):
                counts["find_witness"] += outcome.status == "witness"
            return find_out
        return None

    # -- installing -----------------------------------------------------------

    def install(self):
        """Wrap every listed function and rebind it wherever it is held."""
        mods = {name: sys.modules[f"gauduchon.{name}"] for name in LAYERS}
        replace = {}  # id(original function) -> wrapper
        for layer, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or attr in HOT.get(layer, ())
                        or not callable(value) or isinstance(value, type)
                        or getattr(value, "__module__", None) != mod.__name__):
                    continue
                replace[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    original = cls.__dict__[meth]
                    label = f"{layer}.{cls_name}" if meth == "__init__" else f"{layer}.{cls_name}.{meth}"
                    self._patch(cls, meth, self._wrap(label, original))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gauduchon" or mod_name.startswith("gauduchon.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        # run_verify_paper reads its claim functions from this list, not
        # from the module namespace
        claims = mods["verify"].CLAIMS
        self._claims = (claims, list(claims))
        claims[:] = [(cid, title, replace[id(fn)][1]) for cid, title, fn in claims]

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._claims is not None:
            claims, original = self._claims
            claims[:] = original
            self._claims = None

    # -- results --------------------------------------------------------------

    def calls(self, name):
        return sum(rec[0] for (n, _), rec in self.spans.items() if n == name)

    def inclusive_s(self, name):
        """Time in outermost spans of a name (recursion counted once)."""
        return sum(rec[1] for (n, p), rec in self.spans.items() if n == name and p != name)

    def self_s(self, layer):
        prefix = layer + "."
        return sum(rec[1] - rec[2] for (n, _), rec in self.spans.items() if n.startswith(prefix))

    def span_table(self):
        return [
            {"name": n, "parent": p, "calls": rec[0], "total_s": rec[1], "self_s": rec[1] - rec[2]}
            for (n, p), rec in sorted(self.spans.items(), key=lambda kv: -kv[1][1])
        ]
