"""Per-layer tracing from outside the package.

``Tracer.install`` rebinds every public function of each layer module
wherever a package module binds it: ``acos_mp`` is wrapped in ``oracle``,
in ``family`` and in ``verifier``, and ``hp_context`` in every module that
imports it.  ``BoundFamily.pair_mp`` and ``pair_f64`` are wrapped on the
class.  A wrapper counts calls, adds its inclusive time to the function's
busy time (outermost calls only, so recursion is not counted twice) and its
exclusive time (minus the time of the spans it encloses) to its layer's
self time.  The untraced run never calls ``install``.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter

LAYERS = ("oracle", "family", "classifier", "bounds", "verifier", "cli")

# float64 family evaluators and the promotion band each one applies near x = 1
# (chain_eval's band depends on its selector); bands are read from the module
_EVALUATORS = {
    "f_eval": "ENDPOINT_PROMOTE",
    "g_eval": "ENDPOINT_PROMOTE",
    "g_prime_eval": "GPRIME_PROMOTE",
    "chain_eval": None,
    "envelope_eval": "ENDPOINT_PROMOTE",
    "big_f_eval": "ENDPOINT_PROMOTE",
}
_CLASSIFIERS = ("classifier.classify_numeric", "classifier.classify_symbolic")


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.calls = Counter()  # "layer.function" -> calls
        self.busy = Counter()  # "layer.function" -> inclusive seconds
        self.self_s = Counter()  # layer -> exclusive seconds
        self.classifier_hp = 0  # hp_context calls made from classifier code
        self.promoted = 0
        self.hp_fallbacks = 0
        self.g_prime_in_classify = 0
        self._active = Counter()
        self._stack: list[list[float]] = []  # child time of each open span
        self._undo: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        binders = [getattr(self.pkg, n) for n in LAYERS] + [self.pkg.package]
        for layer in LAYERS:
            mod = getattr(self.pkg, layer)
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                for binder in binders:
                    for bname, obj in list(vars(binder).items()):
                        if obj is fn:
                            self._rebind(binder, bname, self._wrap(layer, name, fn, binder))
        family_cls = self.pkg.bounds.BoundFamily
        for meth in ("pair_mp", "pair_f64"):
            self._rebind(family_cls, meth, self._wrap("bounds", meth, vars(family_cls)[meth], None))

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._undo):
            setattr(owner, name, old)
        self._undo.clear()

    def _rebind(self, owner, name, new) -> None:
        self._undo.append((owner, name, getattr(owner, name) if inspect.ismodule(owner) else vars(owner)[name]))
        setattr(owner, name, new)

    # -- spans -------------------------------------------------------------

    def _wrap(self, layer, name, fn, binder):
        key = f"{layer}.{name}"
        calls, busy, self_s, active, stack = self.calls, self.busy, self.self_s, self._active, self._stack
        clock = time.perf_counter
        pre = self._pre_hook(key, binder)
        watch = key in _CLASSIFIERS

        def span(*args, **kwargs):
            calls[key] += 1
            if pre is not None:
                pre(args, kwargs)
            outer = not active[key]
            if watch and outer:
                hp0, gp0 = self.classifier_hp, calls["family.g_prime_eval"]
            active[key] += 1
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[key] -= 1
                self_s[layer] += dt - child[0]
                if stack:
                    stack[-1][0] += dt
                if outer:
                    busy[key] += dt
                    if watch:
                        self.g_prime_in_classify += calls["family.g_prime_eval"] - gp0
                        if key == "classifier.classify_numeric" and self.classifier_hp > hp0:
                            self.hp_fallbacks += 1

        span.__wrapped__ = fn
        return span

    def _pre_hook(self, key, binder):
        if key == "oracle.hp_context" and binder is self.pkg.classifier:

            def count_classifier_region(args, kwargs):
                self.classifier_hp += 1

            return count_classifier_region
        name = key.partition(".")[2]
        if key.startswith("family.") and name in _EVALUATORS:
            fam = self.pkg.family
            band_name = _EVALUATORS[name]

            def count_promotion(args, kwargs):
                pt = kwargs.get("pt", args[-1] if args else None)
                if band_name is None:
                    which = kwargs.get("which", args[0] if args else None)
                    band = fam.ENDPOINT_PROMOTE if which == "big_g" else fam.CHAIN_PROMOTE
                else:
                    band = getattr(fam, band_name)
                if _promoted(pt, band, fam.ENDPOINT_PROMOTE):
                    self.promoted += 1

            return count_promotion
        return None

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures this tracer measures, by metric name."""
        out: dict[str, float] = {}
        for key in FUNCTION_KEYS:
            func, _, field = key.rpartition(".")
            out[key] = float(self.calls[func] if field == "calls" else self.busy[func])
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        out["oracle.hp_context.enters"] = float(self.calls["oracle.hp_context"])
        out["family.promoted.calls"] = float(self.promoted)
        n = self.calls["classifier.classify_numeric"]
        out["classifier.g_prime_evals_per_classify"] = self.g_prime_in_classify / n if n else 0.0
        out["classifier.hp_fallbacks"] = float(self.hp_fallbacks)
        return out

    def functions(self) -> dict[str, dict]:
        """Every wrapped function that was called: calls and busy seconds."""
        return {k: {"calls": self.calls[k], "busy_s": self.busy[k]} for k in sorted(self.calls)}


def _promoted(pt, band: float, endpoint: float) -> bool:
    """Whether a float64 request at pt lies in a promotion band (as family._evaluate decides)."""
    if pt is None or getattr(pt, "digits", 0) is not None:
        return False
    try:
        x = float(pt.x)
    except (TypeError, ValueError):
        return False
    return 0.0 <= x < 1.0 and ((0.0 < x <= endpoint) or (1.0 - x <= band))


# "<layer>.<function>.<calls|busy_s>" figures reported from the span counters
FUNCTION_KEYS = (
    "oracle.arccos_hp.calls",
    "oracle.arccos_hp.busy_s",
    "oracle.acos_mp.calls",
    "oracle.acos_mp.busy_s",
    "family.g_prime_eval.calls",
    "family.g_prime_eval.busy_s",
    "family.g_eval.calls",
    "family.f_eval.calls",
    "family.chain_eval.calls",
    "family.chain_eval.busy_s",
    "family.envelope_eval.calls",
    "classifier.classify_numeric.calls",
    "classifier.classify_numeric.busy_s",
    "classifier.classify_symbolic.calls",
    "classifier.classify_symbolic.busy_s",
    "classifier.exact_increasing_threshold.calls",
    "classifier.exact_increasing_threshold.busy_s",
    "classifier.extrema_points.calls",
    "classifier.extrema_points.busy_s",
    "bounds.best_envelope.calls",
    "bounds.best_envelope.busy_s",
    "bounds.approx_arccos.calls",
    "bounds.approx_arccos.busy_s",
    "bounds.bound_table.busy_s",
    "bounds.pair_mp.calls",
    "bounds.pair_mp.busy_s",
    "verifier.check_double_inequality.busy_s",
    "verifier.check_class.busy_s",
    "verifier.scan_pattern.busy_s",
    "verifier.check_sign_chain.busy_s",
    "verifier.check_sharpness.busy_s",
    "verifier.check_identities.busy_s",
    "cli.main.busy_s",
)
