"""Spans around the calls into rosenlab's layers, recorded from outside.

install() wraps the public functions named in TARGETS and rebinds every
rosenlab module attribute that refers to one of them, so a call is seen
whether it goes through the defining module or through a name another
module imported (expcli.simulate_field, rosenblatt.ball_ft_radial,
geometry.y_d_kernel, ...). A function missing from the installed package
is skipped and its metrics stay absent.

Spans (name, start, end, parent) are kept in memory and written out at the
end; layer_metrics() turns them into inclusive and self times per function
plus the counts the hooks take at the same boundaries.
"""

import functools
import sys
import time
import tracemalloc

import numpy as np

TARGETS = {
    "expcli": ("main", "rate_experiment", "reference_sample"),
    "fieldsim": (
        "simulate_field",
        "circulant_spectrum",
        "functional_integral",
        "lattice_window_volume",
        "ks_distance",
        "normalized_statistic",
    ),
    "rosenblatt": ("build_kernel", "eigen_series", "sample", "variance_oracle"),
    "geometry": ("ball_ft_radial", "distance_integral"),
    "specfun": ("y_d_kernel",),
    "covmodels": ("covariance_eval",),
    "hermite": ("hermite_coefficients",),
}

# calls whose peak traced allocation is recorded (tracemalloc is on only
# for their duration)
PEAK_MEMORY = frozenset({"rosenblatt.build_kernel"})


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Span recorder plus the per-boundary counters of one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self.counts = {}
        self.peak_bytes = {}
        self.statistics = {}  # r -> list of X_r values
        self._spectrum_sites = {}  # (d, h, extent) -> torus sites
        self._window_sites = {}
        self.installed = []
        self._patched = []  # (module, attribute, original)

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- hooks: (args, kwargs, result, error) at each boundary ------------

    def _circulant_spectrum(self, args, kwargs, result, error):
        plan = _arg(args, kwargs, 0, "plan")
        if error is not None:
            self.add("fieldsim.circulant_spectrum.rejected", 1)
            return
        self._spectrum_sites[(plan.dimension, plan.h, plan.extent)] = int(np.size(result))

    def _simulate_field(self, args, kwargs, result, error):
        if error is not None:
            return
        plan = _arg(args, kwargs, 0, "plan")
        sites = self._spectrum_sites.get((plan.dimension, plan.h, plan.extent))
        if sites is not None:
            # one complex standard normal (two real draws) per torus site
            self.add("fieldsim.torus_sites", sites)
            self.add("fieldsim.torus_normals", 2 * sites)

    def _functional_integral(self, args, kwargs, result, error):
        if error is not None:
            return
        field = _arg(args, kwargs, 0, "field")
        window = _arg(args, kwargs, 2, "window")
        r = float(_arg(args, kwargs, 3, "r"))
        key = (field.values.shape, field.h, field.origin, r, window)
        sites = self._window_sites.get(key)
        if sites is None:
            sites = _count_window_sites(field, window, r)
            self._window_sites[key] = sites
        self.add("fieldsim.window_sites", sites)

    def _normalized_statistic(self, args, kwargs, result, error):
        if error is None:
            r = float(_arg(args, kwargs, 2, "r"))
            self.statistics.setdefault(r, []).append(float(result))

    def _build_kernel(self, args, kwargs, result, error):
        if error is None:
            order = getattr(result, "spectrum_size", None)
            if order is not None:
                self.add("rosenblatt.kernel_order", int(order))

    def _sample(self, args, kwargs, result, error):
        if error is None:
            series = _arg(args, kwargs, 0, "series")
            n = int(_arg(args, kwargs, 1, "n"))
            self.add("rosenblatt.sample.normals", n * len(series.eigenvalues))

    def _points(self, index, name, key):
        def hook(args, kwargs, result, error):
            if error is None:
                self.add(key, int(np.size(_arg(args, kwargs, index, name))))

        return hook

    def hooks(self):
        return {
            "fieldsim.circulant_spectrum": self._circulant_spectrum,
            "fieldsim.simulate_field": self._simulate_field,
            "fieldsim.functional_integral": self._functional_integral,
            "fieldsim.normalized_statistic": self._normalized_statistic,
            "rosenblatt.build_kernel": self._build_kernel,
            "rosenblatt.sample": self._sample,
            "geometry.ball_ft_radial": self._points(1, "z", "geometry.ball_ft_radial.points"),
            "specfun.y_d_kernel": self._points(1, "z", "specfun.y_d_kernel.points"),
            "covmodels.covariance_eval": self._points(1, "r", "covmodels.covariance_eval.points"),
        }

    # -- wrapping --------------------------------------------------------

    def wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack
        peak = name in PEAK_MEMORY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            if peak:
                tracemalloc.start()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
                if peak:
                    self.peak_bytes[name] = max(
                        self.peak_bytes.get(name, 0), tracemalloc.get_traced_memory()[1]
                    )
                    tracemalloc.stop()
                if hook is not None:
                    hook(args, kwargs, result, error)

        return traced

    def install(self):
        """Wrap every target present in the loaded rosenlab package."""
        hooks = self.hooks()
        originals = {}
        for module_name, functions in TARGETS.items():
            module = sys.modules.get(f"rosenlab.{module_name}")
            if module is None:
                continue
            for fn_name in functions:
                fn = getattr(module, fn_name, None)
                if callable(fn):
                    name = f"{module_name}.{fn_name}"
                    originals[fn] = self.wrap(name, fn, hooks.get(name))
                    self.installed.append(name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "rosenlab" and not mod_name.startswith("rosenlab."):
                continue
            for attr, value in list(vars(module).items()):
                try:
                    wrapper = originals.get(value)
                except TypeError:  # unhashable attribute
                    continue
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        """Rebind every patched attribute to its original function."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- summary ---------------------------------------------------------

    def times(self):
        """{name: (calls, inclusive seconds, self seconds)}."""
        total = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls, inc, own = total.get(name, (0, 0.0, 0.0))
            total[name] = (calls + 1, inc + (end - start), own + (end - start) - child[i])
        return total

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")


def _count_window_sites(field, window, r):
    """Lattice sites of the field inside the scaled ball (every workload
    window is a ball)."""
    xs = field.coordinates()
    grids = np.meshgrid(*([xs] * field.values.ndim), indexing="ij")
    return int(np.count_nonzero(sum(g * g for g in grids) <= (window.radius * r) ** 2))


# (metric, unit, better, kind, traced function, counter key). kind is the
# span total to read ("calls", "inclusive", "self") or "count" for a hook
# counter; a metric is absent when its traced function is.
LAYER_METRICS = (
    ("expcli.main.self_s", "s", "lower", "self", "expcli.main", None),
    ("expcli.rate_experiment.self_s", "s", "lower", "self", "expcli.rate_experiment", None),
    ("fieldsim.simulate_field.calls", "count", "lower", "calls", "fieldsim.simulate_field", None),
    ("fieldsim.simulate_field.self_s", "s", "lower", "self", "fieldsim.simulate_field", None),
    ("fieldsim.circulant_spectrum.calls", "count", "lower", "calls", "fieldsim.circulant_spectrum", None),
    ("fieldsim.circulant_spectrum.rejected", "count", "lower", "count", "fieldsim.circulant_spectrum", "fieldsim.circulant_spectrum.rejected"),
    ("fieldsim.circulant_spectrum.s", "s", "lower", "inclusive", "fieldsim.circulant_spectrum", None),
    ("fieldsim.torus_normals", "count", "lower", "count", "fieldsim.simulate_field", "fieldsim.torus_normals"),
    ("fieldsim.window_sites", "count", "higher", "count", "fieldsim.functional_integral", "fieldsim.window_sites"),
    ("fieldsim.functional_integral.s", "s", "lower", "inclusive", "fieldsim.functional_integral", None),
    ("fieldsim.lattice_window_volume.s", "s", "lower", "inclusive", "fieldsim.lattice_window_volume", None),
    ("fieldsim.ks_distance.s", "s", "lower", "inclusive", "fieldsim.ks_distance", None),
    ("rosenblatt.build_kernel.self_s", "s", "lower", "self", "rosenblatt.build_kernel", None),
    ("rosenblatt.eigen_series.s", "s", "lower", "inclusive", "rosenblatt.eigen_series", None),
    ("rosenblatt.kernel_order", "count", "lower", "count", "rosenblatt.build_kernel", "rosenblatt.kernel_order"),
    ("rosenblatt.sample.s", "s", "lower", "inclusive", "rosenblatt.sample", None),
    ("rosenblatt.sample.normals", "count", "lower", "count", "rosenblatt.sample", "rosenblatt.sample.normals"),
    ("rosenblatt.variance_oracle.s", "s", "lower", "inclusive", "rosenblatt.variance_oracle", None),
    ("geometry.ball_ft_radial.self_s", "s", "lower", "self", "geometry.ball_ft_radial", None),
    ("geometry.ball_ft_radial.points", "count", "lower", "count", "geometry.ball_ft_radial", "geometry.ball_ft_radial.points"),
    ("geometry.distance_integral.s", "s", "lower", "inclusive", "geometry.distance_integral", None),
    ("specfun.y_d_kernel.s", "s", "lower", "inclusive", "specfun.y_d_kernel", None),
    ("specfun.y_d_kernel.points", "count", "lower", "count", "specfun.y_d_kernel", "specfun.y_d_kernel.points"),
    ("covmodels.covariance_eval.s", "s", "lower", "inclusive", "covmodels.covariance_eval", None),
    ("covmodels.covariance_eval.points", "count", "lower", "count", "covmodels.covariance_eval", "covmodels.covariance_eval.points"),
    ("hermite.hermite_coefficients.s", "s", "lower", "inclusive", "hermite.hermite_coefficients", None),
)


def layer_metrics(tracer):
    """Per-layer values of one traced process, {name: value}.

    Metrics of a function that is not in the installed package are left
    out; one that is installed but never called reads 0.
    """
    times = tracer.times()
    installed = set(tracer.installed)
    out = {}
    for metric, _, _, kind, function, key in LAYER_METRICS:
        if function not in installed:
            continue
        if kind == "count":
            out[metric] = tracer.counts.get(key, 0)
        else:
            calls, inclusive, own = times.get(function, (0, 0.0, 0.0))
            out[metric] = {"calls": calls, "inclusive": inclusive, "self": own}[kind]
    if {"fieldsim.simulate_field", "fieldsim.functional_integral"} <= installed:
        sites = tracer.counts.get("fieldsim.torus_sites", 0)
        window = tracer.counts.get("fieldsim.window_sites", 0)
        out["fieldsim.useful_fraction"] = window / sites if sites else 0.0
    if "rosenblatt.build_kernel" in installed:
        out["rosenblatt.build_kernel.peak_mb"] = (
            tracer.peak_bytes.get("rosenblatt.build_kernel", 0) / 2**20
        )
    if "expcli.rate_experiment" in installed:
        out["expcli.rate_experiment.s"] = times.get("expcli.rate_experiment", (0, 0.0))[1]
    return out
