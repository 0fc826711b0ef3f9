"""Traced runs: timing wrappers around the public functions of each layer.

``Tracer.install`` replaces every public function of each redcalc module
(the names in ``__all__``; for ``cli``, which has none, its public
functions), ``TruncatedSeries.compose`` and ``BivariateSeries.compose_z``
with a wrapper, wherever a redcalc module or a module-level dict holds a
reference to it (so ``oracle``'s imported ``branch_counts`` and
``fringe_sizes`` and the figure table in ``cli`` are covered).
``Tracer.remove`` puts the originals back.  ``src/redcalc`` is not edited.

A wrapper counts every call.  It records a span (id, function, start, end,
parent span) only at a layer boundary, i.e. when the caller is in another
layer, plus always for the functions in ``_KEY_SPANS`` whose time is a
metric of its own.  Spans stay in per-thread arrays until the pass ends.
A worker thread's first span takes as parent the innermost open span of the
thread that runs the requests, which is the enumeration call waiting for it.

Self time: a span's duration minus the part its child spans cover.  Child
spans in worker threads can overlap each other; their shares are then
scaled by (covered time / summed child time), so the self times of all
spans of a request add up to the request's duration exactly.
"""

import array
import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict

import numpy as np

from .workloads import useful_backends

__all__ = ["LAYERS", "Tracer", "analyze"]

LAYERS = ("bench", "cli", "exact", "series", "oracle", "trees", "paths", "asym", "special")
_BENCH = 0
_METHODS = (("series", "TruncatedSeries", "compose"), ("series", "BivariateSeries", "compose_z"))
_KEY_SPANS = {
    "series.TruncatedSeries.compose", "series.BivariateSeries.compose_z",
    "oracle.tree_stats", "oracle.path_stats",
    "oracle.sample_cherry_counts", "oracle.sample_fringe_sizes",
}
_ENUM = ("oracle.tree_stats", "oracle.path_stats")
_SAMPLE = ("oracle.sample_cherry_counts", "oracle.sample_fringe_sizes")
_COMPOSE = ("series.TruncatedSeries.compose", "series.BivariateSeries.compose_z")
# each backend a table request can compute; special counts with asym
_BACKEND = {"exact": "exact", "series": "series", "oracle": "oracle",
            "asym": "asym", "special": "asym"}

# binomial-sum terms of each closed form, from its bound arguments
_EXACT_TERMS = {
    "expected_r_branches": lambda a: (a["n"] + 1) >> a["r"] if a["r"] else 0,
    "expected_total_branches": lambda a: a["n"] + 1,
    "count_paths_rdeg": lambda a: a["n"] >> a["r"] if a["r"] else 0,
    "expected_rdeg": lambda a: a["n"],
    "expected_fringe": lambda a: a["n"] >> a["r"],
    "expected_total_fringe": lambda a: a["n"],
}


class _ThreadState:
    """Spans and counters of one thread; only that thread appends to them."""

    def __init__(self, n_funcs, thread):
        self.thread = thread
        self.stack = []
        self.calls = [0] * n_funcs
        self.counters = defaultdict(int)
        self.seen = set()
        self.sid = array.array("q")
        self.fid = array.array("i")
        self.t0 = array.array("d")
        self.t1 = array.array("d")
        self.parent = array.array("q")

    def reset(self):
        self.calls = [0] * len(self.calls)
        self.counters.clear()
        self.seen.clear()
        for name in ("sid", "fid", "t0", "t1", "parent"):
            setattr(self, name, array.array(getattr(self, name).typecode))


def _public_functions(layer, mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        obj = getattr(mod, name, None)
        if (callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == mod.__name__):
            yield f"{layer}.{name}", obj


class Tracer:
    def __init__(self, modules):
        """modules: layer name -> imported redcalc module, for LAYERS[1:]."""
        self.modules = modules
        self.names = ["bench.request"]
        self.layer_of = [_BENCH]
        self.originals = [None]
        for layer in LAYERS[1:]:
            for name, fn in _public_functions(layer, modules[layer]):
                self._add(name, layer, fn)
        for layer, cls, meth in _METHODS:
            self._add(f"{layer}.{cls}.{meth}", layer, getattr(getattr(modules[layer], cls), meth))
        self.fid = {name: i for i, name in enumerate(self.names)}
        self._local = threading.local()
        self._states = []
        self._ids = itertools.count()
        self._patches = []
        self.request = -1
        self.request_roots = []  # (root span id, request id)
        self._fluct = getattr(modules["asym"], "fluctuation", None)
        self._fluct_info = None
        self._main = self._state()

    def _add(self, name, layer, fn):
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        self.originals.append(fn)

    def _state(self):
        st = _ThreadState(len(self.names), threading.current_thread())
        self._local.state = st
        self._states.append(st)
        return st

    # -- hooks: counters computed from the arguments or the result --------

    def _hook(self, name, fn):
        layer, _, short = name.partition(".")
        if layer == "exact" and short in _EXACT_TERMS:
            sig, terms = inspect.signature(fn), _EXACT_TERMS[short]

            def exact_terms(st, args, kwargs):
                st.counters["exact.terms"] += terms(sig.bind(*args, **kwargs).arguments)
            return exact_terms
        if name in _ENUM:
            sig = inspect.signature(fn)
            is_tree = name == "oracle.tree_stats"

            def enum(st, args, kwargs):
                n = sig.bind(*args, **kwargs).arguments["n"]
                st.counters["oracle.objects"] += (
                    math.comb(2 * n, n) // (n + 1) if is_tree else 4**n)
                key = (self.request, name, n)
                st.counters["oracle.enum_repeats"] += key in st.seen
                st.seen.add(key)
            return enum
        if name in _SAMPLE:
            sig = inspect.signature(fn)

            def samples(st, args, kwargs):
                st.counters["oracle.samples"] += sig.bind(*args, **kwargs).arguments["samples"]
            return samples
        if layer == "series":
            def repeats(st, args, kwargs):
                key = (self.request, name, args, tuple(sorted(kwargs.items())))
                try:
                    st.counters["series.repeats"] += key in st.seen
                    st.seen.add(key)
                except TypeError:  # unhashable argument, e.g. a BivariateSeries
                    pass
            return repeats
        return None

    def _result_hook(self, name):
        if not name.startswith("series."):
            return None

        def coeffs_out(st, result):
            if hasattr(result, "rows"):
                st.counters["series.coeffs_out"] += sum(len(row) for row in result.rows)
            elif hasattr(result, "c"):
                st.counters["series.coeffs_out"] += len(result.c)
            else:
                st.counters["series.coeffs_out"] += 1
        return coeffs_out

    def _wrap(self, fid):
        fn, name = self.originals[fid], self.names[fid]
        layer = self.layer_of[fid]
        always = name in _KEY_SPANS
        hook, result_hook = self._hook(name, fn), self._result_hook(name)
        local, ids, perf = self._local, self._ids, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            try:
                st = local.state
            except AttributeError:
                st = tracer._state()
            st.calls[fid] += 1
            if hook is not None:
                hook(st, args, kwargs)
            stack = st.stack
            if stack:
                top = stack[-1]
            else:
                main = tracer._main.stack
                top = main[-1] if main else (-1, _BENCH)
            if top[1] == layer and not always:
                return fn(*args, **kwargs)
            sid = next(ids)
            stack.append((sid, layer))
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                st.sid.append(sid)
                st.fid.append(fid)
                st.t0.append(t0)
                st.t1.append(t1)
                st.parent.append(top[0])
            if result_hook is not None and top[1] != layer:
                result_hook(st, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- install / remove ---------------------------------------------------

    def install(self):
        wrappers = {id(fn): (fn, self._wrap(fid))
                    for fid, fn in enumerate(self.originals) if fn is not None}

        def patch(container, key, value, setter):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setter(container, key, hit[1])
                self._patches.append((container, key, value, setter))
                return True
            return False

        def set_item(d, k, v):
            d[k] = v

        for modname, mod in list(sys.modules.items()):
            if modname != "redcalc" and not modname.startswith("redcalc."):
                continue
            for key, value in list(vars(mod).items()):
                if patch(mod, key, value, setattr) or not isinstance(value, dict):
                    continue
                # module-level tables of functions, e.g. the figure specs in cli
                for k, v in list(value.items()):
                    if not patch(value, k, v, set_item) and isinstance(v, dict):
                        for k2, v2 in list(v.items()):
                            patch(v, k2, v2, set_item)
        for layer, cls_name, meth in _METHODS:
            cls = getattr(self.modules[layer], cls_name)
            patch(cls, meth, getattr(cls, meth), setattr)

    def remove(self):
        for container, key, value, setter in reversed(self._patches):
            setter(container, key, value)
        self._patches.clear()

    # -- passes and requests ------------------------------------------------

    def begin_pass(self):
        for st in self._states:
            st.reset()
        self._states = [st for st in self._states if st.thread.is_alive()]
        self.request_roots = []
        info = getattr(self._fluct, "cache_info", None)
        self._fluct_info = info() if info else None

    def begin_request(self, rid):
        self.request = rid
        sid = next(self._ids)
        self.request_roots.append((sid, rid))
        self._main.stack.append((sid, _BENCH))
        self._req_t0 = time.perf_counter()

    def end_request(self):
        t1 = time.perf_counter()
        sid, _ = self._main.stack.pop()
        st = self._main
        st.sid.append(sid)
        st.fid.append(0)
        st.t0.append(self._req_t0)
        st.t1.append(t1)
        st.parent.append(-1)

    def end_pass(self):
        """Spans and counters recorded since begin_pass."""
        cols = {}
        for col in ("sid", "fid", "t0", "t1", "parent"):
            parts = [np.frombuffer(getattr(st, col), dtype=getattr(st, col).typecode)
                     for st in self._states if len(st.sid)]
            cols[col] = np.concatenate(parts) if parts else np.empty(0)
        order = np.argsort(cols["sid"], kind="stable")
        spans = {k: v[order].copy() for k, v in cols.items()}
        calls = np.zeros(len(self.names), dtype=np.int64)
        counters = defaultdict(int)
        for st in self._states:
            calls += np.asarray(st.calls, dtype=np.int64)
            for k, v in st.counters.items():
                counters[k] += v
        hit_ratio = 0.0
        if self._fluct_info is not None:
            now = self._fluct.cache_info()
            hits = now.hits - self._fluct_info.hits
            misses = now.misses - self._fluct_info.misses
            hit_ratio = hits / (hits + misses) if hits + misses else 0.0
        roots = dict(self.request_roots)
        return dict(spans=spans, calls=calls, counters=dict(counters),
                    fluct_hit_ratio=hit_ratio, roots=roots)


def _self_times(sid, t0, t1, parent_sid):
    """Per-span self time and index of the request root span."""
    n = len(sid)
    has_p = parent_sid >= 0
    pidx = np.where(has_p, np.searchsorted(sid, parent_sid), np.arange(n))
    dur = t1 - t0
    ch = np.nonzero(has_p)[0]
    covered = np.zeros(n)
    childsum = np.zeros(n)
    if len(ch):
        order = np.lexsort((t0[ch], pidx[ch]))
        c, p = ch[order], pidx[ch][order]
        rank = np.cumsum(np.r_[0, p[1:] != p[:-1]])
        base = t0.min()
        # one time axis per parent, laid end to end, so a running maximum of
        # the end times never crosses from one parent's children to the next
        offset = rank * (t1.max() - base + 1.0)
        start, end = t0[c] - base + offset, t1[c] - base + offset
        reach = np.r_[-np.inf, np.maximum.accumulate(end)[:-1]]
        contrib = np.clip(end - np.maximum(start, reach), 0.0, None)
        covered = np.bincount(p, weights=contrib, minlength=n)
        childsum = np.bincount(p, weights=dur[c], minlength=n)
    share = np.divide(covered, childsum, out=np.ones(n), where=childsum > 0)
    weight = np.ones(n)
    root = pidx.copy()
    while True:
        new_weight = np.where(has_p, weight[pidx] * share[pidx], 1.0)
        new_root = root[root]
        if np.array_equal(new_weight, weight) and np.array_equal(new_root, root):
            break
        weight, root = new_weight, new_root
    return weight * (dur - covered), root


def _twin_key(argv):
    i = argv.index("--threads")
    return tuple(argv[:i] + argv[i + 2:]), int(argv[i + 1])


def analyze(tracer, data, requests):
    """Per-layer metrics of one traced pass (see BENCHMARK.json per_layer)."""
    spans = data["spans"]
    sid, fid = spans["sid"].astype(np.int64), spans["fid"].astype(np.int64)
    t0, t1, parent = spans["t0"], spans["t1"], spans["parent"].astype(np.int64)
    self_t, root = _self_times(sid, t0, t1, parent)
    layer_of = np.asarray(tracer.layer_of)
    layer = layer_of[fid]
    layer_self = np.bincount(layer, weights=self_t, minlength=len(LAYERS))
    dur = t1 - t0
    incl = np.bincount(fid, weights=dur, minlength=len(tracer.names))
    req_at = np.full(len(sid), -1)
    for i in np.nonzero(parent < 0)[0]:
        req_at[i] = data["roots"][int(sid[i])]
    req_of = req_at[root]
    calls, cnt = data["calls"], data["counters"]

    def fids(names):
        return [tracer.fid[n] for n in names if n in tracer.fid]

    def calls_in(layer_name):
        return int(sum(calls[i] for i, l in enumerate(tracer.layer_of)
                       if LAYERS[l] == layer_name))

    enum_f, sample_f, compose_f = fids(_ENUM), fids(_SAMPLE), fids(_COMPOSE)
    enum_calls = int(calls[enum_f].sum())
    enum_s = float(incl[enum_f].sum())
    sample_s = float(incl[sample_f].sum())

    # 1-thread vs 2-thread enumeration time on the same requests
    enum_by_req = defaultdict(float)
    mask = np.isin(fid, enum_f)
    for r, d in zip(req_of[mask], dur[mask]):
        enum_by_req[int(r)] += float(d)
    by_key = defaultdict(dict)
    for q in requests:
        if q["kind"] == "cli":
            key, threads = _twin_key(q["argv"])
            by_key[key][threads] = by_key[key].get(threads, 0.0) + enum_by_req.get(q["id"], 0.0)
    one = sum(v[1] for v in by_key.values() if 1 in v and 2 in v)
    two = sum(v[2] for v in by_key.values() if 1 in v and 2 in v)

    # backends computed directly under a cli span, against those it uses
    pidx = np.searchsorted(sid, parent)
    cli_parent = (parent >= 0) & (layer_of[fid[np.clip(pidx, 0, len(sid) - 1)]]
                                  == LAYERS.index("cli"))
    computed = defaultdict(set)
    for r, l in zip(req_of[cli_parent], layer[cli_parent]):
        if LAYERS[l] in _BACKEND:
            computed[int(r)].add(_BACKEND[LAYERS[l]])
    n_computed = n_useful = 0
    for q in requests:
        if q["kind"] != "cli" or q["id"] not in computed:
            continue
        got = computed[q["id"]]
        useful = useful_backends(q["argv"])
        n_computed += len(got)
        n_useful += len(got if useful is None else got & useful)

    objects, samples = cnt.get("oracle.objects", 0), cnt.get("oracle.samples", 0)
    series_calls = calls_in("series")
    L = dict(zip(LAYERS, layer_self.tolist()))
    return {
        "exact.calls": calls_in("exact"),
        "exact.terms": cnt.get("exact.terms", 0),
        "exact.self_s": L["exact"],
        "series.calls": series_calls,
        "series.coeffs_out": cnt.get("series.coeffs_out", 0),
        "series.compose_calls": int(calls[compose_f].sum()),
        "series.compose_s": float(incl[compose_f].sum()),
        "series.self_s": L["series"],
        "series.repeat_ratio": cnt.get("series.repeats", 0) / series_calls if series_calls else 0.0,
        "oracle.enum_calls": enum_calls,
        "oracle.objects": objects,
        "oracle.enum_s": enum_s,
        "oracle.objects_per_s": objects / enum_s if enum_s else 0.0,
        "oracle.repeat_enum_ratio": cnt.get("oracle.enum_repeats", 0) / enum_calls if enum_calls else 0.0,
        "oracle.thread_speedup": one / two if two else 1.0,
        "oracle.samples": samples,
        "oracle.sample_s": sample_s,
        "oracle.samples_per_s": samples / sample_s if sample_s else 0.0,
        "oracle.self_s": L["oracle"],
        "trees.branch_counts_calls": int(calls[tracer.fid["trees.branch_counts"]]),
        "trees.self_s": L["trees"],
        "paths.reduce_calls": int(calls[tracer.fid["paths.reduce_path"]]),
        "paths.fringe_sizes_calls": int(calls[tracer.fid["paths.fringe_sizes"]]),
        "paths.self_s": L["paths"],
        "asym.calls": calls_in("asym"),
        "asym.self_s": L["asym"],
        "asym.fluct_cache_hit_ratio": data["fluct_hit_ratio"],
        "special.calls": calls_in("special"),
        "special.self_s": L["special"],
        "cli.self_s": L["cli"],
        "cli.backend_useful_ratio": n_useful / n_computed if n_computed else 1.0,
    }
