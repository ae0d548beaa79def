"""One CLI invocation in a fresh interpreter, as a CLI user runs it.

    python3 perfbench/worker.py '<json spec>'

The spec names the checkout's ``src`` directory, the CLI argument list
(``null`` to time the import alone), whether to trace, and the file that
receives the result: import time, wall time of ``viralcm.cli.main``, its
exit code and the process's peak RSS.

With tracing on, the calls into each layer's public functions are wrapped
from here (the package itself is untouched).  Each wrapper records a span;
spans entered directly from the CLI are disjoint, so the CLI's own time is
its wall time minus their sum.  Work the benchmark does between spans
(workload descriptors, copies for the memory replay) is timed and taken
out of the CLI's wall time.  After the CLI returns, the ``build`` and
``all_reach`` call of its slowest reach are replayed under ``tracemalloc``
for their peak allocation, which would slow the timed run several-fold.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import resource
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path


class Tracer:
    """Spans and counters around viralcm's public functions."""

    def __init__(self):
        self.depth = 0
        self.top_s = 0.0
        self.untimed_s = 0.0
        self.times = defaultdict(list)
        self.counts = Counter()
        self.graph_inputs = {}
        self.slowest_reach = None
        self.missing = []

    def span(self, name, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                mark = time.perf_counter()
                state = before(args)
                self.untimed_s += time.perf_counter() - mark
            self.depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.depth -= 1
                self.times[name].append(elapsed)
                if self.depth == 0:
                    self.top_s += elapsed
            if after is not None:
                mark = time.perf_counter()
                after(state if before is not None else None, args, kwargs, result, elapsed)
                self.untimed_s += time.perf_counter() - mark
            return result

        return wrapper

    def patch(self, owner, attr, name, prepare=None, **hooks):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.span(name, prepare(fn) if prepare else fn, **hooks))

    # -- hooks ------------------------------------------------------------

    def _counted_find_root(self, fn):
        def find_root(f, *args, **kwargs):
            def counted(x):
                self.counts["root_evals"] += 1
                return f(x)

            return fn(counted, *args, **kwargs)

        return find_root

    def _before_build(self, args):
        sample, rng = args[0], args[1]
        return sample, copy.deepcopy(rng)

    def _after_build(self, state, args, kwargs, g, elapsed):
        self.counts["arcs"] += g.arc_count
        self.graph_inputs[id(g)] = state

    def _after_all_reach(self, state, args, kwargs, outcome, elapsed):
        g = args[0]
        scc_count, giant, edges = descriptors(g)
        self.counts["scc_count"] += scc_count
        self.counts["condensation_edges"] += edges
        self.counts["giant_scc_size"] = max(self.counts["giant_scc_size"], giant)
        if self.slowest_reach is None or elapsed > self.slowest_reach[0]:
            self.slowest_reach = (elapsed, g, args[1:], kwargs, self.graph_inputs.get(id(g)))

    def install(self):
        import viralcm.analytic as analytic
        import viralcm.cli as cli
        import viralcm.estimators as estimators
        import viralcm.populations as populations

        self.build, self.all_reach = getattr(cli, "build", None), getattr(cli, "all_reach", None)
        self.patch(populations.JointDegreeLaw, "sample", "populations.sample")
        self.patch(cli, "build", "graph.build", before=self._before_build, after=self._after_build)
        self.patch(cli, "all_reach", "diffusion.all_reach", after=self._after_all_reach)
        self.patch(cli, "analyze", "analytic.analyze")
        self.patch(cli, "branching_crosscheck", "analytic.branching")
        self.patch(cli, "estimate_fractions", "estimators.estimate")
        self.patch(cli, "evaluate_campaign", "estimators.evaluate")
        self.patch(cli, "load_sample_csv", "estimators.load_csv")
        self.patch(estimators, "estimate_fractions", "estimators.estimate")
        for module in (analytic, estimators):
            self.patch(module, "build_genfns", "analytic.build_genfns")
            self.patch(module, "find_root", "analytic.find_root", prepare=self._counted_find_root)
        for module in (populations, analytic):
            self.patch(module, "polylog", "special.polylog")

    def replay_peaks(self) -> dict:
        """tracemalloc peaks of the slowest reach's build and all_reach."""
        import numpy as np
        import tracemalloc

        if self.slowest_reach is None or self.slowest_reach[4] is None:
            return {"build_peak_mb": 0.0, "all_reach_peak_mb": 0.0}
        _, g, args, kwargs, (sample, rng) = self.slowest_reach
        tracemalloc.start()
        g2 = self.build(sample, rng)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        if not (np.array_equal(g2.arc_src, g.arc_src) and np.array_equal(g2.arc_dst, g.arc_dst)):
            raise RuntimeError("replayed build differs from the traced one")
        tracemalloc.start()
        self.all_reach(g2, *args, **kwargs)
        reach_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return {"build_peak_mb": build_peak / 2**20, "all_reach_peak_mb": reach_peak / 2**20}


def descriptors(g) -> tuple[int, int, int]:
    """SCC count, giant SCC size and deduplicated condensation edges."""
    import numpy as np
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    adj = sparse.csr_matrix(
        (np.ones(g.arc_src.size, dtype=bool), (g.arc_src, g.arc_dst)), shape=(g.n, g.n)
    )
    n_scc, labels = connected_components(adj, directed=True, connection="strong")
    cs, cd = labels[g.arc_src].astype(np.int64), labels[g.arc_dst].astype(np.int64)
    keep = cs != cd
    edges = np.unique(cs[keep] * n_scc + cd[keep]).size
    return int(n_scc), int(np.bincount(labels).max()), int(edges)


def main() -> int:
    spec = json.loads(sys.argv[1])
    start = time.perf_counter()
    import viralcm
    import viralcm.cli

    setup_s = time.perf_counter() - start
    src = Path(spec["src"]).resolve()
    if src not in Path(viralcm.__file__).resolve().parents:
        print(f"imported viralcm from {viralcm.__file__}, not from {src}", file=sys.stderr)
        return 3
    result = {"setup_s": setup_s}
    if spec["argv"] is not None:
        tracer = Tracer() if spec["trace"] else None
        if tracer is not None:
            tracer.install()
        stdout = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                result["rc"] = viralcm.cli.main(spec["argv"])
        except Exception:
            result["rc"] = None
            result["error"] = traceback.format_exc()
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["wall_s"] -= tracer.untimed_s
            result["trace"] = {
                "top_s": tracer.top_s,
                "times": tracer.times,
                "counts": tracer.counts,
                "missing": tracer.missing,
                **tracer.replay_peaks(),
            }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
