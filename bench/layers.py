"""Per-layer tracing from outside the program.

The tracer replaces each named public function of bhecke at every module
binding that holds it (for example both splitting.split and report.split)
with a wrapper that counts calls and keeps a stack of open calls, so that
a function's self time excludes the traced calls nested inside it. A few
wrappers also measure a ratio from the arguments and the result. Nothing
in the program changes; uninstall() puts every binding back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import reference as ref

TRACED = {
    "partitions": ("enumerate_partitions", "m_tableau"),
    "splitting": ("residual_partitions", "residual_counts", "split"),
    "cfun": ("pole_order_short_direct", "pole_order_short_blockwise"),
    "rgroup": ("can_glue", "glue_strip_geometric", "restricted_root_system",
               "r_group", "brute_force_W_xi_xi", "brute_force_R"),
    "_wscan": ("images_table", "pi_structure", "w_survivor_indices",
               "r_member_indices"),
    "symbols": ("springer_correspondents", "truncated_induct",
                "similarity_class", "pieri_induct", "a_m"),
    "report": ("build_report",),
}

# Functions traced only for a ratio; they get no calls or self_ms metric.
RATIO_ONLY = {"_wscan.pi_structure"}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.sums = Counter()        # numerators and denominators of ratios
        self.seen = defaultdict(set)
        self.table_mb = 0.0
        self._stack: list[float] = []   # time spent in traced children
        self._restore: list = []
        self._hooks = {
            "splitting.residual_partitions": self._residual_partitions,
            "rgroup.glue_strip_geometric": self._glue_strip_geometric,
            "symbols.similarity_class": self._similarity_class,
            "symbols.springer_correspondents": self._springer_correspondents,
            "_wscan.pi_structure": self._pi_structure,
            "_wscan.images_table": self._images_table,
        }

    # ---- ratio hooks: (args, result) of one completed call

    def _residual_partitions(self, args, result):
        self.sums["residual.tested"] += ref.partition_count(args[0])
        self.sums["residual.found"] += len(result)

    def _glue_strip_geometric(self, args, result):
        mu, p = args[0], args[1]
        self.sums["glue.candidates"] += ref.partition_count(sum(mu) + p)
        self.sums["glue.returned"] += len(result)

    def _similarity_class(self, args, result):
        b, variant = args
        self.sums["similarity.subsets"] += ref.position_subsets(
            b.first, b.second, int(2 * variant.m))
        self.sums["similarity.members"] += len(result.members)

    def _springer_correspondents(self, args, result):
        xi = args[0]
        self._repeat("springer", (xi.n, xi.m, xi.kappa, xi.mu))

    def _pi_structure(self, args, result):
        self._repeat("pi_structure", (args[2],) + result)

    def _images_table(self, args, result):
        self.table_mb = max(self.table_mb, result.nbytes / 1e6)

    def _repeat(self, key, value):
        self.sums[key + ".calls"] += 1
        if value in self.seen[key]:
            self.sums[key + ".repeats"] += 1
        self.seen[key].add(value)

    # ---- installation

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[name] += 1
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "bhecke" or key.startswith("bhecke."))]
        for module, names in TRACED.items():
            home = importlib.import_module(f"bhecke.{module}")
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # ---- results

    def metrics(self) -> dict[str, float]:
        out = {}
        for module, names in TRACED.items():
            for fn_name in names:
                name = f"{module}.{fn_name}"
                if name in RATIO_ONLY:
                    continue
                # metric names start with a letter: _wscan becomes wscan
                prefix = f"{module.lstrip('_')}.{fn_name}"
                out[f"{prefix}.calls"] = self.calls[name]
                out[f"{prefix}.self_ms"] = self.self_s[name] * 1e3
        s = self.sums

        def share(num, den):
            return s[num] / s[den] if s[den] else 0.0

        out["splitting.residual_partitions.yield"] = share("residual.found", "residual.tested")
        out["rgroup.glue_strip_geometric.hit_share"] = share("glue.returned", "glue.candidates")
        out["symbols.similarity_class.subsets_per_member"] = share(
            "similarity.subsets", "similarity.members")
        out["symbols.springer_correspondents.repeat_share"] = share(
            "springer.repeats", "springer.calls")
        out["wscan.pi_structure.repeat_share"] = share(
            "pi_structure.repeats", "pi_structure.calls")
        out["wscan.images_table.mb"] = self.table_mb
        return out


PER_LAYER_UNITS = {
    "calls": ("count", "lower"),
    "self_ms": ("ms", "lower"),
    "yield": ("ratio", "higher"),
    "hit_share": ("ratio", "higher"),
    "subsets_per_member": ("ratio", "lower"),
    "repeat_share": ("ratio", "lower"),
    "mb": ("MB", "lower"),
}


def per_layer_spec() -> list[dict]:
    """The per-layer metric list of BENCHMARK.json, in reporting order."""
    return [{"name": name, "unit": PER_LAYER_UNITS[name.rsplit(".", 1)[1]][0],
             "better": PER_LAYER_UNITS[name.rsplit(".", 1)[1]][1]}
            for name in Tracer().metrics()]
