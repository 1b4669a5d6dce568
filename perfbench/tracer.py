"""Span tracing of the clusterfibre layers, installed from outside the package.

``Tracer.install`` rebinds every ``clusterfibre.*`` module attribute that
refers to a traced function (modules import names like ``reduce_poly`` from
each other, so patching only the defining module would miss those calls),
plus the class attribute for methods.  ``Tracer.uninstall`` puts the
originals back.

Each call of a traced function becomes one span: name, start, end, parent
span and input id, kept in flat arrays in memory and written out once at the
end.  A span's self time is its duration minus the part its children cover;
a name's total time counts only its outermost spans, so recursion (as in
``residue_tower``) is not counted twice.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# (module, class or None, attribute).  The span name is "module.Class.attr"
# or "module.attr", matching the metric names in BENCHMARK.json.
TARGETS = [
    ("cli", None, "run"),
    ("cli", None, "parse_poly"),
    ("clusters", None, "build_cluster_tree"),
    ("clusters", None, "normalize_input"),
    ("clusters", None, "assign_centres"),
    ("invariants", None, "all_records"),
    ("fibre", None, "assemble"),
    ("fibre", None, "export"),
    ("newton", None, "reduce_poly"),
    ("newton", None, "residue_tower"),
    ("newton", None, "newton_polygon"),
    ("newton", None, "lift_key"),
    ("newton", None, "is_key"),
    ("valuation", "MacLaneVal", "eval"),
    ("field", "KPoly", "divmod"),
    ("field", "KPoly", "phi_expand"),
    ("field", "KPoly", "is_separable"),
    ("field", "KElem", "inverse"),
    ("field", None, "discriminant_val"),
    ("field", None, "extend_unramified"),
    ("ff", None, "is_irreducible"),
    ("ff", "FFPoly", "pow_mod"),
    ("ff", None, "ff_factor"),
    ("ff", None, "ff_extend"),
]

PACKAGE = "clusterfibre"


class Tracer:
    def __init__(self):
        self.names = [".".join(x for x in t if x) for t in TARGETS]
        self.index = {n: i for i, n in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.input_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.outer = array("b")   # 1 when no enclosing span has the same name
        self.raised = set()       # spans whose call ended in an exception
        self.current_input = -1
        self._stack = [-1]
        self._active = [0] * len(self.names)
        self._patches = []        # (owner, attribute, original)
        # phi_expand (self, phi) pairs seen in the current input
        self.expand_seen = set()
        self.expand_distinct = 0
        self.irreducible_true = 0

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for idx, (mod_name, cls_name, attr) in enumerate(TARGETS):
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            owner = getattr(module, cls_name, None) if cls_name else module
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                continue  # the layer no longer has this function: no spans
            wrapper = self._wrap(original, idx)
            if cls_name:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def begin_input(self, input_id):
        self.current_input = input_id
        self.expand_seen = set()

    def _wrap(self, fn, idx):
        clock = time.perf_counter_ns
        stack, active = self._stack, self._active
        name_id, parent, input_id = self.name_id, self.parent, self.input_id
        start, end, outer, raised = self.start, self.end, self.outer, self.raised
        is_expand = self.names[idx] == "field.KPoly.phi_expand"
        is_irreducible = self.names[idx] == "ff.is_irreducible"
        tracer = self

        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(idx)
            parent.append(stack[-1])
            input_id.append(tracer.current_input)
            outer.append(active[idx] == 0)
            end.append(0)
            if is_expand:
                key = (args[0], args[1])
                if key not in tracer.expand_seen:
                    tracer.expand_seen.add(key)
                    tracer.expand_distinct += 1
            stack.append(i)
            active[idx] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised.add(i)
                raise
            finally:
                end[i] = clock()
                active[idx] -= 1
                stack.pop()
            if is_irreducible and result:
                tracer.irreducible_true += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", "traced")
        traced.__doc__ = fn.__doc__
        return traced

    # -- results ------------------------------------------------------------

    def aggregate(self):
        """Per-name calls, total (outermost spans) and self seconds, plus the
        build restart count: extend_unramified spans under a build."""
        n = len(self.name_id)
        k = len(self.names)
        calls = [0] * k
        total = [0] * k
        self_ns = [0] * k
        covered = [0] * n
        for i in range(n - 1, -1, -1):
            d = self.end[i] - self.start[i]
            nid = self.name_id[i]
            calls[nid] += 1
            if self.outer[i]:
                total[nid] += d
            self_ns[nid] += d - covered[i]
            p = self.parent[i]
            if p >= 0:
                covered[p] += d
        stats = {name: {"calls": calls[j], "total_s": total[j] / 1e9,
                        "self_s": self_ns[j] / 1e9}
                 for j, name in enumerate(self.names)}
        build = self.index["clusters.build_cluster_tree"]
        extend = self.index["field.extend_unramified"]
        restarts = 0
        builds_ok = 0
        for i in range(n):
            nid = self.name_id[i]
            if nid == build and i not in self.raised:
                builds_ok += 1
            elif nid == extend and self._has_ancestor(i, build):
                restarts += 1
        stats["clusters.build_cluster_tree"]["restarts"] = restarts
        stats["clusters.build_cluster_tree"]["returned"] = builds_ok
        return stats

    def restarts_by_input(self):
        build = self.index["clusters.build_cluster_tree"]
        extend = self.index["field.extend_unramified"]
        out = {}
        for i in range(len(self.name_id)):
            if self.name_id[i] == extend and self._has_ancestor(i, build):
                out[self.input_id[i]] = out.get(self.input_id[i], 0) + 1
        return out

    def _has_ancestor(self, i, name_idx):
        p = self.parent[i]
        while p >= 0:
            if self.name_id[p] == name_idx:
                return True
            p = self.parent[p]
        return False

    def write(self, path):
        """All spans, one per line: name, start_ns, end_ns, parent, input."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart_ns\tend_ns\tparent\tinput\n")
            names = self.names
            for i in range(len(self.name_id)):
                out.write(f"{i}\t{names[self.name_id[i]]}\t{self.start[i]}\t"
                          f"{self.end[i]}\t{self.parent[i]}\t{self.input_id[i]}\n")
