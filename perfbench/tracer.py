"""Span tracing of cvhistory from outside the package.

Each traced function is replaced by a wrapper in every cvhistory module
namespace (and module-level dict, such as the CLI's handler table) that
holds it, because modules import one another's functions by name.  The
two state constructors are wrapped on their classes.  Spans are kept in
memory as (name, start, end, parent) and written out once the timed call
has returned; counters are computed from call arguments and return
values, after the span has closed, so they do not inflate its time.

``serialize.format_float`` is deliberately left unwrapped: it runs five
times per row of the entangled processor run's 65536-row marginal CSV,
and its cost shows in the self time of the calling ``cli.cmd`` handler.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.spans: List[Optional[Tuple[int, float, float, int]]] = []
        self._stack: List[int] = []
        self.counters: Counter = Counter()
        self.last_hybrid = None

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(
        self,
        fn: Callable,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        name_of: Optional[Callable] = None,
    ) -> Callable:
        """Wrap fn in a span.  ``before(args)`` and ``after(args, result)``
        update counters outside the span; ``name_of(args)`` names a span
        per call."""
        spans, stack, fixed = self.spans, self._stack, self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            nid = fixed if name_of is None else self._id(name_of(args))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = _now()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every cvhistory layer."""
        import numpy as np
        from cvhistory import cli, dyadic, erasure, grid, processor, qubits, revcomp, serialize, validation

        c = self.counters
        for key in (
            "erasure.HybridState.bytes_in",
            "erasure.table_cells_peak",
            "erasure.cv_factor.cells_in",
            "erasure.rho_bytes",
            "revcomp.perm_rows",
            "validation.suites_passed",
        ):
            c[key] = 0

        def hybrid_before(args):
            c["erasure.HybridState.bytes_in"] += np.asarray(args[0].amps).nbytes

        def hybrid_after(args, _):
            h = args[0]
            c["erasure.table_cells_peak"] = max(c["erasure.table_cells_peak"], h.amps.size)
            self.last_hybrid = h

        def perm_after(_, out):
            c["revcomp.perm_rows"] += len(out)

        def cv_factor_before(args):
            c["erasure.cv_factor.cells_in"] += args[0].amps.size

        def rho_before(args):
            c["erasure.rho_bytes"] += 16 << (2 * args[0].n_qubits)

        def suite_after(_, result):
            c["validation.suites_passed"] += int(bool(result.passed))

        plain = {
            cli: ("load_scenario",),
            processor: ("parse_program", "init", "run_step", "run_program"),
            revcomp: ("build_reversible",),
            erasure: (
                "lift",
                "erase_sequence",
                "erase",
                "require_unit_support",
                "unfold",
                "cond_translate",
                "cond_flip",
                "squeeze_all",
                "residual_weight",
                "apply_qubit_gate",
                "apply_basis_permutation",
                "apply_row_phases",
                "tensor_oracle",
                "grid_erase",
            ),
            qubits: ("trace_out", "purity"),
            dyadic: ("max_abs_diff",),
            grid: ("translate_spectral", "dilation_generator"),
            validation: ("run_all",),
            serialize: ("write_wave_csv",),
        }
        for mod, fnames in plain.items():
            short = mod.__name__.rsplit(".", 1)[-1]
            for fname in fnames:
                self._rebind(getattr(mod, fname), self.wrap(getattr(mod, fname), f"{short}.{fname}"))

        for fname in ("cmd_erase_demo", "cmd_validate", "cmd_processor", "cmd_resource"):
            self._rebind(getattr(cli, fname), self.wrap(getattr(cli, fname), "cli.cmd"))
        for fname in ("write_json", "write_jsonl"):
            fn = getattr(serialize, fname)
            self._rebind(fn, self.wrap(fn, "serialize.write_json"))
        fn = revcomp.as_register_permutation
        self._rebind(fn, self.wrap(fn, "revcomp.as_register_permutation", after=perm_after))
        fn = erasure.cv_factor
        self._rebind(fn, self.wrap(fn, "erasure.cv_factor", before=cv_factor_before))
        fn = erasure.hybrid_reduced_density
        self._rebind(fn, self.wrap(fn, "erasure.hybrid_reduced_density", before=rho_before))
        fn = validation.run_suite
        self._rebind(
            fn,
            self.wrap(
                fn, "validation.suite", after=suite_after, name_of=lambda a: f"validation.suite.{a[0]}"
            ),
        )

        hs = erasure.HybridState
        hs.__post_init__ = self.wrap(hs.__post_init__, "erasure.HybridState", hybrid_before, hybrid_after)
        dw = dyadic.DyadicWave
        dw.__post_init__ = self.wrap(dw.__post_init__, "dyadic.DyadicWave")

    @staticmethod
    def _rebind(orig: Callable, wrapper: Callable) -> None:
        """Replace orig by wrapper wherever a cvhistory module holds it."""
        bound = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "cvhistory" or modname.startswith("cvhistory.")):
                continue
            space = vars(mod)
            for key, value in list(space.items()):
                if value is orig:
                    space[key] = wrapper
                    bound += 1
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is orig:
                            value[dkey] = wrapper
                            bound += 1
        if not bound:
            raise RuntimeError(f"no cvhistory namespace holds {orig!r}")

    def final_counts(self) -> Dict[str, float]:
        """Counters that need the end state: the final table's fill ratio."""
        out: Dict[str, float] = dict(self.counters)
        out["erasure.nonzero_ratio_final"] = 0.0
        h = self.last_hybrid
        if h is not None:
            import numpy as np

            out["erasure.nonzero_ratio_final"] = int(np.count_nonzero(h.amps)) / h.amps.size
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counters": self.final_counts()}, fh)


def summarize(names: List[str], spans: List[List[float]]) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int], float]:
    """Per-name self time, total time and call count, plus the summed
    duration of top-level spans.  Every wrapped name is present, with
    zeros if it never ran."""
    child = [0.0] * len(spans)
    for nid, t0, t1, parent in spans:
        if parent >= 0:
            child[int(parent)] += t1 - t0
    self_s = dict.fromkeys(names, 0.0)
    total_s = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    top = 0.0
    for i, (nid, t0, t1, parent) in enumerate(spans):
        name = names[int(nid)]
        dur = t1 - t0
        self_s[name] += dur - child[i]
        total_s[name] += dur
        calls[name] += 1
        if parent < 0:
            top += dur
    return self_s, total_s, calls, top
