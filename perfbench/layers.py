"""Per-layer metrics from the spans and counters of a traced run.

Every value is divided by the number of traced ops unless its name says
otherwise. A metric whose layer the workload never calls reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from spans import LAYERS, self_times

SELF_TIMED = (
    "gf2.kron", "gf2.mat_apply", "gf2.invert", "gf2.mat_mul",
    "qc.apply", "qc.ef_gate", "qc.line_probs", "qc.measure_line",
    "dsl.parse", "dsl.run",
    "space.BasisFrame", "space.to_basis", "space.born",
    "partitions.join", "partitions.dit_set",
    "density.rho_of_partition", "density.measure_density", "density.purity",
    "density.entropy_increase",
    "entangle.product_to_frame",
    "cli.build_parser",
)
# (span name or layer, size prefix, sizes): mean total time per call by size.
# For density the calls are those made at every size of mixed_states.
DENSITY_SCALED = ("density.rho_of_partition", "density.rho_of_subset",
                  "density.measure_density", "density.purity")
SCALING = (
    ("qc.apply", "w", (6, 8, 10, 12)),
    ("gf2.invert", "u", (64, 128, 256)),
    ("density", "u", (32, 64, 128)),
)


def spec() -> list[dict]:
    """Name, unit and direction of every per-layer metric, in output order."""
    out = []
    for layer in LAYERS:
        out.append({"name": f"{layer}.calls_per_op", "unit": "calls/op", "better": "lower"})
        out.append({"name": f"{layer}.self_us_per_op", "unit": "us/op", "better": "lower"})
    out += [
        {"name": "gf2.kron.bits_per_op", "unit": "bits/op", "better": "lower"},
        {"name": "gf2.mat_apply.rows_per_op", "unit": "rows/op", "better": "lower"},
        {"name": "gf2.is_nonsingular.calls_per_op", "unit": "calls/op", "better": "lower"},
        {"name": "qc.standard_gate.calls_per_op", "unit": "calls/op", "better": "lower"},
        {"name": "qc.apply.matrix_bits_per_state_bit", "unit": "ratio", "better": "lower"},
        {"name": "partitions.dit_set.pairs_per_op", "unit": "pairs/op", "better": "lower"},
        {"name": "density.entries_per_op", "unit": "entries/op", "better": "lower"},
        {"name": "density.nonzero_share", "unit": "ratio", "better": "higher"},
    ]
    out += [{"name": f"{name}.self_us_per_op", "unit": "us/op", "better": "lower"} for name in SELF_TIMED]
    for name, prefix, sizes in SCALING:
        out += [{"name": f"{name}.us_per_call.{prefix}{n}", "unit": "us/call", "better": "lower"}
                for n in sizes]
    out.append({"name": "trace.overhead", "unit": "ratio", "better": "lower"})
    return out


# ---------------------------------------------------------------- hooks
# Each hook takes the traced call's (args, kwargs, result) after the call
# has returned and gives (size tag, {counter: increment}).

def _kron(args, kwargs, result):
    a, b = args
    bits = a.rows * b.rows * a.cols * b.cols
    return bits, {"gf2.kron.bits": bits}


def _mat_apply(args, kwargs, result):
    return None, {"gf2.mat_apply.rows": args[0].rows}


def _invert(args, kwargs, result):
    return args[0].rows, {}


def _apply(args, kwargs, result):
    lines = (args[1] if len(args) > 1 else kwargs["r"]).lines
    return lines, {"qc.apply.state_bits": 1 << lines}


def _dit_set(args, kwargs, result):
    p = args[0]
    n = p.universe.size
    return None, {"partitions.dit_set.pairs": n * n - sum(b.cardinality ** 2 for b in p.blocks)}


def _density_built(pick):
    def hook(args, kwargs, result):
        n = pick(args)
        nonzero = sum(1 for row in result.entries for e in row if e)
        return n, {"density.entries": n * n, "density.nonzero": nonzero}
    return hook


HOOKS = {
    "gf2.kron": _kron,
    "gf2.mat_apply": _mat_apply,
    "gf2.invert": _invert,
    "qc.apply": _apply,
    "partitions.dit_set": _dit_set,
    "density.rho_of_partition": _density_built(lambda a: a[0].universe.size),
    "density.rho_of_subset": _density_built(lambda a: a[0].universe.size),
    "density.measure_density": _density_built(lambda a: a[1].dim),
    "density.purity": lambda args, kwargs, result: (args[0].dim, {}),
}


# ---------------------------------------------------------------- aggregation

def compute(spans, counters, overhead: float) -> dict[str, float]:
    ops = sum(1 for s in spans if s[3] == -1) or 1
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_us: dict[str, float] = defaultdict(float)
    scale_us: dict[str, float] = defaultdict(float)
    scale_n: dict[str, int] = defaultdict(int)
    kron_in_apply = 0
    for i, (name, start, end, parent, op, size) in enumerate(spans):
        if op is None:  # outside every op: not part of the workload
            continue
        layer = name.split(".", 1)[0]
        calls[name] += 1
        calls[layer] += 1
        self_us[name] += selfs[i] * 1e6
        self_us[layer] += selfs[i] * 1e6
        if size is not None and name in ("qc.apply", "gf2.invert", *DENSITY_SCALED):
            key = f"{'density' if layer == 'density' else name}.{size}"
            scale_us[key] += (end - start) * 1e6
            scale_n[key] += 1
        if name == "gf2.kron":
            up = parent
            while up != -1 and spans[up][0] != "qc.apply":
                up = spans[up][3]
            if up != -1:
                kron_in_apply += size or 0
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls_per_op"] = calls[layer] / ops
        out[f"{layer}.self_us_per_op"] = self_us[layer] / ops
    out["gf2.kron.bits_per_op"] = counters.get("gf2.kron.bits", 0) / ops
    out["gf2.mat_apply.rows_per_op"] = counters.get("gf2.mat_apply.rows", 0) / ops
    out["gf2.is_nonsingular.calls_per_op"] = calls["gf2.is_nonsingular"] / ops
    out["qc.standard_gate.calls_per_op"] = calls["qc.standard_gate"] / ops
    state_bits = counters.get("qc.apply.state_bits", 0)
    out["qc.apply.matrix_bits_per_state_bit"] = kron_in_apply / state_bits if state_bits else 0.0
    out["partitions.dit_set.pairs_per_op"] = counters.get("partitions.dit_set.pairs", 0) / ops
    entries = counters.get("density.entries", 0)
    out["density.entries_per_op"] = entries / ops
    out["density.nonzero_share"] = counters.get("density.nonzero", 0) / entries if entries else 0.0
    for name in SELF_TIMED:
        out[f"{name}.self_us_per_op"] = self_us[name] / ops
    for name, prefix, sizes in SCALING:
        for n in sizes:
            key = f"{name}.{n}"
            out[f"{name}.us_per_call.{prefix}{n}"] = scale_us[key] / scale_n[key] if scale_n[key] else 0.0
    out["trace.overhead"] = overhead
    return out
