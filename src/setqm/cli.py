"""Command-line front end.

Subsets are written as comma-separated labels in braces ("{a,c}"),
partitions as blocks joined by '|' ("{a,b}|{c}"), attributes as
label:value pairs ("a:1,b:2,c:3"), and product states as pair lists
("{(a,a),(b,b)}"). Results go to stdout, errors to stderr; domain errors
exit 1, usage errors exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from fractions import Fraction
from typing import Callable

from . import dsl, presets
from .attributes import Attribute, measure, measure_probs
from .density import (
    entropy_increase,
    logical_entropy_rho,
    measure_density,
    purity,
    rho_of_partition,
    rho_of_subset,
)
from .dynamics import double_slit
from .entangle import bell_violation
from .errors import InvalidArgument, NotTotal, SetQMError
from .partitions import Partition, logical_entropy, shannon_entropy
from .qc import BooleanFunction, parity_sat, teleport
from .space import BasisFrame, SubsetKet, Universe, _fmt_columns, born, bracket, ket_table, rat_json


def _universe(dim: int) -> Universe:
    return presets.universe_ab() if dim == 2 else presets.universe_abc()


def _frames(dim: int) -> tuple[BasisFrame, BasisFrame, BasisFrame]:
    return presets.frames_ab() if dim == 2 else presets.frames_abc()


def _subset_labels(text: str) -> list[str]:
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    return [x.strip() for x in body.split(",") if x.strip()]


def _parse_subset(text: str, universe: Universe) -> SubsetKet:
    return universe.subset(_subset_labels(text))


def _parse_partition(text: str, universe: Universe) -> Partition:
    return Partition.from_blocks(universe, map(_subset_labels, text.split("|")))


def _parse_attr(text: str, universe: Universe) -> Attribute:
    values = {}
    for chunk in text.split(","):
        label, _, value = chunk.partition(":")
        if not value:
            raise SetQMError(f"attribute entries look like label:value, got {chunk!r}")
        label = label.strip()
        if label in values:
            raise NotTotal(f"label {label!r} is given more than one value")
        try:
            values[label] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise SetQMError(f"bad rational value in {chunk!r}") from None
    return Attribute.from_values(universe, values)


def _parse_pairs(text: str):
    pairs = re.findall(r"\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)", text)
    if not pairs:
        raise SetQMError(f"no pairs found in {text!r}")
    return presets.pair_space().state(pairs)


# What each handler returns: the table text and the JSON object, each built
# only when called, so `main` renders just the format that --format names.
_Renderings = tuple[Callable[[], str], Callable[[], object]]


def _fmt_probs(probs: dict) -> str:
    return "\n".join(f"{label}  {value}" for label, value in probs.items())


def _cmd_ket_table(args) -> _Renderings:
    frames = _frames(args.dim)
    table = ket_table(args.dim, frames)
    return table.to_text, table.to_json


def _cmd_bracket(args) -> _Renderings:
    universe = _universe(args.dim)
    t = _parse_subset(args.t, universe)
    s = _parse_subset(args.s, universe)
    value = bracket(t, s)
    return lambda: str(value), lambda: {"bracket": value}


def _cmd_born(args) -> _Renderings:
    universe = _universe(args.dim)
    frames = {f.name: f for f in _frames(args.dim)}
    if args.frame not in frames:
        raise SetQMError(f"unknown frame {args.frame!r}; choose from {sorted(frames)}")
    s = _parse_subset(args.state, universe)
    probs = born(s, frames[args.frame])
    return (
        lambda: _fmt_probs(probs),
        lambda: {"state": list(s.labels), "frame": args.frame,
                 "probabilities": {k: rat_json(v) for k, v in probs.items()}},
    )


def _cmd_measure(args) -> _Renderings:
    universe = _universe(args.dim)
    f = _parse_attr(args.attr, universe)
    s = _parse_subset(args.state, universe)
    probs = measure_probs(f, s)
    outcome = measure(f, s, random.Random(args.seed))
    return (
        lambda: "\n".join(
            [
                "eigenvalue probabilities",
                _fmt_probs(probs),
                f"observed eigenvalue: {outcome.eigenvalue}",
                f"probability: {outcome.probability}",
                f"post state: {outcome.post_state}",
            ]
        ),
        lambda: {
            "probabilities": {rat_json(r): rat_json(p) for r, p in probs.items()},
            "eigenvalue": rat_json(outcome.eigenvalue),
            "probability": rat_json(outcome.probability),
            "post_state": list(outcome.post_state.labels),
        },
    )


def _cmd_entropy(args) -> _Renderings:
    universe = _universe(args.dim)
    p = _parse_partition(args.partition, universe)
    h = logical_entropy(p)
    hs = shannon_entropy(p)
    return (
        lambda: f"h = {h}\nH = {hs:.4f}",
        lambda: {"partition": p.to_json(), "logical": rat_json(h), "shannon": hs},
    )


def _cmd_density(args) -> _Renderings:
    universe = _universe(args.dim)
    if (args.partition is None) == (args.state is None):
        raise SetQMError("give exactly one of --partition or --state")
    if args.partition is not None:
        rho = rho_of_partition(_parse_partition(args.partition, universe))
    else:
        rho = rho_of_subset(_parse_subset(args.state, universe))
    gamma, h = purity(rho), logical_entropy_rho(rho)
    return (
        lambda: "\n".join([rho.to_text(), f"purity = {gamma}", f"h = {h}"]),
        lambda: {"matrix": rho.to_json(), "purity": rat_json(gamma),
                 "logical_entropy": rat_json(h)},
    )


def _cmd_measure_density(args) -> _Renderings:
    universe = _universe(args.dim)
    f = _parse_attr(args.attr, universe)
    if args.partition is not None:
        before = rho_of_partition(_parse_partition(args.partition, universe))
    else:
        before = rho_of_partition(Partition.indiscrete(universe))
    after = measure_density(f, before)
    gain = entropy_increase(before, after)
    return (
        lambda: "\n".join(
            ["before", before.to_text(), "after", after.to_text(), f"entropy increase = {gain}"]
        ),
        lambda: {"before": before.to_json(), "after": after.to_json(),
                 "entropy_increase": rat_json(gain)},
    )


def _cmd_double_slit(args) -> _Renderings:
    cfg = presets.double_slit_setup()
    dist = double_slit(cfg, args.measure_at_slits)
    return (
        lambda: _fmt_probs(dist),
        lambda: {"measured_at_slits": args.measure_at_slits,
                 "distribution": {k: rat_json(v) for k, v in dist.items()}},
    )


def _cmd_bell(args) -> _Renderings:
    state = _parse_pairs(args.state) if args.state else presets.bell_state()
    u, u1, u2 = presets.frames_ab()
    universe = presets.universe_ab()
    given = [universe.subset(["a", "b"]), universe.subset(["b"]), universe.subset(["a"])]
    frames = [u, u1, u2]

    header = ["state"] + [label for f in frames for label in f.labels]
    # born() lists each frame's outcomes in f.labels order, the order of the header
    outcome = [[p for f in frames for p in born(s, f).values()] for s in given]
    report = bell_violation(state, frames)

    def text() -> str:
        rows = [[str(s), *map(str, probs)] for s, probs in zip(given, outcome)]
        table_lines = _fmt_columns(header, rows, rule=False)
        seq_lines = [f"Pr{k} = {v}" for k, v in report.terms.items()]
        verdict = "VIOLATED" if report.violated else "SATISFIED"
        terms = list(report.terms.values())
        verdict_line = f"{terms[0]} + {terms[1]} ≥ {terms[2]} : {verdict}"
        return "\n".join(
            ["state-outcome probabilities", *table_lines, "",
             f"sequential pair probabilities for {state}", *seq_lines, "", verdict_line]
        )

    def payload() -> dict:
        return {
            "state": [list(p) for p in state.sorted_pairs()],
            "state_outcome": {
                str(s): dict(zip(header[1:], map(rat_json, probs)))
                for s, probs in zip(given, outcome)
            },
            **report.to_json(),
        }

    return text, payload


def _cmd_teleport(args) -> _Renderings:
    rng = random.Random(args.seed)
    trace = teleport(args.alpha, args.beta, rng)
    ok = trace.bob == trace.input
    return (
        lambda: "\n".join(
            [
                f"input: ({trace.input[0]}, {trace.input[1]})",
                f"phi0 = {trace.phi0}",
                f"phi1 = {trace.phi1}",
                f"phi2 = {trace.phi2}",
                f"classical bit M = {trace.measured}",
                f"bob: ({trace.bob[0]}, {trace.bob[1]})",
                "teleported" if ok else "FAILED",
            ]
        ),
        lambda: {**trace.to_json(), "teleported": ok},
    )


def _cmd_parity_sat(args) -> _Renderings:
    f = BooleanFunction.from_bits(args.table)
    result = parity_sat(f)

    def text() -> str:
        parity_word = "odd" if result.parity else "even"
        lines = [
            f"measured |{result.measured_bits}>",
            "slices: " + ", ".join(
                f"prefix {j} {'odd' if b else 'even'}"
                for j, b in enumerate(result.slice_parities)
            ),
            f"parity: {parity_word}",
        ]
        if f.arity == 1:
            lines.append(f"deutsch: {'balanced' if result.parity else 'constant'}")
        return "\n".join(lines)

    return text, lambda: {**result.to_json(), "table": args.table}


def _cmd_run(args) -> _Renderings:
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    result = dsl.run(dsl.parse(text), seed=args.seed)

    def table() -> str:
        result._check_printable()  # as to_json checks, before any ket string is built
        lines = [f"{entry.label}: {entry.register}" for entry in result.trace]
        for m in result.measurements:
            lines.append(f"line {m.line} -> {m.outcome} (p = {m.probability})")
        return "\n".join(lines)

    return table, result.to_json


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


_FORMAT = _arg("--format", choices=("table", "json"), default="table")
_DIM = _arg("--dim", type=int, choices=(2, 3), default=3)
_SEED = _arg("--seed", type=int, default=0)

# name -> (help, handler, arguments in the order the help lists them)
_COMMANDS = {
    "ket-table": ("every ket expressed in each preset basis", _cmd_ket_table, (_FORMAT, _DIM)),
    "bracket": ("overlap |T ∩ S| of two subsets", _cmd_bracket,
                (_arg("t"), _arg("s"), _FORMAT, _DIM)),
    "born": ("outcome probabilities of a state in a frame", _cmd_born,
             (_arg("state"), _arg("--frame", required=True, help="U, U', or U''"), _FORMAT, _DIM)),
    "measure": ("measure an attribute on a state", _cmd_measure,
                (_arg("--attr", required=True, help="label:value pairs, e.g. a:1,b:2,c:3"),
                 _arg("--state", required=True), _SEED, _FORMAT, _DIM)),
    "entropy": ("logical and Shannon entropy of a partition", _cmd_entropy,
                (_arg("--partition", required=True, help='blocks joined by |, e.g. "{a,b}|{c}"'),
                 _FORMAT, _DIM)),
    "density": ("density matrix of a partition or state", _cmd_density,
                (_arg("--partition"), _arg("--state"), _FORMAT, _DIM)),
    "measure-density": ("join-action of an attribute on a density matrix", _cmd_measure_density,
                        (_arg("--attr", required=True),
                         _arg("--partition", help="initial mixed state; defaults to the blob"),
                         _FORMAT, _DIM)),
    "double-slit": ("wall distribution of the two-slit setup", _cmd_double_slit,
                    (_arg("--measure-at-slits", action="store_true"), _FORMAT)),
    "bell": ("state-outcome table and inequality violation", _cmd_bell,
             (_arg("--state", help='product state, e.g. "{(a,a),(b,b)}"'), _FORMAT)),
    "teleport": ("one-classical-bit teleportation protocol", _cmd_teleport,
                 (_arg("--alpha", type=int, choices=(0, 1), required=True),
                  _arg("--beta", type=int, choices=(0, 1), required=True), _SEED, _FORMAT)),
    "parity-sat": ("one-evaluation parity of a Boolean function", _cmd_parity_sat,
                   (_arg("--table", required=True, help="truth table bits, e.g. 1101"), _FORMAT)),
    "run": ("execute a .qc2 circuit file", _cmd_run, (_arg("file"), _SEED, _FORMAT)),
}


def build_parser() -> argparse.ArgumentParser:
    """A new `setqm` parser with every subcommand, built afresh on each call.

    A caller that changes the parser it gets reaches no other, and not the
    one `main` keeps.
    """
    parser = argparse.ArgumentParser(
        prog="setqm",
        description="Exact toy quantum mechanics on subsets of a finite universe.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fn, arguments) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for flags, options in arguments:
            sub.add_argument(*flags, **options)
        sub.set_defaults(fn=fn)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` keeps for the process, built on first use and not at import."""
    return build_parser()


def main(argv: list[str] | tuple[str, ...] | None = None) -> int:
    """Run one `setqm` command; the one place that prints and sets the exit code.

    A handler returns its table and JSON renderings unbuilt. The one that
    `--format` names is built inside the same `try` as the computation, so
    an error raised while rendering still exits 1 with its name.

    Every call parses with one parser, built on the first call and kept:
    building all twelve subparsers costs several times a parse, and a
    parse leaves nothing behind in the parser, so each call answers as a
    new `build_parser()` would.
    """
    if argv is None:
        argv = sys.argv[1:]
    elif not (isinstance(argv, (list, tuple)) and all(isinstance(a, str) for a in argv)):
        raise InvalidArgument("argv must be None or a list or tuple of str")
    args = _parser().parse_args(argv)
    try:
        text, payload = args.fn(args)
        print(json.dumps(payload(), indent=2) if args.format == "json" else text())
        return 0
    except (SetQMError, OSError, UnicodeDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
