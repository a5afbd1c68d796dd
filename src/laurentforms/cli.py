"""Command-line front end.

Commands read JSON files, run the corresponding pipeline, and print a
machine-readable JSON report. All integers in file payloads are decimal
strings so that no consumer ever loses precision. Exit codes: 0 for
accept/success, 1 for a principled rejection, 2 for malformed input or
usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Optional, Sequence

from .forms import (
    HermitianForm,
    InternalCheckError,
    ReductionCertificate,
    ReplayMismatch,
    certify_reduction,
    h2_sum,
)
from .homology import ChainComplex, torsion_order
from .search import (
    DEFAULT_BOUNDS,
    SearchBounds,
    bounded_isometry_search,
    conjecture_probe,
    move_from_json,
    apply_move,
)
from .wallcalc import SurfaceModel, wall_invariants

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2


class InputError(Exception):
    """Raised for unreadable, unparsable, or schema-invalid input files."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _load(path: str, parse):
    """parse applied to the JSON in path; its ValueError becomes InputError."""
    try:
        return parse(_load_json(path))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc
    else:
        print(text)


def _bounds_from_args(args) -> SearchBounds:
    return SearchBounds(
        max_depth=args.depth,
        transvection_degree=args.deg,
        transvection_coeff=args.coeff,
        unit_exponent=args.unit_exp,
    )


# -- command handlers ---------------------------------------------------------


def _cmd_check(args) -> int:
    form = _load(args.form, HermitianForm.from_json)
    verdict = certify_reduction(form, prenormalize=args.prenormalize)
    _emit(verdict.to_json(), args.output)
    return EXIT_OK if verdict.accepted else EXIT_REJECT


def _cmd_reduce(args) -> int:
    form = _load(args.form, HermitianForm.from_json)
    verdict = certify_reduction(form, prenormalize=args.prenormalize)
    if not verdict.accepted:
        _emit({"verdict": "reject", "reason": verdict.reason}, args.output)
        return EXIT_REJECT
    _emit(verdict.certificate.to_json(), args.output)
    return EXIT_OK


def _cmd_wall(args) -> int:
    surface = _load(args.surface, SurfaceModel.from_json)
    wall = wall_invariants(surface)
    payload = {
        "label": surface.label,
        "mu": wall.mu.to_json(),
        "mu_plus_conjugate": wall.mu_plus_conjugate.to_json(),
        "lambda": wall.lam.to_json(),
        "c": None if wall.c is None else wall.c.to_json(),
    }
    _emit(payload, args.output)
    return EXIT_OK


def _cmd_homology(args) -> int:
    complex_ = _load(args.complex, ChainComplex.from_json)
    betti = complex_.betti_qt()
    torsion = []
    for d in complex_.differentials:
        rows, cols = len(d), len(d[0]) if d else 0
        order = None
        if rows == cols and rows > 0:
            try:
                order = torsion_order(d).to_json()
            except ValueError:  # not of full rank: the cokernel is not torsion
                pass
        torsion.append(order)
    payload = {
        "ranks": [str(r) for r in complex_.ranks],
        "betti_qt": [str(b) for b in betti],
        "euler_check": complex_.euler_check(betti),
        "torsion_orders": torsion,
    }
    _emit(payload, args.output)
    return EXIT_OK


def _cmd_search(args) -> int:
    form = _load(args.form, HermitianForm.from_json)
    target = _load(args.target, HermitianForm.from_json)
    outcome = bounded_isometry_search(form, target, _bounds_from_args(args))
    _emit(outcome.to_json(), args.output)
    return EXIT_OK if outcome.found else EXIT_REJECT


def _cmd_probe(args) -> int:
    form = _load(args.form, HermitianForm.from_json)
    report = conjecture_probe(form, _bounds_from_args(args))
    _emit(report.to_json(), args.output)
    return EXIT_OK


def _cmd_replay(args) -> int:
    form = _load(args.form, HermitianForm.from_json)
    obj = _load_json(args.certificate)
    if isinstance(obj, dict) and "moves" in obj:
        return _replay_moves(obj, form)
    try:
        ReductionCertificate.from_json(obj, form)
    except ValueError as exc:
        raise InputError(f"{args.certificate}: {exc}") from exc
    except ReplayMismatch as exc:
        print(f"replay mismatch: {exc}", file=sys.stderr)
        return EXIT_REJECT
    print("replay ok")
    return EXIT_OK


def _replay_moves(obj: dict, form: HermitianForm) -> int:
    try:
        if not isinstance(obj["moves"], list):
            raise ValueError("moves must be a list")
        moves = [move_from_json(m) for m in obj["moves"]]
        target = HermitianForm.from_json(obj["target"]) if "target" in obj else None
        for move in moves:
            for name in ("i", "j"):
                index = getattr(move, name, None)  # a unit scale has no j
                if index is not None and index >= form.rank:
                    raise ValueError(
                        f"move index {name}={index} is out of range for rank {form.rank}"
                    )
    except (KeyError, ValueError) as exc:
        raise InputError(f"bad move list: {exc}") from exc
    if target is None:
        target = h2_sum(form.rank // 2)
    elif target.rank != form.rank:
        raise InputError(f"rank mismatch: {form.rank} vs {target.rank}")
    entries = form.entries
    for move in moves:
        entries = apply_move(entries, move)
    if entries != target.entries:
        print("replay mismatch: moves do not reach the target", file=sys.stderr)
        return EXIT_REJECT
    print("replay ok")
    return EXIT_OK


def _add_bounds_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--depth", type=int, default=DEFAULT_BOUNDS.max_depth)
    parser.add_argument("--deg", type=int, default=DEFAULT_BOUNDS.transvection_degree)
    parser.add_argument("--coeff", type=int, default=DEFAULT_BOUNDS.transvection_coeff)
    parser.add_argument("--unit-exp", type=int, default=DEFAULT_BOUNDS.unit_exponent)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laurentforms",
        description="Exact Hermitian-form algebra over Z[t, t^-1]",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="recognize a form and certify its reduction")
    p.add_argument("form")
    p.add_argument("--prenormalize", action="store_true",
                   help="rescale basis vectors by units before recognition")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("reduce", help="emit the reduction certificate for a form")
    p.add_argument("form")
    p.add_argument("--prenormalize", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("wall", help="evaluate the self-intersection calculus on a surface model")
    p.add_argument("surface")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_wall)

    p = sub.add_parser("homology", help="Betti numbers and torsion orders of a chain complex")
    p.add_argument("complex")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_homology)

    p = sub.add_parser("search", help="bounded congruence search from one form to another")
    p.add_argument("form")
    p.add_argument("target")
    _add_bounds_args(p)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("probe", help="stable-vs-direct reducibility probe")
    p.add_argument("form")
    _add_bounds_args(p)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_probe)

    p = sub.add_parser("replay", help="re-verify a certificate against a form")
    p.add_argument("certificate")
    p.add_argument("form")
    p.set_defaults(handler=_cmd_replay)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # Built on first use and shared: parse_args keeps no state between calls.
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        raise
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
