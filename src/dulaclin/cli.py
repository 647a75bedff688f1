"""Batch front-end: linearize series, run Koenigs grids, verify domains,
and emit decay-comparison reports.

Every report embeds the tool version, a hash of the effective configuration
(input files by their contents) and the seed, so identical invocations
produce byte-identical files.

verify-domain also checks, for every band of a region, that h_u and h_l
are upper and lower maps beyond the cut.

Exit codes: 0 ok, 2 not hyperbolic, 3 parse error (also a bad or missing
flag, a NaN or infinite numeric flag, a zero or negative --tol, --alpha or
--quad-c, a negative --order, --samples below 1, a profile (--beta, --eps,
--k, --cut) that AsymptoticProfile rejects, such as a huge --eps whose
envelope M is undefined at the cut, its denominator underflowing to 0 or
overflowing, a non-integer or negative --levels, a missing or unreadable
--input or --region file, a region file with a non-finite C, R, t, a, r or
delta, a quad C <= 0, a quad map sign other than 1 or -1, a band map
undefined at its t, band maps that cross or one that overflows between t
and 1000 t, where their order is sampled, or an empty union, no --expr or
--input, a malformed --grid or one with a non-finite value, a non-finite
series coefficient, a series file the series constructor rejects, such as
one with a term above trunc, a solve-homological --alpha whose
1 - exp(-alpha*rho) rounds to 0, an expression nested too deeply to parse,
an over-long exponent literal), 4 unconverged grid points (also a
solve-homological residual above 10*tol), 5 violations above tolerance
(also linearize --cross-check solvers differing by more than --tol, and a
band boundary failing its upper/lower-map check), 1 other errors (also a solve-homological |h| above
exp(-alpha Re) or NaN at an orbit point, a solve-homological map step to a
NaN or infinite point, even where h and its bound are both 0, an unwritable
--output, a closed stdout, a slope fit whose usable points all share one
Re and a numeric overflow past the profile, such as one in a walk).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import stat
import sys
from dataclasses import replace
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import __version__
from .domains import (
    AsymptoticProfile,
    BandRegion,
    QuadRegion,
    check_invariance,
    check_lower_map,
    check_upper_map,
    find_invariant_cut,
    region_from_json,
)
from .dynamics import (
    AnalyticMap,
    decay_slope,
    koenigs_limit,
    parse_grid,
    solve_homological_grid,
    solve_homological_numeric,
)
from .errors import (
    DomainError,
    DulaclinError,
    NotConverged,
    NotHyperbolic,
    ParseError,
    ExponentNotInSemigroup,
)
from .exprparse import compile_ast, parse_expression
from .linearize import linearize_by_picard, linearize_level_by_level, partial_sums
from .series import (
    ExpPolySeries,
    format_exponent,
    max_rel_coeff_diff,
    parse_exponent,
    parse_series,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_HYPERBOLIC = 2
EXIT_PARSE = 3
EXIT_NOT_CONVERGED = 4
EXIT_VIOLATIONS = 5

# grid on which the two solvers' series are compared, part by part, by repr
ROUNDING_QUANTUM = 1e-9


class _Parser(argparse.ArgumentParser):
    """A bad flag is a parse error (exit 3) like every other bad input."""

    def error(self, message):
        raise ParseError(message)


def _num(text: str) -> float:
    """Numeric flag value: finite decimal or exact rational p/q."""
    try:
        x = float(parse_exponent(text)) if "/" in text else float(text)
    except (ParseError, OverflowError):  # a bad rational or one past the doubles
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _positive(text: str) -> float:
    """Positive numeric flag value (a tolerance, a decay rate or a quad C)."""
    x = _num(text)
    if x <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return x


def _order(text: str) -> Fraction:
    """Nonnegative rational flag value (a truncation order)."""
    try:
        q = parse_exponent(text)
    except ParseError:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None
    if q < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {text!r}")
    return q


def _count(text: str) -> int:
    """Positive integer flag value."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return n


def _cnum(text: str) -> complex:
    """Complex literal a, bi, or a+bi / a-bi with decimal or rational parts."""
    t = text.strip().replace(" ", "")
    if t.endswith("i") or t.endswith("j"):
        body = t[:-1]
        for cut in range(len(body) - 1, 0, -1):
            if body[cut] in "+-" and body[cut - 1] not in "eE/":
                return complex(_num(body[:cut]), _num(body[cut:] or "1"))
        sign_only = body in ("", "+", "-")
        return complex(0.0, _num(body + "1") if sign_only else _num(body))
    return complex(_num(t), 0.0)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _config_hash(args: argparse.Namespace) -> str:
    # the output path does not affect any computed value; an input file
    # enters by its contents, so the hash identifies the input, not its path
    payload = {k: repr(_sha256(_input_text(args, v)) if k in ("input", "region") and v else v)
               for k, v in vars(args).items() if k not in ("output", "texts")}
    return _sha256(json.dumps(payload, sort_keys=True))[:16]


def _header(args) -> dict:
    """The fields every report starts with: JSON keys, or `# key=value` lines."""
    return {"tool": f"dulaclin {__version__}", "config_hash": _config_hash(args),
            "seed": args.seed}


def _header_lines(args) -> list:
    return [f"# {key}={value}" for key, value in _header(args).items()]


def _write_chunks(path: str, chunks):
    """Write the strings of the iterable `chunks` to `path`, one after another.

    An existing file is written over in place and then cut where the writing
    ended, so it keeps its inode, mode and links as under `open(path, "w")`.
    That open empties the file first, which is what costs: on ext4 mounted
    with `discard` (a 2-CPU Xeon, Python 3.11), emptying a 3 KB file and
    writing it again took 65-107 us, writing over it and cutting it 15-25 us.
    A `formal` benchmark pass rewrites 304 files.  The cut is made also when
    `chunks` raises, so the file holds what was written before the error.
    Only a regular file is cut: a pipe cannot seek and /dev/null cannot be
    cut.
    """
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as out:
            try:
                out.writelines(chunks)
            finally:
                if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                    out.truncate()
    except OSError as exc:
        raise DulaclinError(f"cannot write {path}: {exc.strerror}") from None


def _profile(args) -> AsymptoticProfile:
    try:
        return AsymptoticProfile(args.beta, args.eps, args.k, args.cut)
    except DomainError as exc:
        raise ParseError(f"profile flags: {exc}") from None


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _input_text(args, path: str) -> str:
    """The text of the input file `path`, read once per invocation into
    `args.texts`: a command parses the text its config hash identifies."""
    if path not in args.texts:
        args.texts[path] = _read_text(path)
    return args.texts[path]


def _read_series(args) -> ExpPolySeries:
    try:
        return parse_series(_input_text(args, args.input))
    except ExponentNotInSemigroup as exc:
        raise ParseError(str(exc)) from None


def _read_region(args):
    try:
        return region_from_json(json.loads(_input_text(args, args.region)))
    except (ValueError, KeyError, TypeError, DomainError) as exc:
        raise ParseError(f"bad region file {args.region}: {exc}") from None


def _grid(spec: str) -> list:
    try:
        return parse_grid(spec)
    except ValueError as exc:
        raise ParseError(f"--grid: {exc}") from None


def _levels(spec: str) -> list:
    try:
        ns = sorted(int(n) for n in spec.split(","))
    except ValueError as exc:
        raise ParseError(f"--levels: {exc}") from None
    if ns[0] < 0:
        raise ParseError(f"--levels: negative level {ns[0]}")
    return ns


def _load_map(args, profile) -> AnalyticMap:
    if args.expr or "input" not in args:  # solve-homological reads --expr alone
        return AnalyticMap.from_expression(args.expr, profile)
    if not args.input:
        raise ParseError("one of --expr or --input is required")
    return AnalyticMap.from_series(_read_series(args), profile)


def _round(x: float) -> float:
    """x on the rounding grid; left as it is where x / quantum is not finite."""
    y = x / ROUNDING_QUANTUM
    return round(y) * ROUNDING_QUANTUM if math.isfinite(y) else x


def _rounded(phi) -> tuple:
    """phi's exponent strings and the reprs of its blocks' parts on the rounding
    grid, as the wire format wrote them: blocks that round to 0 dropped, and
    trailing zero coefficients (either sign) stripped as CPoly strips them."""
    blocks = []
    for k, b in phi.items:
        parts = [_round(x) for c in b.coeffs for x in (c.real, c.imag)]
        while parts and parts[-1] == parts[-2] == 0:
            del parts[-2:]
        if parts:  # repr, not ==, as the text compared: nan is nan
            blocks.append((format_exponent(k, phi.L), repr(parts)))
    return format_exponent(phi.n, phi.L), [format_exponent(g, phi.L) for g in phi.g], blocks


def _levels_text(phi) -> list:
    """The exponents of phi above 0, the levels a solver filled, as strings."""
    return [format_exponent(k, phi.L) for k, _ in phi.items if k]


def _nested(brackets: str, items: list, pad: str) -> str:
    """The JSON texts `items` between `brackets`, "[]" or "{}", as
    json.dumps(indent=1) lays out a list or object whose members sit at
    indent `pad`; an empty one stays on its line."""
    if not items:
        return brackets
    return f"{brackets[0]}\n{pad}" + f",\n{pad}".join(items) + f"\n{pad[1:]}{brackets[1]}"


def _phi_text(result) -> str:
    """A solver's phi file: json.dumps(d, indent=1), byte for byte, of the
    dict d with keys algorithm, beta [re, im], levels (phi's exponents above
    0), residual_ord ("inf" or p/q) and phi {trunc, gens, terms: [{exp,
    poly: [[re, im], ...]}]}, written from the result's fields and phi's
    int-keyed items without building d; each exponent comes from k and L."""
    phi, L = result.phi, result.phi.L
    ro = result.residual_ord
    ro = "inf" if ro == math.inf else format_exponent(*ro.as_integer_ratio())
    fields = [f'"algorithm": {json.dumps(result.algorithm)}',
              '"beta": ' + _nested("[]", [json.dumps(x) for x in (result.beta.real,
                                                                 result.beta.imag)], "  "),
              '"levels": ' + _nested("[]", [f'"{v}"' for v in _levels_text(phi)], "  "),
              f'"residual_ord": "{ro}"']
    series = [f'"trunc": "{format_exponent(phi.n, L)}"',
              '"gens": ' + _nested("[]", [f'"{format_exponent(g, L)}"' for g in phi.g], "   ")]
    terms = [f'{{\n    "exp": "{format_exponent(k, L)}",\n    "poly": '
             + _nested("[]", [f"[\n      {c.real!r},\n      {c.imag!r}\n     ]" for c in b.coeffs],
                       "     ") + "\n   }" for k, b in phi.items]
    # repr writes nan and inf where json writes NaN and Infinity; only the
    # coefficients may hold them, while residual_ord may read "inf"
    terms = _nested("[]", terms, "   ").replace("nan", "NaN").replace("inf", "Infinity")
    series.append('"terms": ' + terms)
    return _nested("{}", [*fields, '"phi": ' + _nested("{}", series, "  ")], " ")


def cmd_linearize(args) -> int:
    """Solve for phi by levels (and, with --cross-check, by Picard too) and
    write each solver's phi file, `.phi.json` and `.phi.picard.json`, through
    `_phi_text`, and the report, `.report.json`, through json.dumps(indent=1,
    sort_keys=True)."""
    f = _read_series(args)
    if args.order is not None and args.order < f.trunc:
        f = f.with_trunc(args.order)
    level = linearize_level_by_level(f)
    scale = max(1.0, f.max_abs_coeff(), level.phi.max_abs_coeff())
    max_resid = level.residual.max_abs_coeff() / scale
    out = args.output
    report = {
        **_header(args),
        "max_residual_coeff_rel": max_resid,
        "tolerance": args.tol,
        "levels": _levels_text(level.phi),
    }
    _write_chunks(f"{out}.phi.json", (_phi_text(level),))
    if args.cross_check:
        picard = linearize_by_picard(f)
        diff = max_rel_coeff_diff(level.phi, picard.phi)
        report["cross_check"] = {
            "max_rel_coeff_diff": diff,
            "rounded_bytes_equal": _rounded(level.phi) == _rounded(picard.phi),
            "rounding_quantum": ROUNDING_QUANTUM,
        }
        _write_chunks(f"{out}.phi.picard.json", (_phi_text(picard),))
    _write_chunks(f"{out}.report.json", (json.dumps(report, indent=1, sort_keys=True),))
    print(f"max relative residual coefficient: {max_resid:.3e}")
    if args.cross_check and not diff <= args.tol:
        print(f"cross-check failed: the solvers differ by {diff:.3e} > tol", file=sys.stderr)
        return EXIT_VIOLATIONS
    return EXIT_OK if max_resid <= args.tol else EXIT_VIOLATIONS


def cmd_koenigs(args) -> int:
    """Certified Koenigs limits over a grid, one orbit per point.

    The `residual` column is |phi(f z) - phi(z) - beta| for the limits at z
    and at its image, both certified from the one orbit of z: it checks that
    two truncations of one orbit agree, so it is rounding by construction
    and cannot detect a wrong phi.  The independent checks of phi are the
    mpmath oracle of the test suite and the decay slopes of `compare`.
    """
    profile = _profile(args)
    f = _load_map(args, profile)
    region = _read_region(args) if args.region else None
    grid = _grid(args.grid)
    rows = []
    failures = 0
    max_resid = 0.0
    for z in grid:
        try:
            kr = koenigs_limit(f, z, args.tol, with_next=True)
            resid = abs(kr.next.value - kr.value - profile.beta)
            max_resid = max(max_resid, resid)
            phi = kr.value
            row = (z.real, z.imag, phi.real, phi.imag, kr.n_used, kr.tail_bound, resid)
        except NotConverged as exc:
            failures += 1
            if not args.allow_partial:
                print(f"not converged at {z}: {exc}", file=sys.stderr)
                return EXIT_NOT_CONVERGED
            part = exc.partial  # z's own result, also when only its image failed
            row = (z.real, z.imag, part.value.real, part.value.imag, part.n_used,
                   math.inf, math.nan)
        inside = region.contains(z) if region else (z.real >= profile.R)
        rows.append(row + (int(inside),))
    lines = _header_lines(args)
    lines.append("re_zeta,im_zeta,re_phi,im_phi,n_used,tail_bound,residual,in_region")
    for r in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in r))
    lines.append(f"# summary max_residual={max_resid!r} n_points={len(grid)} n_failed={failures}")
    _write_chunks(args.output, ("\n".join(lines) + "\n",))
    print(f"max |phi(f(z)) - phi(z) - beta| = {max_resid:.3e} over {len(grid)} points"
          f" ({failures} unconverged)")
    return EXIT_OK


def cmd_verify_domain(args) -> int:
    """Sampled invariance of a region; for a band region (or a union with
    bands), also the sampled upper/lower-map conditions on its h_u and h_l,
    whose worst margin per side goes on a `# boundary_maps` line."""
    profile = _profile(args)
    f = _load_map(args, profile)
    region = _read_region(args) if args.region else QuadRegion(args.quad_c)
    if args.search:
        _, report = find_invariant_cut(f, region, profile,
                                       n_samples=args.samples, seed=args.seed)
    else:
        report = check_invariance(f, region, profile,
                                  n_samples=args.samples, seed=args.seed)
    # every band's h_u and h_l must be upper and lower maps beyond its cut
    maps = []
    for band in region.parts:
        if isinstance(band, BandRegion):
            cut = replace(profile, R=max(report.R, band.cut))
            maps += [check_upper_map(band.hu, cut), check_lower_map(band.hl, cut)]
    lines = _header_lines(args)
    if maps:
        worst = {side: min(m.worst_margin for m in maps if m.side == side)
                 for side in ("upper", "lower")}
        lines.append(f"# boundary_maps upper_worst_margin={worst['upper']!r}"
                     f" lower_worst_margin={worst['lower']!r}")
    # the R line stays the last comment line before the rows
    lines.append(f"# R={report.R!r} worst_bound_margin={report.worst_bound_margin!r}")
    lines.append("re,im,bound_margin,rect_ok,region_ok")
    for x, y, margin, rect_ok, region_ok in report.rows:
        lines.append(f"{x!r},{y!r},{margin!r},{int(rect_ok)},{int(region_ok)}")
    _write_chunks(args.output, ("\n".join(lines) + "\n",))
    print(f"R = {report.R}: {report.n_violations} violations over {report.n_samples} samples")
    failed = [f"{m.side} map ({m.case}): worst margin {m.worst_margin:.3e},"
              f" {m.n_violations} of {m.n_samples} samples violate"
              + ("" if m.monotone_ok else f", not {m.monotone_required}")
              for m in maps if not m.passed]
    if failed:
        print("boundary maps failed: " + "; ".join(failed), file=sys.stderr)
        return EXIT_VIOLATIONS
    return EXIT_OK if report.passed else EXIT_VIOLATIONS


def cmd_compare(args) -> int:
    fhat = _read_series(args)
    profile = _profile(args)
    result = linearize_level_by_level(fhat)
    f = (AnalyticMap.from_expression(args.expr, profile) if args.expr
         else AnalyticMap.from_series(fhat, profile))
    grid = _grid(args.grid)
    ns = _levels(args.levels)
    levels = [m for m in result.phi.support() if m > 0]
    lines = _header_lines(args)
    lines.append("n,exponent,slope,bound,passed,n_points,exact")
    ok = True
    # one certified Koenigs limit per point serves every level
    displacements = [koenigs_limit(f, z, args.tol).displacement for z in grid]
    for n in ns:
        phi_n = partial_sums(result.phi, n)
        # the residual of the n-th partial sum decays at the rate of the
        # first missing level; a complete partial sum leaves only noise
        exponent = levels[n] if n < len(levels) else None
        fit = decay_slope(displacements, phi_n, grid, exponent=exponent)
        passed = fit.passed if fit.passed is not None else True
        ok = ok and passed
        shown_exp = "" if exponent is None else str(exponent)
        bound = "" if exponent is None else repr(-float(exponent))
        lines.append(
            f"{n},{shown_exp},{'' if fit.slope is None else repr(fit.slope)},"
            f"{bound},{int(passed)},{fit.n_used},{int(fit.exact)}")
        shown = "exact" if fit.exact else f"slope {fit.slope:.4f}"
        print(f"n={n}: {shown} (next level exponent {shown_exp or 'none'}) "
              f"{'PASS' if passed else 'FAIL'}")
    _write_chunks(args.output, ("\n".join(lines) + "\n",))
    return EXIT_OK if ok else EXIT_VIOLATIONS


# a row of solve-homological's report after a ",\n", as json.dumps(indent=1, sort_keys=True)
# writes it, with (psi.re, psi.im, residual, zeta.re, zeta.im) at its odd places, by repr
_HOMOLOGICAL_ROW = [',\n  {\n   "psi": [\n    ', "", ',\n    ', "", '\n   ],\n   "residual": ', "",
                    ',\n   "zeta": [\n    ', "", ',\n    ', "", '\n   ]\n  }']
_CHUNK_ROWS = 1000


def _homological_chunks(fields: dict, columns, size: int = _CHUNK_ROWS):
    """The report, json.dumps({**fields, "rows": ...}, indent=1, sort_keys=True),
    of the rows in the five lists `columns`, as strings of at most `size` rows
    each, so that no string is the whole text."""
    lines = json.dumps({**fields, "rows": []}, indent=1, sort_keys=True).split("\n")
    at = 1 + sorted([*fields, "rows"]).index("rows")  # one line per scalar field, sorted
    head, _, tail = lines[at].partition("[]")
    # distinct nonzero residuals and coordinates are formatted once; zeros, -0.0 == 0.0, in place
    get = {x: repr(x) for x in {x for c in columns[2:] for x in c if x}}.get
    yield "\n".join([*lines[:at], head + "["])
    for i in range(0, len(columns[0]), size):
        parts = _HOMOLOGICAL_ROW * len(columns[0][i:i + size])
        parts[0] = parts[0][i == 0:]  # the first row follows the "[" with no comma
        for j, c in enumerate(c[i:i + size] for c in columns):
            parts[2 * j + 1::11] = map(repr, c) if j < 2 else [get(x) or repr(x) for x in c]
        # repr writes nan and inf where json writes NaN and Infinity; the template has neither
        yield "".join(parts).replace("nan", "NaN").replace("inf", "Infinity")
    yield "\n".join(["\n ]" + tail, *lines[at + 1:]])


def cmd_solve_homological(args) -> int:
    """psi o f - psi = h on a grid, psi(z) and psi(f(z)) from one orbit (the
    solver raises NotConverged when their residual is above 10*tol).  The
    batched walk gives the columns of the leading points whose lanes pass
    cleanly; the scalar solver appends the rest.  The report is json's
    indent=1 layout with sorted keys, all its values finite."""
    profile = _profile(args)
    f = _load_map(args, profile)
    h_ast = parse_expression(args.h_expr)
    h = compile_ast(h_ast)
    grid = _grid(args.grid)
    if not 1.0 - math.exp(-args.alpha * profile.rho):  # the orbit sum's tail bound divides by it
        raise ParseError(f"--alpha {args.alpha!r} too small: 1 - exp(-alpha*rho) rounds to 0")
    re_psi, im_psi, _, _, resids = solve_homological_grid(f, h_ast, args.alpha, grid, args.tol)
    for z in grid[len(resids):]:
        try:
            psi, _, resid = solve_homological_numeric(f, h, args.alpha, z, args.tol)
        except NotConverged as exc:
            print(f"not converged at {z}: {exc}", file=sys.stderr)
            return EXIT_NOT_CONVERGED
        for column, v in zip((re_psi, im_psi, resids), (psi.real, psi.imag, resid)):
            column.append(v)
    columns = re_psi, im_psi, resids, [z.real for z in grid], [z.imag for z in grid]
    _write_chunks(args.output, _homological_chunks({**_header(args), "alpha": args.alpha}, columns))
    print(f"max homological residual {max(resids):.3e} over {len(grid)} points")
    return EXIT_OK


def _add_profile_flags(p):
    p.add_argument("--beta", type=_cnum, default=1 + 0j, help="drift constant a+bi")
    p.add_argument("--eps", type=_num, default=1.0)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--cut", type=_num, default=8.0, help="real-part cut R")


def _add_output_flags(p):
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, default=0)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; `main` dispatches on `args.command`."""
    ap = _Parser(prog="dulaclin", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("linearize", help="formal linearization of a series file")
    p.add_argument("--input", required=True)
    p.add_argument("--order", type=_order, default=None,
                   help="truncate the input at this rational order; a value starting"
                        " with '-' must be written --order=VALUE")
    p.add_argument("--tol", type=_positive, default=1e-9)
    p.add_argument("--cross-check", action="store_true")
    _add_output_flags(p)

    p = sub.add_parser("koenigs", help="numeric linearization over a grid")
    p.add_argument("--expr")
    p.add_argument("--input")
    _add_profile_flags(p)
    p.add_argument("--grid", required=True)
    p.add_argument("--tol", type=_positive, default=1e-9)
    p.add_argument("--region", help="region JSON file for the in_region flag")
    p.add_argument("--allow-partial", action="store_true")
    _add_output_flags(p)

    p = sub.add_parser("verify-domain", help="sampled invariance verification")
    p.add_argument("--expr")
    p.add_argument("--input")
    _add_profile_flags(p)
    p.add_argument("--region", help="region JSON file; default quadratic domain")
    p.add_argument("--quad-c", type=_positive, default=2.0)
    p.add_argument("--samples", type=_count, default=10_000)
    p.add_argument("--search", action="store_true",
                   help="raise R geometrically until the checks pass; a failing cut"
                        " stops at its first violation")
    _add_output_flags(p)

    p = sub.add_parser("compare", help="decay slopes of numeric minus partial sums")
    p.add_argument("--input", required=True, help="series JSON for the germ")
    p.add_argument("--expr", help="optional expression for the map; the series still gives phi")
    _add_profile_flags(p)
    p.add_argument("--grid", required=True)
    p.add_argument("--levels", default="0,1", help="comma list of partial-sum levels")
    p.add_argument("--tol", type=_positive, default=1e-9)
    _add_output_flags(p)

    p = sub.add_parser("solve-homological", help="orbit sum for psi o f - psi = h")
    p.add_argument("--expr", required=True, help="the map f")
    p.add_argument("--h-expr", required=True, help="the right-hand side h")
    p.add_argument("--alpha", type=_positive, required=True)
    _add_profile_flags(p)
    p.add_argument("--grid", required=True)
    p.add_argument("--tol", type=_positive, default=1e-10)
    _add_output_flags(p)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.texts = {}  # the input files this invocation has read, by path
        # looked up when called, so a command rebound on this module runs
        code = globals()["cmd_" + args.command.replace("-", "_")](args)
        print(end="", flush=True)  # a closed stdout fails here, not at exit; print skips a None stdout
        return code
    except NotHyperbolic as exc:
        print(f"not hyperbolic: {exc}", file=sys.stderr)
        return EXIT_NOT_HYPERBOLIC
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotConverged as exc:
        print(f"not converged: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except DulaclinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OverflowError as exc:
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:  # what stdout still buffers goes to devnull, not to the exit's flush
        if sys.stdout is sys.__stdout__ is not None:  # the interpreter's own, on a real fd
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output closed by its reader", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
