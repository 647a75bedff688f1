"""Mutation catalogue: small faults in the package that named tests must catch.

    python3 tools/mutants.py

Run from the root of a checkout.  It copies the checkout, without `.git`,
to a temporary directory, and first runs every named test there unmutated:
each must pass.  Then, one mutant at a time, it replaces the mutant's old
text, which must occur exactly once in its file, by the new text, runs only
the mutant's tests with that copy's `src/` first on the path, and restores
the file.  A mutant is killed when every one of its tests fails.  It prints
one line per mutant and exits 1 if a mutant survives, if an old text does
not match, or if a named test fails unmutated or is not found.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()


class Mutant:
    def __init__(self, name: str, file: str, old: str, new: str, tests: list):
        self.name, self.file, self.old, self.new, self.tests = name, file, old, new, tests


LINEARIZE = "src/dulaclin/linearize.py"
MUTANTS = [
    Mutant(
        "Picard without its check sweep", LINEARIZE,
        "    if repr(ops.t_inv(ops.s_apply(psi)).items) != repr(psi.items):\n"
        "        raise ArithmeticError(\"Picard solve is not a fixed point of T^-1 S\")\n",
        "",
        ["tests/test_series.py::test_picard_check_sweep_catches_a_perturbed_s",
         "tests/test_series.py::test_settled_picard_work_on_the_corpus"]),
    Mutant(
        "Picard's pass adds the terms of S in reverse order", LINEARIZE,
        "        for (coeff, _), term in zip(ops._factors, terms):\n",
        "        for (coeff, _), term in reversed(list(zip(ops._factors, terms))):\n",
        ["tests/test_series.py::test_settled_picard_matches_reference_on_the_corpus",
         "tests/test_series.py::test_settled_picard_matches_reference_on_the_deep_series[4]"]),
    Mutant(
        "Picard without its finiteness check", LINEARIZE,
        "            raise OverflowError(f\"Picard block",
        "            if False: raise OverflowError(f\"Picard block",
        ["tests/test_series.py::test_settled_picard_past_an_overflow_exceeds_the_budget[lattice-1]",
         "tests/test_series.py::test_settled_picard_past_an_overflow_exceeds_the_budget"
         "[lattice-1/2]",
         "tests/test_cli.py::test_picard_overflow_after_a_finite_level_solve_is_one_line_error"]),
    Mutant(
        "the level solver without its finiteness check", LINEARIZE,
        "            raise OverflowError(f\"level block",
        "            if False: raise OverflowError(f\"level block",
        ["tests/test_cli.py::test_level_solver_overflow_is_one_line_error[nan-at-4]",
         "tests/test_cli.py::test_level_solver_overflow_is_one_line_error[nan-at-2]"]),
    Mutant(
        "the level solver's sums, its level residuals too, skip the zeta block", LINEARIZE,
        "    push(phi)\n",
        "",
        ["tests/test_series.py::test_level_residual_is_conjugacy_residual_on_the_corpus",
         "tests/test_series.py::test_level_residual_is_conjugacy_residual_on_the_deep_series[4]"]),
    Mutant(
        "level nu's P adds term i >= 2 of the sums without its 1/i!", LINEARIZE,
        "P = sum((acc[nu].scale(c) for",
        "P = sum((acc[nu] for",
        ["tests/test_linearize.py::TestLevelSolver::test_residual_vanishes_on_random_corpus",
         "tests/test_acceptance.py::test_criterion_1_formal_conjugacy",
         "tests/test_series.py::TestLattice::test_deep_order_8_solution_bytes"]),
    Mutant(
        "phi gets a block other than the one the level solver pushed", LINEARIZE,
        "        phi = add(phi, term)\n",
        "        phi = add(phi, term.scale(2.0))\n",
        ["tests/test_series.py::test_level_residual_is_conjugacy_residual_on_the_corpus",
         "tests/test_series.py::test_level_residual_is_conjugacy_residual_on_the_deep_series[4]"]),
    Mutant(
        "a slope fit whose usable points share one Re divides by zero", "src/dulaclin/dynamics.py",
        "    if len({x for x, _ in pts}) == 1:\n",
        "    if False:\n",
        ["tests/test_dynamics.py::TestSlopeFits::test_fit_on_a_single_re_is_insufficient",
         "tests/test_cli.py::test_compare_grid_with_one_usable_re_exits_1"]),
    Mutant(
        "compare passes a level that no point of its grid saw", "src/dulaclin/cli.py",
        "        if exponent is not None and not fit.n_used:",
        "        if False:",
        ["tests/test_cli.py::test_compare_level_that_no_point_sees_exits_1"]),
    Mutant(
        "verify-domain hands a negative --seed to numpy", "src/dulaclin/cli.py",
        "    _add_output_flags(p, seed=_seed)",
        "    _add_output_flags(p)",
        ["tests/test_cli.py::test_verify_domain_bad_seed_is_parse_error_naming_the_flag[negative]"]),
    Mutant(
        "the homological report's value memo keyed with zeros", "src/dulaclin/cli.py",
        "for x in c if x}}",
        "for x in c}}",
        ["tests/test_reports.py::test_renderer_is_json[signed-zero-grid]",
         "tests/test_reports.py::test_renderer_is_json[repeated-residuals]"]),
    Mutant(
        "the phi file's non-finite replacement applied to the whole text", "src/dulaclin/cli.py",
        "    terms = _nested(\"[]\", terms, \"   \").replace(\"nan\", \"NaN\").replace(\"inf\", \"Infinity\")\n"
        "    series.append('\"terms\": ' + terms)\n"
        "    return _nested(\"{}\", [*fields, '\"phi\": ' + _nested(\"{}\", series, \"  \")], \" \")\n",
        "    terms = _nested(\"[]\", terms, \"   \")\n"
        "    series.append('\"terms\": ' + terms)\n"
        "    return _nested(\"{}\", [*fields, '\"phi\": ' + _nested(\"{}\", series, \"  \")],"
        " \" \").replace(\"nan\", \"NaN\").replace(\"inf\", \"Infinity\")\n",
        ["tests/test_reports.py::test_phi_writer_is_json[non-finite]"]),
    Mutant(
        "the phi file's empty levels list written as [\\n ]", "src/dulaclin/cli.py",
        "        return brackets\n",
        "        return f\"{brackets[0]}\\n{pad[1:]}{brackets[1]}\"\n",
        ["tests/test_reports.py::test_phi_writer_is_json[zeta-only]"]),
    Mutant(
        "the cross-check compares the rounded parts by value, not by repr", "src/dulaclin/cli.py",
        "blocks.append((format_exponent(k, phi.L), repr(parts)))",
        "blocks.append((format_exponent(k, phi.L), parts))",
        ["tests/test_reports.py::test_flag_is_the_oracle[nan]"]),
    Mutant(
        "the cross-check keeps trailing coefficients that round to zero", "src/dulaclin/cli.py",
        "        while parts and parts[-1] == parts[-2] == 0:\n            del parts[-2:]\n",
        "",
        ["tests/test_reports.py::test_flag_is_the_oracle[block-rounds-to-zero]",
         "tests/test_reports.py::test_flag_is_the_oracle[trailing-coefficient-rounds-to-zero]"]),
    Mutant(
        "a series file the constructor rejects ends in its ValueError", "src/dulaclin/series.py",
        "    except ValueError as exc:  # its message names the key it rejects\n",
        "    except ArithmeticError as exc:\n",
        ["tests/test_cli.py::test_malformed_series_file_is_parse_error[linearize-gens-zero]",
         "tests/test_cli.py::test_malformed_series_file_is_parse_error[compare-trunc-negative]",
         "tests/test_cli.py::test_malformed_series_file_is_parse_error[koenigs-term-above-trunc]"]),
    Mutant(
        "the writer leaves a stale tail", "src/dulaclin/cli.py",
        "                    out.truncate()\n",
        "                    pass\n",
        ["tests/test_cli.py::TestOutputFiles::test_stale_outputs_are_overwritten_in_place[linearize]",
         "tests/test_cli.py::TestOutputFiles::test_stale_outputs_are_overwritten_in_place[koenigs]",
         "tests/test_cli.py::TestOutputFiles::test_stale_outputs_are_overwritten_in_place"
         "[solve-homological]",
         "tests/test_cli.py::TestOutputFiles::test_a_symlinked_output_writes_through_to_its_target",
         "tests/test_cli.py::TestOutputFiles::test_a_failing_chunk_source_leaves_what_was_written"]),
    Mutant(
        "the writer truncates a non-regular output", "src/dulaclin/cli.py",
        "                if stat.S_ISREG(os.fstat(out.fileno()).st_mode):\n",
        "                if True:\n",
        ["tests/test_cli.py::TestOutputFiles::test_dev_null_output_exits_0[linearize]",
         "tests/test_cli.py::TestOutputFiles::test_dev_null_output_exits_0[koenigs]",
         "tests/test_cli.py::TestOutputFiles::test_piped_stdout_output_prints_the_file_bytes"]),
    Mutant(
        "the writer creates a new output with mode 0o777", "src/dulaclin/cli.py",
        "os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)",
        "os.open(path, os.O_WRONLY | os.O_CREAT)",
        ["tests/test_cli.py::TestOutputFiles::test_stale_outputs_are_overwritten_in_place[koenigs]"]),
    Mutant(
        "the writer truncates only on success", "src/dulaclin/cli.py",
        "            try:\n                out.writelines(chunks)\n            finally:\n",
        "            out.writelines(chunks)\n            if True:\n",
        ["tests/test_cli.py::TestOutputFiles::test_a_failing_chunk_source_leaves_what_was_written"]),
    Mutant(
        "main has no handler for a closed stdout", "src/dulaclin/cli.py",
        "    except BrokenPipeError:  #",
        "    except ():  #",
        ["tests/test_cli.py::TestOutputFiles::test_a_closed_stdout_exits_1_on_one_line"
         "[koenigs-summary]"]),
    Mutant(
        "a closed stdout's buffered text is flushed again at interpreter exit", "src/dulaclin/cli.py",
        "            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())\n",
        "            pass\n",
        ["tests/test_cli.py::TestOutputFiles::test_a_closed_stdout_exits_1_on_one_line"
         "[koenigs-summary]"]),
    Mutant(
        "main leaves stdout's flush to interpreter exit", "src/dulaclin/cli.py",
        "        print(end=\"\", flush=True)  #",
        "        #",
        ["tests/test_cli.py::TestOutputFiles::test_a_closed_stdout_exits_1_on_one_line"
         "[koenigs-summary]"]),
    Mutant(
        "solve-homological reads the --input it does not have when --expr is empty",
        "src/dulaclin/cli.py",
        "    if args.expr or \"input\" not in args:",
        "    if args.expr:",
        ["tests/test_cli.py::test_bad_flag_is_parse_error[homological-expr-empty]"]),
    Mutant(
        "a negative power that underflows to 0 raises CPython's ZeroDivisionError",
        "src/dulaclin/exprparse.py",
        "    except ZeroDivisionError:  # base ** -n",
        "    except ():  # base ** -n",
        ["tests/test_cli.py::test_overflow_is_one_line_error[negative-power-folded]",
         "tests/test_cli.py::test_overflow_is_one_line_error[negative-power-in-orbit]"]),
    Mutant(
        "a numeric flag's rational past the doubles ends as a numeric overflow",
        "src/dulaclin/cli.py",
        "    except (ParseError, OverflowError):  # a bad rational",
        "    except ParseError:  # a bad rational",
        ["tests/test_cli.py::test_bad_flag_is_parse_error[eps-rational-past-the-doubles]"]),
    Mutant(
        "solve-homological divides by an --alpha tail bound that rounds to 0", "src/dulaclin/cli.py",
        "    if not 1.0 - math.exp(-args.alpha * profile.rho):",
        "    if False:",
        ["tests/test_cli.py::test_bad_flag_is_parse_error[alpha-underflow]"]),
    Mutant(
        "the lanes of several ASTs share one slot among their exp subtrees",
        "src/dulaclin/exprparse.py",
        "key = op, np.complex128",
        "key = op[:1] if n[0] == \"call\" else op, np.complex128",
        ["tests/test_lanes.py::test_each_distinct_exp_is_taken_once_per_call[germ2]",
         "tests/test_lanes.py::test_lanes_of_several_asts_are_each_ones[germ2]"]),
    Mutant(
        "a failing search round stops only on a bound violation", "src/dulaclin/domains.py",
        "violates[i] = row[2] < 0 or not (row[3] and row[4])",
        "violates[i] = row[2] < 0",
        ["tests/test_domains.py::TestSearchStopsEarly::"
         "test_failing_round_stops_at_its_first_violation[band-region-only]"]),
    Mutant(
        "a failing search round in lanes stops only on a bound violation",
        "src/dulaclin/domains.py",
        "violates = (margin < 0) | ~rect | ~inside",
        "violates = margin < 0",
        ["tests/test_domains.py::TestSearchStopsEarly::"
         "test_failing_round_in_lanes_stops_at_its_first_violation[band-region-only]"]),
    Mutant(
        "the invariance lanes ignore the unsure-membership flag", "src/dulaclin/domains.py",
        "return w.real > 0, np.abs(w.real) > KAPPA_MARGIN * (np.abs(w) + 1.0 + C)",
        "return w.real > 0, np.ones(w.shape, bool)",
        ["tests/test_lanes.py::test_a_quad_sample_on_the_boundary_is_checked_alone"]),
    Mutant(
        "a chunk of invariance lanes keeps rows past its first violation",
        "src/dulaclin/domains.py",
        "            stop = int(hit[0]) + 1\n",
        "            stop = len(x)\n",
        ["tests/test_domains.py::TestSearchStopsEarly::"
         "test_failing_round_in_lanes_stops_at_its_first_violation[quad]",
         "tests/test_domains.py::TestSearchStopsEarly::"
         "test_failing_round_in_lanes_stops_at_its_first_violation[band-region-only]",
         "tests/test_domains.py::TestSearchStopsEarly::"
         "test_lanes_past_the_first_violation_go_on_to_the_next_cut"]),
    Mutant(
        "add built from unsorted keys", "src/dulaclin/series.py",
        "    return _kept(a, sorted(acc.items()))  # a union of a's and b's exponents\n",
        "    return _kept(a, list(acc.items()))\n",
        ["tests/test_series.py::test_add_commutes_exactly"]),
    Mutant(
        "the batched products reduce from the first row, not from 0j", "src/dulaclin/series.py",
        "np.add.reduce(rows, axis=0, initial=0j)",
        "np.add.accumulate(rows, axis=0)[-1]",  # add.reduce without `initial` starts at +0.0 too
        ["tests/test_products.py::test_batched_products_are_the_loop"]),
    Mutant(
        "a non-finite block takes the batched path", "src/dulaclin/series.py",
        " < BATCH_MIN or not all(map(cmath.isfinite, a)):",
        " < BATCH_MIN:",
        ["tests/test_products.py::test_a_non_finite_block_takes_the_loop[0-inf]",
         "tests/test_products.py::test_a_non_finite_block_takes_the_loop[9-nan]",
         "tests/test_products.py::test_a_non_finite_block_takes_the_loop[9-(1+infj)]"]),
    Mutant(
        "a non-finite block or power of c takes the batched shifts", "src/dulaclin/series.py",
        "    if not all(map(cmath.isfinite, cpow)) \\\n"
        "            or not all([all(map(cmath.isfinite, b.coeffs)) for b in blocks]):\n",
        "    if False:\n",
        ["tests/test_shifts.py::test_a_non_finite_block_takes_the_loop[0-nan]",
         "tests/test_shifts.py::test_a_non_finite_block_takes_the_loop[17-inf]",
         "tests/test_shifts.py::test_a_zero_or_non_finite_shift_or_power_takes_the_loop"
         "[powers-overflow]"]),
    Mutant(
        "the level solver's translate(phi, beta) takes the check's shift unscaled", LINEARIZE,
        "    return Q, shifted\n",
        "    return Q, shift_blocks([Q], beta)[0]\n",
        ["tests/test_shifts.py::test_a_level_block_has_the_bits_of_translate",
         "tests/test_series.py::test_level_residual_is_conjugacy_residual_on_the_corpus",
         "tests/test_series.py::test_level_residual_is_conjugacy_residual_on_the_deep_series[4]"]),
    Mutant(
        "an enclosure takes every exp for zero, whatever its Re(arg)", "src/dulaclin/exprparse.py",
        "(top := a[0][1]) < math.log(_BOUND):",
        "(top := UNDERFLOW) < math.log(_BOUND):",
        ["tests/test_parser.py::TestVanishes::test_proves_only_where_it_holds[exp-past-745]",
         "tests/test_parser.py::TestVanishes::test_proves_only_where_it_holds[bump]",
         "tests/test_dynamics.py::TestSharedOrbit::test_single_start_matches_reference"
         "[flat-then-bump]"]),
    Mutant(
        "an enclosure takes exp's imaginary part for exactly 0, whatever Im(arg)",
        "src/dulaclin/exprparse.py",
        "_ZERO if a[1] == _ZERO else (-bound, bound)",
        "_ZERO",
        ["tests/test_parser.py::TestVanishes::test_exact_zero_parts[exp-off-axis]",
         "tests/test_parser.py::TestVanishes::test_exact_zero_parts[rotated]"]),
    Mutant(
        "each Koenigs walk compiles its map's enclosure anew", "src/dulaclin/dynamics.py",
        "    first = _Certificate(prof, zeta, 0, tol, max_n)\n",
        "    vars(f).pop(\"enclosure\", None)\n    first = _Certificate(prof, zeta, 0, tol, max_n)\n",
        ["tests/test_cli.py::test_each_map_compiles_its_enclosure_at_most_once[koenigs-1]",
         "tests/test_cli.py::test_each_map_compiles_its_enclosure_at_most_once[compare-1]"]),
    Mutant(
        "the no-op rule allows half an ulp, not a quarter", "src/dulaclin/dynamics.py",
        "4.0 * m < math.ulp(a)",
        "2.0 * m < math.ulp(a)",
        ["tests/test_dynamics.py::test_absorbed_holds_for_every_addition_it_allows"]),
    Mutant(
        "the no-op rule lets a span of w + beta hold 0", "src/dulaclin/dynamics.py",
        "return not m or not span[0] <= 0.0 <= span[1] and all(",
        "return not m or all(",
        ["tests/test_dynamics.py::test_absorbed_holds_for_every_addition_it_allows",
         "tests/test_dynamics.py::TestVanishingStretch::test_no_skipped_stretch_holds_im_0"]),
    Mutant(
        "the no-op rule leaves the next point's sum out", "src/dulaclin/dynamics.py",
        "_absorbed(box[0], rect[0], disp.real, disp_next.real) \\\n"
        "                    and _absorbed(box[1], rect[1], disp.imag, disp_next.imag)",
        "_absorbed(box[0], rect[0], disp.real) \\\n"
        "                    and _absorbed(box[1], rect[1], disp.imag)",
        ["tests/test_dynamics.py::TestSharedOrbit::test_with_next_matches_two_reference_calls"
         "[noop-zero-next-sum]"]),
    Mutant(
        "the skip's rectangle is built from the last point only", "src/dulaclin/dynamics.py",
        "return math.nextafter(min(s, end) - e, -math.inf), math.nextafter(max(s, end) + e, math.inf)",
        "return math.nextafter(end - e, -math.inf), math.nextafter(end + e, math.inf)",
        ["tests/test_dynamics.py::TestVanishingStretch::"
         "test_rectangle_spans_every_skipped_point[germ-(9+2j)]",
         "tests/test_dynamics.py::TestSharedOrbit::test_with_next_matches_two_reference_calls"
         "[flat-then-bump]"]),
    Mutant(
        "the skip's rectangle drops its rounding margin", "src/dulaclin/dynamics.py",
        "    e = (k + 2) * math.ulp(2.0 * a)\n",
        "    e = 0.0\n",
        ["tests/test_dynamics.py::test_span_holds_every_point_of_the_additions"]),
    Mutant(
        "the batched product done with numpy's complex *", "src/dulaclin/exprparse.py",
        "else (ar * br - ai * bi, ar * bi + ai * br))",
        "else ((p := complex_lanes(ar, ai) * complex_lanes(br, bi)).real, p.imag))",
        ["tests/test_lanes.py::test_lanes_match_compile_ast[mul]",
         "tests/test_lanes.py::test_lanes_match_compile_ast[germ2]"]),
    Mutant(
        "a lane that failed its decay check kept instead of handed to the scalar loop",
        "src/dulaclin/dynamics.py",
        "ok &= ~bad & (size <= lim * (1.0 - DECAY_MARGIN)) & (\n"
        "                (lim >= 2.0 ** -1022) | (size == 0.0))",
        "ok &= ~bad",
        ["tests/test_reports.py::test_second_point_failures_match_the_dict_writer[decay]",
         "tests/test_dynamics.py::TestHomologicalGrid::test_rows_are_the_scalar_calls[decay]"]),
    Mutant(
        "the batch's complex results rebuilt as re + 1j*im", "src/dulaclin/exprparse.py",
        "    z = np.empty(np.shape(re), complex)\n    z.real, z.imag = re, im\n    return z\n",
        "    return re + 1j * im\n",
        ["tests/test_lanes.py::test_lanes_match_compile_ast[exp-neg]",
         "tests/test_lanes.py::test_complex_lanes_keeps_signed_zeros"]),
    Mutant(
        "the divisor's zero check emitted after the dividend, on the dividend",
        "src/dulaclin/exprparse.py",
        "todo += [(n[1], False), (_CHECK, True), (n[2], False)]",
        "todo += [(_CHECK, True), (n[1], False), (n[2], False)]",
        ["tests/test_parser.py::TestCompile::test_divisor_checked_before_dividend",
         "tests/test_parser.py::TestCompile::test_matches_the_recursive_reference_on_random_asts"]),
    Mutant(
        "a series block's Horner started from its top coefficient, not 0j * z + c",
        "src/dulaclin/series.py",
        "        node = zero\n        for c in reversed(block.coeffs):\n",
        "        node = (\"num\", block.coeffs[-1]) if block.coeffs else zero\n"
        "        for c in reversed(block.coeffs[:-1]):\n",
        ["tests/test_series.py::TestCompiledEvaluator::test_bit_for_bit[negative-zero-parts]",
         "tests/test_series.py::TestCompiledEvaluator::test_bit_for_bit[degree-0]"]),
    Mutant(
        "UNDERFLOW raised to -700", "src/dulaclin/exprparse.py",
        "UNDERFLOW = -746.0\n",
        "UNDERFLOW = -700.0\n",
        ["tests/test_parser.py::TestVanishes::test_proves_only_where_it_holds[exp-past-745]",
         "tests/test_parser.py::TestVanishes::test_platform_exp_underflows_at_the_cut[1.0]"]),
]


def run_tests(root: Path, tests: list) -> tuple:
    """(pytest's exit code, the ids it reports as failed or in error)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                           *tests], cwd=root, env=env, capture_output=True, text=True)
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE))
    return proc.returncode, failed


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "_work", "_out"))
        named = sorted({t for m in MUTANTS for t in m.tests})
        code, failed = run_tests(copy, named)
        if code:
            print(f"unmutated: pytest exit {code}; failing: {sorted(failed) or 'none named'}")
            return 1
        for m in MUTANTS:
            path = copy / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"STALE    {m.name}: its old text occurs {text.count(m.old)} times in {m.file}")
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            try:
                code, failed = run_tests(copy, m.tests)
            finally:
                path.write_text(text)
            survivors = [t for t in m.tests if t not in failed]
            if code != 1 or survivors:
                print(f"SURVIVED {m.name}: pytest exit {code}; not failing: {survivors}")
                bad += 1
            else:
                print(f"killed   {m.name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
