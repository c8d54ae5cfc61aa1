"""Batch driver: every verification pipeline behind one reproducible command.

Reports are deterministic for identical flags (seeds included, no
timestamps) and embed the field modulus and all sign/ordering conventions,
so they can be used as golden files.  Exit code 0 means every check passed
and 1 that at least one failed (the report counts them); the exception type
picks the rest: 2 a usage error, 3 a non-generic weight seed
(`homology.NonGenericSeed`), 4 an undecided certificate
(`homology.Inconclusive`; stderr says `error: inconclusive: ...`), 5 a
failed self-check of the solver (`homology.InvariantError`; stderr says
`error: internal invariant: ...`).  After its `error:` line, exits 2 to 5
print one JSON line {"exit": code, "kind": exception name, "message": ...}.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .exactfield import FieldCtx, FieldElement
from . import memo, repcore, homology, steinberg, vermatwist, endpresent
from .reporting import check, report, merge_reports

COMMANDS = ["steinberg", "restriction", "hat-borel", "projectives", "twist",
            "hom-iso", "equivalence", "relations", "generation", "center",
            "block-equivalence", "all"]
PRIMES, EXTENSIONS = (3, 5, 7), (1, 2)      # the --p and --ext values of every path
# (exception type, exit code, prefix of the `error:` line); the first match wins
ERRORS = ((homology.NonGenericSeed, 3, ""), (ValueError, 2, ""),
          (homology.Inconclusive, 4, "inconclusive: "),
          (homology.InvariantError, 5, "internal invariant: "))


def conventions(ctx: FieldCtx) -> dict:
    return {
        "version": __version__,
        "field": ctx.describe(),
        "commutators": "[e,f]=h, [h,e]=2e, [h,f]=-2f; weight lattice Z with alpha=2",
        "digit_order": "digit k_0 is the untwisted tensor factor",
        "dual_sign": "antipode (-1)^n on n-th divided powers",
        "composition": "g o x applies x first; twist coefficients use the middle grading",
        "twist_normalization": "A_0 = 1",
        "pivoting": "first nonzero pivot, deterministic RREF bases",
    }


def parse_seed(ctx: FieldCtx, text: str) -> FieldElement:
    """Weight seed: 'auto' scans for the first generic element, else 'c0,c1'
    with both coefficients in 0..p-1."""
    if ctx.k != 2:
        raise ValueError("generic seeds need a quadratic field extension")
    if text == "auto":
        for idx in range(ctx.q):
            d = ctx.from_index(idx)
            if not d.in_prime_field():
                try:
                    homology.generic_verma_projectives(ctx, d)
                    return d
                except homology.NonGenericSeed:
                    continue
        raise homology.NonGenericSeed("no generic seed found")
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"bad seed {text!r}: expected 'c0,c1' or 'auto'")
    coeffs = [int(c) for c in parts]
    if any(not 0 <= c < ctx.p for c in coeffs):
        raise ValueError(f"--d-seed {text!r}: coefficients must lie in 0..{ctx.p - 1}")
    d = ctx.el(*coeffs)
    if d.in_prime_field():
        raise homology.NonGenericSeed(f"non-generic weight seed {d}: it lies in the prime field")
    return d


def run_command(cmd: str, p: int, ext: int, r: int, d_seed: str,
                window: int, seed: int) -> dict:
    """The report of one command.

    The call opens the memo scope (see `memo`): Hom spaces, projective
    covers, fixed maps and seed certificates are built once per call, and
    the sub-commands of `all` share the scope.
    """
    with memo.scope():
        return _command_report(cmd, p, ext, r, d_seed, window, seed)


def _command_report(cmd: str, p: int, ext: int, r: int, d_seed: str,
                    window: int, seed: int) -> dict:
    if p not in PRIMES or ext not in EXTENSIONS:
        raise ValueError(f"--p must be one of {PRIMES} and --ext one of {EXTENSIONS}, "
                         f"got {p} and {ext}")
    for flag, value in (("--r", r), ("--window", window)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    if cmd in ("relations", "generation", "center", "all") and r > 2:
        raise ValueError(f"--r must be 1 or 2 for {cmd}, got {r}: the End presentation "
                         "covers the first two kernels")
    prime_ctx = FieldCtx(p, 1)
    quad_ctx = FieldCtx(p, 2) if ext == 2 else None

    def generic():
        if quad_ctx is None:
            raise ValueError(f"command {cmd} needs --ext 2")
        return quad_ctx, parse_seed(quad_ctx, d_seed)

    if cmd == "twist":
        ctx, d = generic()
        checks = []
        seeds = [d]
        for idx in range(ctx.q):
            cand = ctx.from_index(idx)
            if not cand.in_prime_field() and cand != d:
                seeds.append(cand)
            if len(seeds) >= 5:
                break
        for cand in seeds:
            cf = vermatwist.twist_closed_form(ctx, cand)
            orc = vermatwist.twist_oracle(ctx, cand)
            match = all(a == b for a, b in zip(cf.coeffs, orc.coeffs))
            checks.append(check(f"oracle_match_{cand}", match and cf.recursion_holds(),
                                coeffs=[str(c) for c in cf.coeffs]))
        return report("twist", {"p": p, "seeds": len(seeds)}, checks,
                      conventions=conventions(ctx))

    if cmd == "steinberg":
        reps = [steinberg.verify_steinberg(prime_ctx, r)]
        if quad_ctx is not None:
            ctx, d = generic()
            reps.append(steinberg.verify_steinberg(ctx, r, d=d))
        out = merge_reports("steinberg", {"p": p, "r": r}, reps)
        out["conventions"] = conventions(prime_ctx)
        return out

    if cmd == "restriction":
        out = steinberg.verify_restriction_simplicity(prime_ctx, max(r, 2), 1)
        out["conventions"] = conventions(prime_ctx)
        return out

    if cmd == "hat-borel":
        ctx, d = generic()
        out = steinberg.hat_borel_irreducibles(ctx, max(r, 2), d)
        out["conventions"] = conventions(ctx)
        return out

    if cmd == "projectives":
        reps = [steinberg.dimension_accounting(prime_ctx, r, seed=seed)]
        if p == 3 or r == 1:
            reps.append(steinberg.verify_projective_construction(prime_ctx, r, seed=seed))
        if quad_ctx is not None and r >= 2 and p == 3:
            ctx, d = generic()
            reps.append(steinberg.verify_projective_construction(ctx, r, d=d, seed=seed))
        out = merge_reports("projectives", {"p": p, "r": r, "seed": seed}, reps)
        out["conventions"] = conventions(prime_ctx)
        return out

    if cmd == "hom-iso":
        ctx, d = generic()
        reps = []
        for i in (0, 1):
            V = repcore.simple_restricted(ctx, i)
            reps.append(vermatwist.hom_iso_report(ctx, d, V, window, tag=f"L{i}"))
        ext_projs = homology.all_extended_projectives(ctx)
        for a in range(p):
            for b in range(p):
                _, V = homology.hom_as_gmodule(ext_projs[a], ext_projs[b], 1)
                if V.dim:
                    reps.append(vermatwist.hom_iso_report(ctx, d, V, window,
                                                          tag=f"homP{a}P{b}"))
        L1 = repcore.simple_restricted(ctx, 1)
        for trip in [(1, 0, 1), (1, 0, -1), (0, 1, 0), (2, 1, 0)]:
            reps.append(vermatwist.composition_law_report(ctx, d, L1, L1, *trip))
        reps.append(vermatwist.verma_tensor_split(ctx, d, 0, L1))
        out = merge_reports("hom-iso", {"p": p, "window": window, "d": str(d)}, reps)
        out["conventions"] = conventions(ctx)
        return out

    if cmd == "equivalence":
        ctx, d = generic()
        out = vermatwist.verify_equivalence(ctx, d, radius=window, seed=seed)
        out["conventions"] = conventions(ctx)
        return out

    if cmd == "relations":
        reps = [endpresent.verify_relations(prime_ctx, rr) for rr in range(1, r + 1)]
        out = merge_reports("relations", {"p": p, "r": r, "seed": seed}, reps)
        out["conventions"] = conventions(prime_ctx)
        return out

    if cmd == "generation":
        # the degree-by-degree span against the full End is desk scale at
        # p = 3; larger primes run the first kernel only
        rmax = r if p == 3 else 1
        reps = [endpresent.verify_generation(prime_ctx, rr) for rr in range(1, rmax + 1)]
        out = merge_reports("generation", {"p": p, "r": r, "seed": seed}, reps)
        out["conventions"] = conventions(prime_ctx)
        return out

    if cmd == "center":
        reps = []
        for rr in range(1, r + 1):
            # at p = 5 the second-kernel run is restricted to one block
            blk = (0,) * rr if (p >= 5 and rr == 2) else None
            reps.append(endpresent.verify_center(prime_ctx, rr, block_of=blk))
        out = merge_reports("center", {"p": p, "r": r, "seed": seed}, reps)
        out["conventions"] = conventions(prime_ctx)
        return out

    if cmd == "block-equivalence":
        out = steinberg.steinberg_block_equivalence(prime_ctx)
        out["conventions"] = conventions(prime_ctx)
        return out

    if cmd == "all":
        sub = ["twist", "steinberg", "restriction", "hat-borel", "projectives",
               "hom-iso", "equivalence", "relations", "generation", "center",
               "block-equivalence"]
        reps = []
        for c in sub:
            w = window
            rr = r
            if p >= 5 and c == "equivalence":
                w = min(window, 1)          # spot check at larger primes
            if p >= 5 and c == "center":
                rr = min(r, 1)              # the r=2 single block is explicit-only
            reps.append(run_command(c, p, ext, rr, d_seed, w, seed))
        out = merge_reports("all", {"p": p, "r": r, "window": window,
                                    "seed": seed}, reps)
        out["conventions"] = conventions(prime_ctx if quad_ctx is None else quad_ctx)
        return out

    raise ValueError(f"unknown command {cmd}")


def to_csv(rep: dict) -> str:
    lines = ["table,key,value"]
    for t in rep.get("tables", []):
        for k, v in sorted(t.get("data", {}).items()):
            lines.append(f"{t['name']},{k},{v}")
    lines.append(f"summary,failures,{rep['failures']}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sl2frob",
        description="exact verification pipelines for higher Frobenius kernels of SL2")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--p", type=int, default=3, choices=PRIMES)
    parser.add_argument("--ext", type=int, default=2, choices=EXTENSIONS,
                        help="field extension degree for generic characters")
    parser.add_argument("--r", type=int, default=1, help="kernel level")
    parser.add_argument("--d-seed", default="auto",
                        help="generic weight seed: 'auto' or 'c0,c1'")
    parser.add_argument("--window", type=int, default=2,
                        help="graded window radius")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed of the regular-module split behind the r = 1 "
                             "zero-character covers; other reports only record it")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", default="json", choices=["json", "csv"])

    def usage_error(message):
        parser.print_usage(sys.stderr)
        raise ValueError(message)

    parser.error = usage_error
    try:
        args = parser.parse_args(argv)
        rep = run_command(args.command, args.p, args.ext, args.r,
                          args.d_seed, args.window, args.seed)
    except tuple(kind for kind, _, _ in ERRORS) as e:
        code, prefix = next((code, prefix) for kind, code, prefix in ERRORS
                            if isinstance(e, kind))
        print(f"error: {prefix}{e}", file=sys.stderr)
        print(json.dumps({"exit": code, "kind": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return code

    text = json.dumps(rep, indent=1, sort_keys=True) + "\n" \
        if args.format == "json" else to_csv(rep)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 1 if rep["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
