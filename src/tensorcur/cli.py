"""Command-line interface: synthetic sweeps, compression, factor conversion,
and bound diagnostics."""

import argparse
import sys

import numpy as np

from .analysis import evaluate_error_bounds
from .experiments import (
    METHODS,
    ExperimentConfig,
    _decompose,
    compress,
    convert_factors,
    generate_synthetic,
    run_sweep,
    write_csv,
)


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v != ""]


def _add_synthetic(sub):
    p = sub.add_parser("synthetic", help="run the synthetic benchmark sweep")
    p.add_argument("--dims", type=_int_list, required=True,
                   help="comma-separated cubic sizes, e.g. 50,100,200")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--sigma", type=_float_list, default=[0.0],
                   help="comma-separated noise standard deviations")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--methods", type=lambda s: s.split(","), default=list(METHODS),
                   help=f"subset of {','.join(METHODS)}")
    p.add_argument("--row-samples", type=int, default=None,
                   help="override the per-mode subtensor sample size")
    p.add_argument("--fiber-samples", type=int, default=None,
                   help="override the per-mode fiber sample size")
    p.add_argument("--out", required=True, help="CSV output path")


def _add_compress(sub):
    p = sub.add_parser("compress", help="decompose a tensor file and write factors")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--ranks", type=_int_list, required=True,
                   help="comma-separated per-mode target ranks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--row-samples", type=int, default=None)
    p.add_argument("--fiber-samples", type=int, default=None)
    p.add_argument("--reconstruct", action="store_true",
                   help="also write the reconstructed tensor")


def _add_convert(sub):
    p = sub.add_parser("convert", help="convert stored CUR factors to Tucker factors")
    p.add_argument("--in-dir", required=True)
    p.add_argument("--out-dir", required=True)


def _add_check_bounds(sub):
    p = sub.add_parser("check-bounds",
                       help="evaluate the approximation-error bounds on a synthetic instance")
    p.add_argument("--dims", type=_int_list, required=True,
                   help="single size for a cubic tensor, or one size per mode")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=("chidori", "fiber"), default="chidori")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorcur",
        description="Tensor CUR decompositions: benchmarks, compression, diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_synthetic(sub)
    _add_compress(sub)
    _add_convert(sub)
    _add_check_bounds(sub)
    return parser


def _cmd_synthetic(args) -> int:
    cfg = ExperimentConfig(
        dims=args.dims,
        rank=args.rank,
        sigmas=args.sigma,
        trials=args.trials,
        seed=args.seed,
        methods=args.methods,
        row_samples=args.row_samples,
        fiber_samples=args.fiber_samples,
    )
    rows = run_sweep(cfg)
    write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# below this SNR a reconstruction leaves more than 10^(-1/10) ~ 79% of the
# input's energy in the residual
_MIN_SNR_DB = 1.0


def _cmd_compress(args) -> int:
    result = compress(
        args.input,
        args.method,
        args.ranks,
        seed=args.seed,
        out_dir=args.out_dir,
        write_reconstruction=args.reconstruct,
        row_samples=args.row_samples,
        fiber_samples=args.fiber_samples,
    )
    snr = "exact" if result.snr_db is None else f"{result.snr_db:.2f} dB"
    print(f"method={result.method} ranks={','.join(map(str, result.ranks))} "
          f"snr={snr} rank_ok={int(result.rank_ok)} runtime_ms={result.runtime_ms:.3f} "
          f"extract_ms={result.extract_ms:.3f} out={result.out_dir}")
    failed = False
    if not result.rank_ok:
        print("warning: rank gate failed: a sampled intersection has numerical rank "
              "below its target rank, so the reconstruction may be inaccurate "
              "(try another --seed or larger --row-samples)", file=sys.stderr)
        failed = True
    if result.snr_db is not None and result.snr_db < _MIN_SNR_DB:
        print(f"warning: the reconstruction carries no signal: its SNR is below "
              f"{_MIN_SNR_DB:g} dB, so it removes less than about 21% of the input's "
              "energy (try other --ranks, another --seed or larger sample sizes)",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


def _cmd_convert(args) -> int:
    converted = convert_factors(args.in_dir, args.out_dir)
    ranks = ",".join(str(r) for r in converted.core.shape)
    print(f"wrote Tucker factors with core ranks {ranks} to {args.out_dir}")
    return 0


def _cmd_check_bounds(args) -> int:
    dims = args.dims[0] if len(args.dims) == 1 else args.dims
    if args.seed < 0:
        raise ValueError(f"seed {args.seed} must be nonnegative")
    rng = np.random.default_rng(args.seed)
    exact, noisy, noise = generate_synthetic(dims, args.rank, args.sigma, rng)
    # one draw at the default sample sizes, never resampled: the bounds hold
    # or fail for the sample as drawn
    dec = _decompose(args.method, noisy, (args.rank,) * exact.ndim, [args.seed], None, None)[0]
    report = evaluate_error_bounds(exact, noise, dec)
    print(f"variant: {dec.variant}")
    print(f"measured_error:        {report.measured_error:.6e}")
    print(f"general_bound:         {report.general_bound:.6e}")
    if report.chidori_bound is not None:
        print(f"chidori_bound:         {report.chidori_bound:.6e}")
    print(f"premise_ok:            {list(report.premise_ok)}")
    print(f"guaranteed:            {report.guaranteed}")
    print(f"core_noise_norm:       {report.core_noise_norm:.6e}")
    for i in range(exact.ndim):
        print(
            f"mode {i}: |R_(i)|_2={report.core_spectral_norms[i]:.4e} "
            f"|W_I^+|_2={report.subfactor_pinv_norms[i]:.4e} "
            f"|U^+|_2={report.intersection_pinv_norms[i]:.4e} "
            f"sigma_r(U)={report.intersection_sigma_r[i]:.4e} "
            f"|E_J|_F={report.fiber_noise_norms[i]:.4e} "
            f"|E_IJ|_F={report.intersection_noise_norms[i]:.4e}"
        )
    return 0


_COMMANDS = {
    "synthetic": _cmd_synthetic,
    "compress": _cmd_compress,
    "convert": _cmd_convert,
    "check-bounds": _cmd_check_bounds,
}


def main(argv=None) -> int:
    """Run one subcommand.  Exit 0 on success, 1 when ``compress``'s rank
    gate fails or its reconstruction's SNR is below 1 dB, and 2 on bad input
    (a missing or malformed file, manifest or value), reported as one
    ``tensorcur: error:`` line like argparse's."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"tensorcur: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
