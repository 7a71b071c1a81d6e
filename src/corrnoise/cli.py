"""Command-line reproduction scenarios.

Subcommands::

    corrnoise fig1a        per-shot QFI vs interrogation time (GHZ vs product)
    corrnoise fig1b        entanglement-advantage ratios vs qubit number
    corrnoise closed-forms regression of the three analytic optima
    corrnoise advantage    one advantage ratio (--n, --xi, --regime)
    corrnoise estimate     Monte Carlo estimation replication study
    corrnoise spectrum     coherence decay-rate spectrum of a family
    corrnoise verify       full property battery

All scenarios write RFC-4180-style CSV with '#' comment lines; the first
line is a ``# config:`` record sufficient to re-run the scenario exactly.
Floats are printed with 17 significant digits so 64-bit values round-trip.
gamma defaults to 1 and sets the time unit of every output.

Exit codes: 0 success, 1 tolerance breach / failed verification,
2 invalid configuration, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from .estimation import estimate_xi, shot_uncertainty, simulate_parity_counts
from .evolution import ResourceLimitError, coherence_spectrum, ghz_pair, plus_product
from .model import (
    DephasingFamily,
    FamilyValidationError,
    build_n_qubit,
    build_single_qubit,
    build_two_qubit,
    from_spectral_density,
    load_spectral_csv,
)
from .optimize import advantage_ratio, family_for_ratio
from .qfi import (
    DivergentQfiError,
    coherence_pair_qfi_shot,
    coherence_pair_qfi_shot_peak,
    qfi_exact_value,
)
from .verify import closed_form_table, run_verify

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    scenario: str
    family: str = "nqb"
    n: int = 6
    xi: float = 0.01
    gamma: float = 1.0
    regime: str = "shot"
    t_lo: float = 1e-2
    t_hi: float = 1e3
    t_points: int = 200
    t_log: bool = True
    shots: int = 10000
    seeds: int = 200
    seed: int = 0
    out: str | None = None
    threads: int | None = None

    def config_line(self) -> str:
        # threads deliberately excluded: results are thread-count independent.
        payload = {k: v for k, v in asdict(self).items() if k not in ("out", "threads")}
        return "# config: " + json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _resolve_threads(value: int | None) -> int:
    if value is not None:
        return max(1, int(value))
    env = os.environ.get("CORRNOISE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"CORRNOISE_THREADS must be an integer, got {env!r}") from exc
    return os.cpu_count() or 1


def _write_csv(out: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    with open(out, "w", newline="") as fh:
        fh.write(text)


def _build_family(config: RunConfig) -> DephasingFamily:
    kind = config.family
    domain = (min(1e-6, config.xi / 2.0) if config.xi > 0 else 1e-6, 1.0)
    if kind == "single":
        return build_single_qubit(domain, gamma=config.gamma)
    if kind == "two":
        return build_two_qubit(domain, gamma=config.gamma)
    if kind == "nqb":
        return build_n_qubit(config.n, domain, gamma=config.gamma)
    if kind.startswith("file:"):
        data = load_spectral_csv(kind[5:], gamma_ref=config.gamma)
        return from_spectral_density(data)
    raise ConfigError(f"unknown family {kind!r} (expected single, two, nqb or file:<path>)")


def _parallel_map(fn, items, threads: int) -> list:
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))  # order preserved => deterministic merge


def run_fig1a(config: RunConfig) -> tuple[list[str], int]:
    """Per-shot QFI of the GHZ pair and of |+>^N against interrogation time."""
    family = build_n_qubit(config.n, (min(1e-6, config.xi / 2.0), 1.0), gamma=config.gamma)
    pair = ghz_pair(config.n)
    rho_prod = plus_product(config.n).density()
    if config.t_log:
        ts = np.geomspace(config.t_lo, config.t_hi, config.t_points)
    else:
        ts = np.linspace(config.t_lo, config.t_hi, config.t_points)
    threads = config.threads or 1

    def point(t: float) -> tuple[float, float, float]:
        ghz = coherence_pair_qfi_shot(family, config.xi, pair, t).value
        prod = qfi_exact_value(rho_prod, family, config.xi, t)
        return t, prod, ghz

    rows = _parallel_map(point, [float(t) for t in ts], threads)
    lines = [config.config_line(), "# time unit: 1/gamma", "t,qfi_product,qfi_ghz"]
    lines.extend(f"{_fmt(t)},{_fmt(p)},{_fmt(g)}" for t, p, g in rows)
    return lines, EXIT_OK


def run_fig1b(config: RunConfig) -> tuple[list[str], int]:
    """Advantage ratios for n = 2..config.n in both resource regimes."""
    threads = config.threads or 1
    ns = list(range(2, config.n + 1))

    def row(n: int) -> tuple[int, float, float, float, float]:
        time_ratio = advantage_ratio(n, config.xi, "time", seed=config.seed, threads=1).ratio
        shot_ratio = advantage_ratio(n, config.xi, "shot", seed=config.seed, threads=1).ratio
        return n, time_ratio, shot_ratio, float(n), float(2 ** (n - 1))

    rows = _parallel_map(row, ns, threads)
    lines = [config.config_line(), "n,ratio_time,ratio_shot,pred_time,pred_shot"]
    lines.extend(f"{n},{_fmt(rt)},{_fmt(rs)},{_fmt(pt)},{_fmt(ps)}" for n, rt, rs, pt, ps in rows)
    return lines, EXIT_OK


def run_closed_forms(config: RunConfig) -> tuple[list[str], int]:
    """Regression of the three analytic time-averaged optima at (xi, gamma)."""
    lines = [config.config_line(), "case,computed,expected,rel_err"]
    breach = False
    for name, computed, expected, rel in closed_form_table(config.xi, config.n, config.gamma):
        breach = breach or rel > 1e-4
        lines.append(f"{name},{_fmt(computed)},{_fmt(expected)},{_fmt(rel)}")
    return lines, (EXIT_TOLERANCE if breach else EXIT_OK)


def run_advantage(config: RunConfig) -> tuple[list[str], int]:
    threads = config.threads or 1
    result = advantage_ratio(config.n, config.xi, config.regime, seed=config.seed, threads=threads)
    lines = [
        config.config_line(),
        "n,xi,regime,entangled,separable,ratio,entangled_probe,separable_thetas",
    ]
    sep_probe = result.separable_best.probe
    thetas = ";".join(_fmt(t) for t in sep_probe.thetas)
    lines.append(
        f"{result.n_qubits},{_fmt(result.xi)},{result.regime},"
        f"{_fmt(result.entangled_best.value)},{_fmt(result.separable_best.value)},{_fmt(result.ratio)},"
        f"{result.entangled_best.probe.label},{thetas}"
    )
    return lines, EXIT_OK


def run_estimate(config: RunConfig) -> tuple[list[str], int]:
    """Replication study for GHZ-pair sensing on the collective family."""
    family = family_for_ratio(config.n, config.xi, gamma=config.gamma)
    pair = ghz_pair(config.n)
    peak = coherence_pair_qfi_shot_peak(family, config.xi, pair)
    t = peak.time
    threads = config.threads or 1

    def one(r: int) -> tuple[int, int, str, str]:
        record = simulate_parity_counts(family, config.xi, pair, t, config.shots, config.seed ^ r)
        report = estimate_xi(record, family)
        xi_hat = "" if report.xi_hat is None else _fmt(report.xi_hat)
        return r, record.seed, xi_hat, "1" if report.clamped else "0"

    rows = _parallel_map(one, list(range(config.seeds)), threads)
    estimates = np.array([float(x) for _, _, x, _ in rows if x])
    crb = shot_uncertainty(family, config.xi, pair, config.shots)
    lines = [
        config.config_line(),
        f"# t: {_fmt(t)}",
        f"# crb_std: {_fmt(crb)}",
    ]
    if estimates.size >= 2:
        lines.append(f"# empirical_std: {_fmt(float(np.std(estimates, ddof=1)))}")
        lines.append(f"# mean_bias: {_fmt(float(np.mean(estimates) - config.xi))}")
    lines.append(f"# failed: {config.seeds - estimates.size}")
    lines.append(f"# clamped: {sum(c == '1' for _, _, _, c in rows)}")
    lines.append("replicate,seed,xi_hat,clamped")
    lines.extend(f"{r},{s},{x},{c}" for r, s, x, c in rows)
    return lines, EXIT_OK


def run_spectrum(config: RunConfig) -> tuple[list[str], int]:
    family = _build_family(config)
    xi = config.xi if family.contains(config.xi) else family.xi_domain[0]
    spectrum = coherence_spectrum(family, xi)
    # Basis index -> bitstring label, qubit 0 = MSB (as in CoherencePair.label).
    bits = [format(i, f"0{family.n_qubits}b") for i in range(2**family.n_qubits)]
    lines = [config.config_line(), f"# xi: {_fmt(xi)}", "alpha,beta,rate"]
    rows = zip(spectrum.alpha_index.tolist(), spectrum.beta_index.tolist(), spectrum.rate.tolist())
    lines.extend(f"{bits[a]},{bits[b]},{_fmt(r)}" for a, b, r in rows)
    return lines, EXIT_OK


def run_verify_scenario(config: RunConfig) -> tuple[list[str], int]:
    lines = [config.config_line(), "property,status,detail"]
    all_pass = True
    extra = None
    if config.family.startswith("file:"):
        # A malformed file family is itself a verification failure, not a crash.
        try:
            extra = from_spectral_density(load_spectral_csv(config.family[5:], gamma_ref=config.gamma))
            lines.append("file_family_valid,PASS,constructed")
        except FamilyValidationError as exc:
            lines.append(f"file_family_valid,FAIL,{str(exc).replace(',', ';')}")
            all_pass = False
    results = run_verify(seed=config.seed, extra_family=extra)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        all_pass = all_pass and res.passed
        lines.append(f"{res.name},{status},{res.detail}")
    return lines, (EXIT_OK if all_pass else EXIT_TOLERANCE)


_RUNNERS = {
    "fig1a": run_fig1a,
    "fig1b": run_fig1b,
    "closed-forms": run_closed_forms,
    "advantage": run_advantage,
    "estimate": run_estimate,
    "spectrum": run_spectrum,
    "verify": run_verify_scenario,
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with RunConfig fields; flags override")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    parser.add_argument("--threads", type=int, help="worker threads (env CORRNOISE_THREADS, else all cores)")
    parser.add_argument("--gamma", type=float, help="decay-rate scale; sets the time unit (default 1.0)")
    parser.add_argument("--seed", type=int, help="base seed for all randomized pieces (default 0)")
    parser.add_argument("--n", type=int, help="qubit number (fig1b: largest n of the sweep)")
    parser.add_argument("--xi", type=float, help="correlation parameter")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="corrnoise", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="scenario", required=True)

    p = sub.add_parser("fig1a", help="per-shot QFI vs time for GHZ and product probes")
    _add_common(p)
    p.add_argument("--t-lo", type=float, help="grid start (default 1e-2)")
    p.add_argument("--t-hi", type=float, help="grid end (default 1e3)")
    p.add_argument("--t-points", type=int, help="grid size (default 200)")
    p.add_argument("--t-linear", action="store_true", help="linear instead of log spacing")

    p = sub.add_parser("fig1b", help="advantage ratios vs qubit number")
    _add_common(p)

    p = sub.add_parser("closed-forms", help="closed-form regression table")
    _add_common(p)

    p = sub.add_parser("advantage", help="single advantage ratio")
    _add_common(p)
    p.add_argument("--regime", choices=("shot", "time"), help="resource regime (default shot)")

    p = sub.add_parser("estimate", help="Monte Carlo estimation replication study")
    _add_common(p)
    p.add_argument("--shots", type=int, help="shots per replicate (default 10000)")
    p.add_argument("--seeds", type=int, help="number of replicates (default 200)")

    p = sub.add_parser("spectrum", help="coherence decay-rate spectrum")
    _add_common(p)
    p.add_argument("--family", help="single | two | nqb | file:<path> (default nqb)")

    p = sub.add_parser("verify", help="run the property battery")
    _add_common(p)
    p.add_argument("--family", help="optional extra family to include, e.g. file:<path>")

    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config}: invalid JSON ({exc})") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {args.config}: expected a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = set(loaded) - known
        if unknown:
            raise ConfigError(f"config file {args.config}: unknown fields {sorted(unknown)}")
        values.update(loaded)
    values["scenario"] = args.scenario
    flag_fields = (
        "out",
        "threads",
        "gamma",
        "seed",
        "n",
        "xi",
        "t_lo",
        "t_hi",
        "t_points",
        "regime",
        "shots",
        "seeds",
        "family",
    )
    for field in flag_fields:
        val = getattr(args, field, None)
        if val is not None:
            values[field] = val
    if getattr(args, "t_linear", False):
        values["t_log"] = False
    try:
        config = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    _validate_config(config)
    return config


def _validate_config(config: RunConfig) -> None:
    if config.scenario != "spectrum" and not 0.0 < config.xi < 1.0:
        raise ConfigError(f"xi must lie in (0, 1), got {config.xi}")
    if config.gamma <= 0.0:
        raise ConfigError(f"gamma must be > 0, got {config.gamma}")
    if config.scenario in ("fig1a", "fig1b", "closed-forms", "advantage", "estimate") and config.n < 2:
        raise ConfigError(f"n must be >= 2, got {config.n}")
    if config.scenario == "fig1a":
        if not 0.0 < config.t_lo < config.t_hi:
            raise ConfigError(f"need 0 < t_lo < t_hi, got ({config.t_lo}, {config.t_hi})")
        if config.t_points < 2:
            raise ConfigError(f"t_points must be >= 2, got {config.t_points}")
    if config.scenario == "estimate":
        if config.shots <= 0 or config.seeds < 2:
            raise ConfigError("estimate requires shots > 0 and seeds >= 2")
    if config.regime not in ("shot", "time"):
        raise ConfigError(f"regime must be 'shot' or 'time', got {config.regime!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(args)
        config.threads = _resolve_threads(config.threads)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_IO
    try:
        lines, code = _RUNNERS[config.scenario](config)
    except (ConfigError, FamilyValidationError, ResourceLimitError, DivergentQfiError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        _write_csv(config.out, lines)
    except OSError as exc:
        print(f"i/o error writing {config.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
