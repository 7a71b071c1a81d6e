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
Units: gamma (default 1) is the time unit.  The library computes at gamma = 1
(``model``); ``_in_units`` multiplies rates and time-regime QFIs by gamma and
divides times by it, once, at the output, and ``fig1a`` evaluates at tau = gamma t.

Exit codes: 0 success, 1 tolerance breach / failed verification,
2 invalid configuration, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .estimation import replication_study, shot_uncertainty
from .evolution import CoherenceSpectrum, ResourceLimitError, coherence_spectrum, ghz_pair, plus_product
from .model import (
    DephasingFamily,
    FamilyValidationError,
    build_n_qubit,
    build_single_qubit,
    build_two_qubit,
    from_spectral_density,
    load_spectral_csv,
)
from .optimize import PRODUCT_MAX_QUBITS, REGIMES, AdvantageRatio, advantage_ratio, family_for_ratio
from .qfi import (
    DivergentQfiError,
    coherence_pair_qfi_shot,
    coherence_pair_qfi_shot_peak,
    qfi_exact_value,
)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_IO = 3

# Rows per spectrum output chunk: about 200 KB of text at N = 12.  Chunk
# temporaries this small are carved from the heap that earlier chunks freed,
# not mapped and faulted in anew for every chunk.
SPECTRUM_CHUNK_ROWS = 1 << 12


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

    def config_line(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out"}
        return "# config: " + json.dumps(payload, sort_keys=True, separators=(",", ":"))


# The JSON types a config file may give each RunConfig annotation, matched on
# the exact type of the value since bool is a subclass of int.
_CONFIG_TYPES = {"str": (str,), "int": (int,), "float": (int, float), "bool": (bool,), "str | None": (str, type(None))}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(out: str | None, lines: Iterable[str]) -> None:
    """Write each item of ``lines`` and a newline, as the items come.

    An item is one line or a chunk of lines joined by newlines, so a long
    table reaches the output without ever being held whole.
    """
    with open(out, "w", newline="") if out not in (None, "-") else contextlib.nullcontext(sys.stdout) as fh:
        for item in lines:
            fh.write(item)
            fh.write("\n")


def _in_units(config: RunConfig, values, power: int, what: str) -> np.ndarray:
    """gamma^power times the gamma = 1 ``values``; the one edge-of-range guard: ConfigError past the float range."""
    with np.errstate(over="ignore"):
        scaled = np.multiply(values, config.gamma) if power == 1 else np.divide(values, config.gamma)
    if not np.all(np.isfinite(scaled)):
        raise ConfigError(f"gamma={config.gamma!r} puts {what} past the float range")
    return scaled


def _build_family(config: RunConfig) -> DephasingFamily:
    if config.family.startswith("file:"):
        return from_spectral_density(load_spectral_csv(config.family[5:], gamma_ref=config.gamma))
    builders = {"single": build_single_qubit, "two": build_two_qubit, "nqb": partial(build_n_qubit, config.n)}
    if config.family not in builders:
        raise ConfigError(f"unknown family {config.family!r} (expected single, two, nqb or file:<path>)")
    return builders[config.family]((min(1e-6, config.xi / 2.0), 1.0))


def run_fig1a(config: RunConfig) -> tuple[list[str], int]:
    """Per-shot QFI of the GHZ pair and of |+>^N against interrogation time."""
    family = build_n_qubit(config.n, (min(1e-6, config.xi / 2.0), 1.0))
    pair = ghz_pair(config.n)
    rho_prod = plus_product(config.n).density()
    ts = (np.geomspace if config.t_log else np.linspace)(config.t_lo, config.t_hi, config.t_points)
    lines = [config.config_line(), "# time unit: 1/gamma", "t,qfi_product,qfi_ghz"]
    for t in ts.tolist():
        # A tau past the float range (--gamma 1e10 --t-hi 1e300) is taken as the largest float: both QFIs are 0 there.
        tau = min(config.gamma * t, sys.float_info.max)
        ghz = coherence_pair_qfi_shot(family, config.xi, pair, tau).value
        prod = qfi_exact_value(rho_prod, family, config.xi, tau)
        lines.append(f"{_fmt(t)},{_fmt(prod)},{_fmt(ghz)}")
    return lines, EXIT_OK


def _warn_unresolved(results: list[AdvantageRatio]) -> None:
    """One stderr warning line when a product search scored points -inf; the CSV and exit code do not change."""
    unresolved = sum(r.unresolved for r in results)
    if unresolved:
        print(
            f"warning: the product search scored {unresolved} point(s) -inf: their QFI is past the kernel policy"
            " (derivative weight in the numerical kernel), so the search stepped away from them",
            file=sys.stderr,
        )


def run_fig1b(config: RunConfig) -> tuple[list[str], int]:
    """Advantage ratios for n = 2..config.n in both resource regimes."""
    lines = [config.config_line(), "n,ratio_time,ratio_shot,pred_time,pred_shot"]
    results = []
    for n in range(2, config.n + 1):
        for regime in ("time", "shot"):
            results.append(advantage_ratio(n, config.xi, regime, seed=config.seed))
        time_ratio, shot_ratio = results[-2].ratio, results[-1].ratio
        lines.append(f"{n},{_fmt(time_ratio)},{_fmt(shot_ratio)},{_fmt(n)},{_fmt(2 ** (n - 1))}")
    _warn_unresolved(results)
    return lines, EXIT_OK


def run_closed_forms(config: RunConfig) -> tuple[list[str], int]:
    """Regression of the three analytic time-averaged optima at xi, in units of gamma."""
    # verify is imported where it is used: importing cli does not compile it.
    from .verify import CLOSED_FORM_RTOL, closed_form_table

    lines = [config.config_line(), "case,computed,expected,rel_err"]
    breach = False
    for name, computed, expected, rel in closed_form_table(config.xi, config.n):
        computed, expected = _in_units(config, (computed, expected), 1, f"the {name} QFI")
        breach = breach or rel > CLOSED_FORM_RTOL
        lines.append(f"{name},{_fmt(computed)},{_fmt(expected)},{_fmt(rel)}")
    return lines, (EXIT_TOLERANCE if breach else EXIT_OK)


def run_advantage(config: RunConfig) -> tuple[list[str], int]:
    result = advantage_ratio(config.n, config.xi, config.regime, seed=config.seed)
    optima = result.entangled_best.value, result.separable_best.value
    if result.regime == "time":
        optima = _in_units(config, optima, 1, "the time-regime QFIs")
    _warn_unresolved([result])
    lines = [
        config.config_line(),
        "n,xi,regime,entangled,separable,ratio,entangled_probe,separable_thetas",
    ]
    thetas = ";".join(_fmt(t) for t in result.separable_best.probe.thetas)
    lines.append(
        f"{result.n_qubits},{_fmt(result.xi)},{result.regime},"
        f"{_fmt(optima[0])},{_fmt(optima[1])},{_fmt(result.ratio)},"
        f"{result.entangled_best.probe.label},{thetas}"
    )
    return lines, EXIT_OK


def run_estimate(config: RunConfig) -> tuple[list[str], int]:
    """Replication study for GHZ-pair sensing on the collective family."""
    family = family_for_ratio(config.n, config.xi)
    pair = ghz_pair(config.n)
    peak = coherence_pair_qfi_shot_peak(family, config.xi, pair)
    study = replication_study(family, config.xi, pair, peak.time, config.shots, config.seeds, config.seed)
    lines = [
        config.config_line(),
        f"# t: {_fmt(_in_units(config, peak.time, -1, 'the probe time t'))}",
        f"# crb_std: {_fmt(shot_uncertainty(family, config.xi, pair, config.shots))}",
        f"# empirical_std: {_fmt(study.empirical_std)}",
        f"# mean_bias: {_fmt(study.mean_bias)}",
        f"# failed: {study.n_failed}",
        f"# clamped: {study.n_clamped}",
        "replicate,seed,xi_hat,clamped",
    ]
    for r, report in enumerate(study.reports):
        xi_hat = "" if report.xi_hat is None else _fmt(report.xi_hat)
        lines.append(f"{r},{config.seed ^ r},{xi_hat},{int(report.clamped)}")
    return lines, EXIT_OK


def _spectrum_rows(spectrum: CoherenceSpectrum, config: RunConfig) -> Iterator[str]:
    """The spectrum's ``alpha,beta,rate`` rows, in chunks of at most ``SPECTRUM_CHUNK_ROWS``, rates times gamma.

    Each run of bit-equal rates is converted and formatted once, here
    (comparing bits keeps 0.0 and -0.0 apart, which compare equal but print
    differently).  A row is gathered from a per-N table of "bitstring,"
    labels (qubit 0 = MSB, as in CoherencePair.label) and the run's text,
    NUL-padded to one width; the padding is deleted from each chunk.
    """
    n = spectrum.n_qubits
    labels = np.full((2**n, n + 1), ord(","), dtype=np.uint8)
    labels[:, :n] = ord("0") + ((np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1)
    labels = labels.view(f"S{n + 1}").ravel()
    bits = spectrum.rate.view(np.uint64)
    run_start = np.concatenate([[True], bits[1:] != bits[:-1]])
    rates = _in_units(config, spectrum.rate[run_start], 1, "a decay rate").tolist()
    texts = np.array([f"{_fmt(r)}\n".encode() for r in rates])
    row = np.dtype([("alpha", labels.dtype), ("beta", labels.dtype), ("rate", texts.dtype)])

    def chunks() -> Iterator[str]:
        runs_begun = 0
        for lo in range(0, len(bits), SPECTRUM_CHUNK_ROWS):
            chunk = slice(lo, lo + SPECTRUM_CHUNK_ROWS)
            run = np.cumsum(run_start[chunk]) + (runs_begun - 1)
            runs_begun = int(run[-1]) + 1
            block = np.empty(len(run), dtype=row)
            block["alpha"] = labels[spectrum.alpha_index[chunk]]
            block["beta"] = labels[spectrum.beta_index[chunk]]
            block["rate"] = texts[run]
            yield block.tobytes().translate(None, b"\0")[:-1].decode("ascii")

    return chunks()


def run_spectrum(config: RunConfig) -> tuple[Iterable[str], int]:
    """Coherence decay-rate spectrum, one ``alpha,beta,rate`` row per canonical pair, ascending by rate.

    The spectrum arrays and the rates' texts are built here, so their errors
    raise before any output; the rows are formatted as the writer consumes them.
    """
    family = _build_family(config)
    xi = config.xi if family.contains(config.xi) else family.xi_domain[0]
    rows = _spectrum_rows(coherence_spectrum(family, xi), config)
    return itertools.chain([config.config_line(), f"# xi: {_fmt(xi)}", "alpha,beta,rate"], rows), EXIT_OK


def run_verify_scenario(config: RunConfig) -> tuple[list[str], int]:
    from .verify import run_verify

    lines = [config.config_line(), "property,status,detail"]
    all_pass = True
    extra = None
    if config.family.startswith("file:"):
        # A malformed file family is itself a verification failure, not a crash.
        try:
            extra = _build_family(config)
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


class Scenario(NamedTuple):
    """A subcommand: the runner ``main`` calls, its help line and the flags it adds to ``_COMMON_FLAGS``."""

    run: Callable[[RunConfig], tuple[Iterable[str], int]]
    help: str
    flags: tuple[tuple[str, dict], ...] = ()


# Each flag as (name, add_argument keywords).
_COMMON_FLAGS = (
    ("--config", {"help": "JSON file with RunConfig fields; flags override"}),
    ("--out", {"help": "output CSV path (default: stdout)"}),
    ("--threads", {"type": int, "help": "ignored; corrnoise runs in one thread"}),
    ("--gamma", {"type": float, "help": "decay-rate scale; sets the time unit (default 1.0)"}),
    ("--seed", {"type": int, "help": "base seed for all randomized pieces (default 0)"}),
    ("--n", {"type": int, "help": "qubit number (fig1b: largest n of the sweep)"}),
    ("--xi", {"type": float, "help": "correlation parameter"}),
)

# The scenarios, in the order the help lists them.
SCENARIOS = {
    "fig1a": Scenario(
        run_fig1a,
        "per-shot QFI vs time for GHZ and product probes",
        (
            ("--t-lo", {"type": float, "help": "grid start (default 1e-2)"}),
            ("--t-hi", {"type": float, "help": "grid end (default 1e3)"}),
            ("--t-points", {"type": int, "help": "grid size (default 200)"}),
            ("--t-linear", {"dest": "t_log", "action": "store_false", "default": None, "help": "linear instead of log spacing"}),
        ),
    ),
    "fig1b": Scenario(run_fig1b, "advantage ratios vs qubit number"),
    "closed-forms": Scenario(run_closed_forms, "closed-form regression table"),
    "advantage": Scenario(
        run_advantage,
        "single advantage ratio",
        (("--regime", {"choices": REGIMES, "help": "resource regime (default shot)"}),),
    ),
    "estimate": Scenario(
        run_estimate,
        "Monte Carlo estimation replication study",
        (
            ("--shots", {"type": int, "help": "shots per replicate (default 10000)"}),
            ("--seeds", {"type": int, "help": "number of replicates (default 200)"}),
        ),
    ),
    "spectrum": Scenario(
        run_spectrum,
        "coherence decay-rate spectrum",
        (("--family", {"help": "single | two | nqb | file:<path> (default nqb)"}),),
    ),
    "verify": Scenario(
        run_verify_scenario,
        "run the property battery",
        (("--family", {"help": "optional extra family to include, e.g. file:<path>"}),),
    ),
}


def build_parser(names: Iterable[str] = SCENARIOS) -> argparse.ArgumentParser:
    """The ``corrnoise`` parser, with a subcommand for each scenario in ``names`` (default: all of them).

    A parser of fewer scenarios names all of them in its usage line, as the
    full parser does, so both print the same usage and errors.  The full
    parser sets no metavar: its errors name the argument ``scenario``.
    """
    names = tuple(names)
    metavar = None if names == tuple(SCENARIOS) else "{" + ",".join(SCENARIOS) + "}"
    parser = argparse.ArgumentParser(prog="corrnoise", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="scenario", required=True, metavar=metavar)
    for name in names:
        scenario = SCENARIOS[name]
        p = sub.add_parser(name, help=scenario.help)
        for flag, kwargs in _COMMON_FLAGS + scenario.flags:
            p.add_argument(flag, **kwargs)
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except ValueError as exc:
            # A JSONDecodeError, or an integer past the interpreter's digit limit.
            raise ConfigError(f"config file {args.config}: invalid JSON ({exc})") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {args.config}: expected a JSON object")
        known = {f.name: f.type for f in fields(RunConfig)}
        unknown = set(loaded) - set(known)
        if unknown:
            raise ConfigError(f"config file {args.config}: unknown fields {sorted(unknown)}")
        for name, value in loaded.items():
            if type(value) not in _CONFIG_TYPES[known[name]]:
                raise ConfigError(f"config file {args.config}: field {name!r} must be {known[name]}, got {value!r}")
            # An integer for a float field is kept as given, so the # config: line
            # prints it as given, but it must convert to a float.
            if known[name] == "float":
                try:
                    float(value)
                except OverflowError:
                    raise ConfigError(f"config file {args.config}: field {name!r} is past the float range") from None
        values.update(loaded)
    for field in fields(RunConfig):
        val = getattr(args, field.name, None)
        if val is not None:
            values[field.name] = val
    config = RunConfig(**values)
    _validate_config(config)
    return config


def _validate_config(config: RunConfig) -> None:
    if config.scenario != "spectrum" and not 0.0 < config.xi < 1.0:
        raise ConfigError(f"xi must lie in (0, 1), got {config.xi}")
    if config.scenario == "spectrum" and config.family in ("single", "two", "nqb") and not 0.0 < config.xi <= 1.0:
        raise ConfigError(f"xi must lie in (0, 1] for the {config.family} family, got {config.xi}")
    if not (config.gamma > 0.0 and np.isfinite(config.gamma)):
        raise ConfigError(f"gamma must be a positive finite rate, got {config.gamma}")
    if config.scenario in ("fig1a", "fig1b", "closed-forms", "advantage", "estimate") and config.n < 2:
        raise ConfigError(f"n must be >= 2, got {config.n}")
    if config.scenario == "fig1b" and config.n > PRODUCT_MAX_QUBITS:
        raise ConfigError(f"fig1b sweeps n up to {PRODUCT_MAX_QUBITS}, got {config.n}")
    if config.scenario == "fig1a":
        for name, value in (("t_lo", config.t_lo), ("t_hi", config.t_hi)):
            if not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not 0.0 < config.t_lo < config.t_hi:
            raise ConfigError(f"need 0 < t_lo < t_hi, got ({config.t_lo}, {config.t_hi})")
        if config.t_points < 2:
            raise ConfigError(f"t_points must be >= 2, got {config.t_points}")
    if config.scenario == "estimate":
        if config.shots <= 0 or config.seeds < 2:
            raise ConfigError("estimate requires shots > 0 and seeds >= 2")
    if config.regime not in REGIMES:
        raise ConfigError(f"regime must be one of {REGIMES}, got {config.regime!r}")


# The parsers ``main`` reads, each built on first use and kept: the parser of
# the scenario that argv names, or the full one for anything else.  The full
# parser (8 parsers, 66 arguments) takes about five times as long to build
# as one scenario's.  parse_args leaves a parser as it was.
_full_parser = lru_cache(maxsize=1)(build_parser)


@lru_cache(maxsize=None)
def _scenario_parser(name: str) -> argparse.ArgumentParser:
    return build_parser((name,))


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """argv parsed by the parser of the scenario it names; top-level help and no scenario by the full one."""
    argv = sys.argv[1:] if argv is None else argv
    parser = _scenario_parser(argv[0]) if argv and argv[0] in SCENARIOS else _full_parser()
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        config = _merge_config(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_IO
    try:
        lines, code = SCENARIOS[config.scenario].run(config)
    except (ConfigError, FamilyValidationError, ResourceLimitError, DivergentQfiError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        _write_csv(config.out, lines)
    except OSError as exc:
        target = "<stdout>" if config.out in (None, "-") else config.out
        print(f"i/o error writing {target}: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
